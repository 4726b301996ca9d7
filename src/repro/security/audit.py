"""One obliviousness checker, fed by a recording link (paper §5, Figs. 5 and 7).

ORTOA claims two things: an access takes one round trip, and the server's
view of a GET is its view of a PUT.  Following Path ORAM, the *view* is
defined as exactly what crosses the wire and what happens in storage:

* **frames** — every payload a shard's link carries, and its reply, as
  recorded by a :class:`RecordingLink` wrapped around the link a deployment
  reaches that shard through: a :class:`~repro.transport.pipeline.LocalLink`,
  or a :class:`~repro.transport.pipeline.PipelinedLblClient` to a thread- or
  process-backed shard.  The link's framing adds the same bytes to every
  payload, so the payloads are the view;
* **storage** — for each encoded key a frame names, the shard's stored
  record before and after it: its length, and whether it changed.  Read
  only when the store lives in this process; a process-backed shard's
  storage is reported as ``storage: not observed``.

:func:`run_audit` drives a balanced workload — every key accessed once,
half reads and half writes on each shard — through ``access``,
``access_pipelined`` and ``access_batch``, and asserts per path:

* **one round trip** — one request frame and one reply frame per access
  (per shard touched, for a batch);
* **shape identity** — reads and writes have identical supports for the
  frames, the storage, and the trusted side's per-phase op counts;
* **ROR-RW** — the Figure 5 experiment, run once, here: the recorded
  requests against :class:`~repro.security.simulators.LblSimulator` output
  for the same key sequence (equal shape fingerprints, zero size
  advantage), and a byte-histogram distance under :func:`histogram_bound`
  both against the simulator and between reads and writes;
* **fresh rows** — no request nonce and no slab row recurs.

:func:`judge_requests` is the last two on their own, for a caller that
recorded its frames itself.  :class:`LeakyLblOrtoa` is the negative
control: its server skips the storage rewrite on reads — the §5.1 leak
ORTOA closes — and the storage view shows it.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from collections import Counter
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any, Callable, Hashable, Sequence

from repro.core.base import AccessTranscript
from repro.core.lbl.server import LblServer
from repro.core.messages import (
    LblAccessRequest, LblAccessResponse, LblBatchRequest, LblBatchResponse,
)
from repro.core.sharded import LblOrtoa, ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.crypto.rows import CHECK_LEN
from repro.errors import ConfigurationError, ProtocolError
from repro.security.simulators import LblSimulator
from repro.transport.pipeline import joined, relay
from repro.types import Operation, Request, StoreConfig

#: The deployment paths the checker drives, in order.
PATHS = ("access", "access_pipelined", "access_batch")
#: The chance that two byte samples from one distribution fail
#: :func:`histogram_bound`: ROR-RW's false-alarm rate per comparison.
FALSE_ALARM_RATE = 1e-6

#: One stored record around one access: (length before, length after, changed).
StorageView = tuple[int, int, bool]


def _requests(payload: bytes) -> list[LblAccessRequest]:
    """The access requests a payload carries: none for a LOAD or control
    frame, or for one that does not parse."""
    try:
        if payload[:1] == bytes([LblAccessRequest.TAG]):
            return [LblAccessRequest.from_bytes(payload)]
        if payload[:1] == bytes([LblBatchRequest.TAG]):
            return list(LblBatchRequest.from_bytes(payload).requests)
    except ProtocolError:
        pass
    return []


def _size(record) -> int:
    return len(record) if record is not None else 0


@dataclass(slots=True)
class Frame:
    """One payload a link carried and its reply (``None``: refused or lost).

    ``storage`` holds, per access request in the payload, the shard's stored
    record around it, or is ``None`` when the store is not observed.
    """

    request: bytes
    reply: bytes | None = None
    storage: list[StorageView] | None = None


class RecordingLink:
    """A link that records every ``(payload, reply)`` pair it carries.

    Pass it as an ``addresses`` entry of a
    :class:`~repro.core.sharded.ShardedLblDeployment`, or wrap a built
    deployment's links with :func:`record_links`.

    Args:
        link: The link to wrap (``submit`` / ``close``).
        store: The shard's store when it lives in this process; a
            :class:`~repro.transport.pipeline.LocalLink`'s is found without
            it.  With none, storage is not observed.
    """

    def __init__(self, link, store=None) -> None:
        self.link = link
        if store is None and hasattr(link, "dispatcher"):
            store = link.dispatcher.lbl.store
        self.store = store
        self.frames: list[Frame] = []
        self._lock = threading.Lock()

    def _peek(self, encoded_key: bytes):
        """The stored record, read without moving the store's counters."""
        return self.store._data.get(encoded_key)

    def submit(self, payload, trace_context: bytes | None = None) -> Future:
        """Forward one payload, joined if streamed; the future completes once
        its reply, and the storage after it, are recorded by its waiter."""
        frame = Frame(payload := joined(payload))
        keys = [r.encoded_key for r in _requests(payload)] if self.store is not None else []
        before = [self._peek(key) for key in keys]
        with self._lock:
            self.frames.append(frame)

        def record(forwarded: Future) -> None:
            if self.store is not None:
                frame.storage = [
                    (_size(old), _size(new), new != old)
                    for old, new in zip(before, map(self._peek, keys))
                ]
            if forwarded.exception() is None:
                frame.reply = forwarded.result()

        return relay(self.link.submit(payload, trace_context), record)

    def close(self) -> None:
        """Close the wrapped link."""
        self.link.close()


def record_links(deployment: ShardedLblDeployment) -> list[RecordingLink]:
    """Wrap each of ``deployment``'s shard links in a :class:`RecordingLink`."""
    deployment.clients = [RecordingLink(link) for link in deployment.clients]
    return list(deployment.clients)


# --------------------------------------------------------------------- #
# Verdicts
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Check:
    """One verdict: ``passed`` is ``None`` for what was not observed."""

    path: str
    claim: str
    passed: bool | None
    detail: str


@dataclass(frozen=True, slots=True)
class AuditReport:
    """The checker's verdicts on one deployment."""

    protocol: str
    num_shards: int
    num_reads: int
    num_writes: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        """True iff no check failed (unobserved checks do not fail)."""
        return not self.failures

    @property
    def failures(self) -> list[Check]:
        """The checks that failed."""
        return [check for check in self.checks if check.passed is False]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the report, checks included."""
        return asdict(self) | {"passed": self.passed}

    def summary(self) -> str:
        """Human-readable verdict, one line per check."""
        lines = [
            f"obliviousness audit: {'PASS' if self.passed else 'FAIL'} "
            f"({self.protocol}, {self.num_shards} shard(s), "
            f"{self.num_reads} reads vs {self.num_writes} writes)"
        ]
        for check in self.checks:
            mark = {True: "ok  ", False: "LEAK", None: "n/a "}[check.passed]
            lines.append(f"  [{mark}] {check.path} / {check.claim}: {check.detail}")
        return "\n".join(lines)


def shape_identity(
    path: str,
    claim: str,
    observed: Sequence[tuple[Operation, Hashable]],
    describe: Callable[[Any], str] = str,
) -> Check:
    """Compare the supports of the read and the write views of one feature.

    Any value seen only for reads or only for writes is a distinguisher;
    there is no tolerance.  A feature observed for no access (``None``
    everywhere) is reported as not observed.
    """
    reads = {value for op, value in observed if op.is_read}
    writes = {value for op, value in observed if op.is_write}
    if not reads or not writes:
        raise ConfigurationError("shape identity needs a read and a write view")
    if reads == writes == {None}:
        return Check(path, claim, None, "not observed")
    if reads == writes:
        return Check(path, claim, True, "identical support " + _listed(reads, describe))
    return Check(
        path,
        claim,
        False,
        f"reads saw {_listed(reads, describe)}, writes saw {_listed(writes, describe)}",
    )


def _listed(values: set, describe: Callable[[Any], str]) -> str:
    return "[" + "; ".join(sorted(describe(value) for value in values)) + "]"


def _frame_shape(request: bytes, reply: bytes) -> tuple:
    try:
        parsed = LblAccessRequest.from_bytes(request)
        checks = parsed.table_size * CHECK_LEN
        rows = (parsed.num_groups * parsed.table_size, parsed.entry_len, checks)
    except ProtocolError:
        rows = None
    try:
        answer = LblAccessResponse.from_bytes(reply)
        parts = (len(answer.slots), len(answer.digest))
    except ProtocolError:
        parts = None
    return len(request), rows, len(reply), parts


def _describe_frame(shape: tuple) -> str:
    request, rows, reply, parts = shape
    table = f"{rows[0]} rows x {rows[1]} B + {rows[2]} B checks" if rows else "no table"
    answer = f" ({parts[0]} B slots + {parts[1]} B digest)" if parts else ""
    return f"{request} B request ({table}), {reply} B reply{answer}"


def _describe_storage(view: StorageView | None) -> str:
    if view is None:
        return "not observed"
    before, after, changed = view
    return f"{before} B -> {after} B, {'rewritten' if changed else 'unchanged'}"


def _phase_ops(transcript: AccessTranscript) -> tuple:
    return tuple(
        (phase.name, tuple((k, v) for k, v in asdict(phase.ops).items() if v))
        for phase in transcript.phases
    )


def _describe_ops(phases: tuple) -> str:
    return ", ".join(
        f"{name} " + (" ".join(f"{k}={v}" for k, v in counts) or "-")
        for name, counts in phases
    )


def shape_fingerprint(messages: Sequence[bytes]) -> tuple[tuple[int, int], ...]:
    """A deterministic summary of an output sequence: (index, size) pairs.

    Two access sequences of equal length must produce equal fingerprints
    regardless of their operation types — otherwise sizes leak.
    """
    return tuple((i, len(m)) for i, m in enumerate(messages))


def size_advantage(
    real_outputs: Sequence[Sequence[bytes]],
    ideal_outputs: Sequence[Sequence[bytes]],
) -> float:
    """Advantage of the best threshold classifier on total output size.

    Exactly zero when real and ideal outputs always serialize to the same
    number of bytes (the case for a correct implementation).
    """
    real_sizes = sorted(sum(len(m) for m in out) for out in real_outputs)
    ideal_sizes = sorted(sum(len(m) for m in out) for out in ideal_outputs)
    candidates = sorted(set(real_sizes) | set(ideal_sizes))
    best = 0.0
    for threshold in candidates:
        p_real = sum(1 for s in real_sizes if s <= threshold) / len(real_sizes)
        p_ideal = sum(1 for s in ideal_sizes if s <= threshold) / len(ideal_sizes)
        best = max(best, abs(p_real - p_ideal))
    return best


def histogram_distance(first: Sequence[bytes], second: Sequence[bytes]) -> float:
    """Total-variation distance between the byte histograms of two samples."""
    counts = []
    for sample in (first, second):
        histogram, total = Counter(), 0
        for message in sample:
            histogram.update(message)
            total += len(message)
        if not total:
            raise ConfigurationError("a byte histogram needs at least one byte")
        counts.append((histogram, total))
    (a, n1), (b, n2) = counts
    return 0.5 * sum(abs(a[v] / n1 - b[v] / n2) for v in range(256))


def histogram_bound(n1: int, n2: int) -> float:
    """The :func:`histogram_distance` that samples of ``n1`` and ``n2``
    independent bytes from one distribution exceed with probability at most
    :data:`FALSE_ALARM_RATE`.

    With ``s = 1/n1 + 1/n2``: Jensen and Cauchy–Schwarz over the 256 byte
    values bound the mean, ``E[TV] <= ½·√(256·s)``; one byte moves the
    distance by at most ``1/n`` of its sample, so McDiarmid bounds the tail,
    ``P[TV - E[TV] >= t] <= exp(-2t²/s)``.
    """
    s = 1 / n1 + 1 / n2
    return 0.5 * math.sqrt(256 * s) + math.sqrt(math.log(1 / FALSE_ALARM_RATE) / 2 * s)


def fresh_rows(path: str, sent: Sequence[bytes]) -> Check:
    """Exact: no request nonce and no slab row recurs across ``sent``.

    A repeat is a reused pad — a fixed or replayed nonce — and the
    simulator never repeats one; there is no statistic.
    """
    nonces: list[bytes] = []
    entries: list[bytes] = []
    for payload in sent:
        for request in _requests(payload):
            nonces.append(request.nonce)
            entries += [entry for table in request.tables for entry in table]
    repeats = [len(seen) - len(set(seen)) for seen in (nonces, entries)]
    return Check(
        path,
        "fresh rows",
        not any(repeats),
        f"{repeats[0]} of {len(nonces)} request nonces and {repeats[1]} of "
        f"{len(entries)} slab rows repeat",
    )


def judge_requests(
    path: str,
    config: StoreConfig,
    requests: Sequence[Request],
    sent: Sequence[bytes],
    seed: int = 0,
) -> list[Check]:
    """ROR-RW and fresh rows over ``sent``, the request frame of each of
    ``requests`` in order, against :class:`LblSimulator` for the same keys.

    ROR-RW passes on equal shape fingerprints, zero size advantage, and a
    byte-histogram distance under :func:`histogram_bound` for two splits:
    the frames against the simulator's, and reads against writes.
    """
    if len(sent) != len(requests):
        raise ConfigurationError(f"{len(sent)} frames for {len(requests)} requests")
    reads = [frame for frame, r in zip(sent, requests) if r.op.is_read]
    writes = [frame for frame, r in zip(sent, requests) if r.op.is_write]
    if not reads or not writes:
        raise ConfigurationError("ROR-RW needs a read and a write")
    simulator = LblSimulator(config, rng=random.Random(seed))
    ideal = [simulator.simulate(request.key).to_bytes() for request in requests]
    same_shape = shape_fingerprint(sent) == shape_fingerprint(ideal)
    size = size_advantage([sent], [ideal])
    passed = same_shape and size == 0.0
    distances = []
    splits = (("vs the simulator", sent, ideal), ("reads vs writes", reads, writes))
    for name, first, second in splits:
        distance = histogram_distance(first, second)
        bound = histogram_bound(sum(map(len, first)), sum(map(len, second)))
        passed = passed and distance < bound
        distances.append(f"{distance:.4f} {name} (bound {bound:.4f})")
    detail = (
        f"shape fingerprint {'equal' if same_shape else 'differs'}, size advantage "
        f"{size}, byte-histogram distance {', '.join(distances)} at false-alarm "
        f"rate {FALSE_ALARM_RATE:g}"
    )
    return [Check(path, "ROR-RW", passed, detail), fresh_rows(path, sent)]


def _judge(
    deployment: ShardedLblDeployment,
    path: str,
    requests: list[Request],
    transcripts: list[AccessTranscript],
    frames_by_shard: list[list[Frame]],
    seed: int,
) -> list[Check]:
    """The verdicts on one path's recorded frames."""
    batch = path == "access_batch"
    indices: dict[int, list[int]] = {}
    for index, request in enumerate(requests):
        indices.setdefault(deployment.shard_of(request.key), []).append(index)
    expected = [
        (1 if batch else len(indices[shard])) if shard in indices else 0
        for shard in range(len(frames_by_shard))
    ]
    sent = sum(map(len, frames_by_shard))
    answered = sum(f.reply is not None for frames in frames_by_shard for f in frames)
    paired = answered == sent and all(
        len(frames) == want for frames, want in zip(frames_by_shard, expected)
    )
    per = "shard touched" if batch else "access"
    checks = [
        Check(
            path,
            "one round trip",
            paired,
            f"{sent} request frames, {answered} reply frames for {len(requests)} "
            f"accesses (one per {per}: {sum(expected)})",
        )
    ]

    # Each access's request, frame shape and storage, in request order.
    sent_requests: list = [None] * len(requests)
    frame_views: list = [None] * len(requests)
    storage_views: list = [None] * len(requests)
    for shard, frames in enumerate(frames_by_shard):
        if not paired or shard not in indices:
            continue
        if batch:
            (frame,) = frames
            entries = [r.to_bytes() for r in _requests(frame.request)]
            replies = [
                entry.to_bytes()
                for entry in LblBatchResponse.from_bytes(frame.reply).responses
            ]
            storage = frame.storage
        else:
            entries = [frame.request for frame in frames]
            replies = [frame.reply for frame in frames]
            storage = [frame.storage[0] if frame.storage else None for frame in frames]
        if not len(entries) == len(replies) == len(indices[shard]):
            paired = False
            continue
        for position, index in enumerate(indices[shard]):
            sent_requests[index] = entries[position]
            frame_views[index] = _frame_shape(entries[position], replies[position])
            storage_views[index] = storage[position] if storage else None
    if not paired:  # no view to compare is no evidence of identity
        return checks + [
            Check(path, claim, False, "frames do not pair one-to-one with accesses")
            for claim in ("shape identity, frames", "ROR-RW")
        ] + [fresh_rows(path, [f.request for frames in frames_by_shard for f in frames])]

    ops = [request.op for request in requests]
    checks += [
        shape_identity(
            path, "shape identity, frames", list(zip(ops, frame_views)), _describe_frame
        ),
        shape_identity(
            path, "shape identity, storage", list(zip(ops, storage_views)),
            _describe_storage,
        ),
        shape_identity(
            path, "shape identity, proxy ops",
            [(t.op, _phase_ops(t)) for t in transcripts], _describe_ops,
        ),
    ]
    return checks + judge_requests(path, deployment.config, requests, sent_requests, seed)


def run_audit(
    deployment: ShardedLblDeployment,
    links: Sequence[RecordingLink] | None = None,
    *,
    num_keys: int = 32,
    seed: int = 0,
    paths: Sequence[str] = PATHS,
) -> AuditReport:
    """Drive a balanced workload through ``paths`` and judge what was recorded.

    Args:
        deployment: A freshly built (uninitialized) deployment.
        links: The :class:`RecordingLink` of each shard, in shard order;
            omitted, :func:`record_links` wraps the deployment's links.
        num_keys: Keys per path, at least 2 per shard; each shard gets
            ``num_keys // num_shards`` of them.  Each is accessed once — half
            of each shard's keys read, half written, in a seeded shuffled
            order — so a server that breaks the protocol for a *second*
            access to a key is still judged.
        seed: Workload order and simulator seed.
        paths: Which of :data:`PATHS` to drive.
    """
    if links is None:
        links = record_links(deployment)
    shards = deployment.num_shards
    if len(links) != shards:
        raise ConfigurationError(f"{len(links)} recording links for {shards} shards")
    unknown = set(paths) - set(PATHS)
    if unknown or not paths:
        raise ConfigurationError(f"paths must be drawn from {PATHS}, got {paths}")
    quota = num_keys // shards
    if quota < 2:
        raise ConfigurationError(
            f"every shard needs 2 of the {num_keys} keys of a path; raise num_keys"
        )
    rng = random.Random(seed)
    value_len = deployment.config.value_len
    workloads: dict[str, list[Request]] = {}
    for path in paths:
        # Where a name lands depends on the keychain, so draw names until
        # every shard holds its quota: any num_keys >= 2 * shards runs.
        by_shard: dict[int, list[str]] = {shard: [] for shard in range(shards)}
        names = (f"audit-{path}-{i}" for i in itertools.count())
        while any(len(keys) < quota for keys in by_shard.values()):
            key = next(names)
            keys = by_shard[deployment.shard_of(key)]
            if len(keys) < quota:
                keys.append(key)
        requests = []
        for keys in by_shard.values():
            half = len(keys) // 2
            requests += [Request.read(key) for key in keys[:half]]
            requests += [
                Request.write(key, bytes([index % 256]) * value_len)
                for index, key in enumerate(keys[half:])
            ]
        rng.shuffle(requests)
        workloads[path] = requests
    deployment.initialize(
        {r.key: bytes(value_len) for requests in workloads.values() for r in requests}
    )

    checks: list[Check] = []
    for path, requests in workloads.items():
        starts = [len(link.frames) for link in links]
        if path == "access":
            transcripts = [deployment.access(request) for request in requests]
        else:
            transcripts = getattr(deployment, path)(requests)
        frames = [link.frames[start:] for link, start in zip(links, starts)]
        checks += _judge(deployment, path, requests, transcripts, frames, seed)
    every = [r for requests in workloads.values() for r in requests]
    return AuditReport(
        protocol=deployment.name,
        num_shards=shards,
        num_reads=sum(r.op.is_read for r in every),
        num_writes=sum(r.op.is_write for r in every),
        checks=tuple(checks),
    )


# --------------------------------------------------------------------- #
# The deliberately leaky negative control
# --------------------------------------------------------------------- #


class LeakyLblServer(LblServer):
    """A *broken* LBL server that skips the label rewrite on reads.

    This reintroduces exactly the leak ORTOA closes: storage changes only on
    writes, so an adversary watching its own state recovers the operation
    type.  The op-type hint comes from :class:`LeakyLblOrtoa` out of band —
    a real server never has it; this double exists so the checker has a
    true positive.
    """

    def __init__(self) -> None:
        super().__init__()
        self.current_op: Operation | None = None

    def _commit_many(self, items) -> None:
        if self.current_op is not None and self.current_op.is_read:
            return  # leak: reads leave storage untouched
        super()._commit_many(items)


class LeakyLblOrtoa(LblOrtoa):
    """LBL-ORTOA whose in-process shard serves from a :class:`LeakyLblServer`
    (negative control; only :meth:`access` hands it the op)."""

    name = "lbl-ortoa-leaky"

    def __init__(self, config: StoreConfig, keychain: KeyChain | None = None) -> None:
        super().__init__(config, keychain=keychain)
        self.server = LeakyLblServer()
        self.clients[0].dispatcher.lbl = self.server

    def access(self, request: Request):
        """Serve one access, telling the server its op out of band."""
        self.server.current_op = request.op
        try:
            return super().access(request)
        finally:
            self.server.current_op = None


__all__ = [
    "PATHS",
    "FALSE_ALARM_RATE",
    "Frame",
    "RecordingLink",
    "record_links",
    "Check",
    "AuditReport",
    "shape_identity",
    "shape_fingerprint",
    "size_advantage",
    "histogram_distance",
    "histogram_bound",
    "fresh_rows",
    "judge_requests",
    "run_audit",
    "LeakyLblServer",
    "LeakyLblOrtoa",
]
