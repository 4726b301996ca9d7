"""Obliviousness auditing: the paper's §5 security argument as a runnable check.

ORTOA's claim is that the *server's view* of an access is identical for GETs
and PUTs.  The instrumented :class:`~repro.core.lbl.server.LblServer` emits
one :data:`~repro.core.lbl.server.SERVER_SPAN` span per request describing
everything the untrusted party could observe — table shapes, ciphertext
bytes, decryption attempts and failures, opened labels, storage rewrites.
This module pairs that span stream with the ground-truth operation sequence
(known only on the trusted side) and checks, feature by feature, that the
two per-operation distributions match:

* **deterministic features** (table shape, bytes, rewrites) must have
  *identical supports* — any value seen only for reads or only for writes is
  a distinguisher;
* **stochastic features** (decryption attempts under the shuffled base
  protocol, where the opening position is uniform) are compared by mean with
  a configurable relative tolerance, plus a support-range check.

:class:`LeakyLblOrtoa` is the deliberate negative control: its server skips
the storage rewrite on reads — precisely the §5.1 "only writes change the
stored ciphertext" leak ORTOA exists to close — and the auditor must flag it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.lbl import LblOrtoa
from repro.core.lbl.server import SERVER_SPAN, LblServer
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError
from repro.obs import _state
from repro.obs import ledger as _ledger
from repro.obs.trace import Span, TRACER
from repro.types import Operation, Request, StoreConfig

#: Deterministic server-visible features: the value sets must coincide.
EXACT_FEATURES = (
    "groups",
    "table_entries",
    "ciphertext_bytes",
    "opened_labels",
    "labels_rewritten",
    "storage_writes",
)
#: Stochastic server-visible features: compared by mean within a tolerance.
MEAN_FEATURES = ("decrypt_attempts", "failed_decrypts")
#: Per-request resource-ledger features (wire bytes per frame/direction and
#: crypto-primitive counts, frozen to sorted item tuples).  Deterministic:
#: a GET and a PUT must burn byte-for-byte and call-for-call identical
#: resources, or the expenditure itself is a distinguisher.
LEDGER_FEATURES = ("ledger.wire", "ledger.ops")


#: Ops excluded from the exact ledger comparison: the shuffled base
#: protocol's trial decryptions stop after a uniformly random number of
#: attempts, so these are stochastic per access.  They are audited anyway,
#: by mean, via the server span's ``decrypt_attempts``/``failed_decrypts``.
_STOCHASTIC_OPS = frozenset({"aead.decrypts", "aead.decrypt_failures"})


def _ledger_features(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Freeze a :meth:`LedgerRow.snapshot` into hashable audit features."""
    return {
        "ledger.wire": tuple(sorted(snapshot["wire"].items())),
        "ledger.ops": tuple(
            sorted(
                (name, count)
                for name, count in snapshot["ops"].items()
                if name not in _STOCHASTIC_OPS
            )
        ),
    }


@dataclass(frozen=True, slots=True)
class ServerObservation:
    """One request as the untrusted server saw it, tagged with ground truth.

    ``op`` is *not* part of the server's view — it is the trusted side's
    knowledge of what it asked for, used only to partition the observations.
    """

    op: Operation
    features: dict[str, Any]


@dataclass(frozen=True, slots=True)
class AuditCheck:
    """The verdict on one server-visible feature."""

    feature: str
    passed: bool
    detail: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of this check."""
        return {"feature": self.feature, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class AuditReport:
    """The auditor's overall verdict plus per-feature evidence."""

    passed: bool
    num_reads: int
    num_writes: int
    checks: tuple[AuditCheck, ...] = field(default=())

    @property
    def failures(self) -> list[AuditCheck]:
        """The checks that found a read/write distinguisher."""
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the report, checks included."""
        return {
            "passed": self.passed,
            "num_reads": self.num_reads,
            "num_writes": self.num_writes,
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary(self) -> str:
        """One-paragraph human-readable verdict."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"obliviousness audit: {verdict} "
            f"({self.num_reads} reads vs {self.num_writes} writes observed)"
        ]
        for check in self.checks:
            mark = "ok " if check.passed else "LEAK"
            lines.append(f"  [{mark}] {check.feature}: {check.detail}")
        return "\n".join(lines)


def observations_from_spans(
    spans: Sequence[Span], ops: Sequence[Operation]
) -> list[ServerObservation]:
    """Pair the i-th server span with the i-th issued operation.

    The pairing is positional because accesses are processed in issue order
    (both in-process and over the serialized TCP dispatch path).
    """
    if len(spans) != len(ops):
        raise ConfigurationError(
            f"{len(spans)} server observations for {len(ops)} operations — "
            "was capture enabled for the whole run?"
        )
    return [
        ServerObservation(op, dict(span.attributes)) for span, op in zip(spans, ops)
    ]


def _feature_values(
    observations: Iterable[ServerObservation], feature: str
) -> list[Any]:
    return [obs.features[feature] for obs in observations if feature in obs.features]


def audit_observations(
    observations: Sequence[ServerObservation],
    *,
    mean_tolerance: float = 0.15,
) -> AuditReport:
    """Compare the read-side and write-side server views feature by feature.

    Args:
        observations: Ground-truth-tagged server observations of one run,
            covering at least one read and one write.
        mean_tolerance: Maximum allowed relative difference of per-op means
            for the stochastic features (the shuffled base protocol stops
            after a uniformly distributed number of decryption attempts, so
            finite samples never match exactly).

    Returns:
        An :class:`AuditReport`; ``passed`` is True iff no feature
        distinguishes reads from writes.
    """
    reads = [o for o in observations if o.op.is_read]
    writes = [o for o in observations if o.op.is_write]
    if not reads or not writes:
        raise ConfigurationError(
            "audit needs at least one read and one write observation"
        )

    checks: list[AuditCheck] = []
    for feature in EXACT_FEATURES + LEDGER_FEATURES:
        read_support = set(_feature_values(reads, feature))
        write_support = set(_feature_values(writes, feature))
        if not read_support and not write_support:
            continue
        if read_support == write_support:
            checks.append(
                AuditCheck(feature, True, f"identical support {sorted(read_support)}")
            )
        else:
            checks.append(
                AuditCheck(
                    feature,
                    False,
                    f"reads saw {sorted(read_support)}, writes saw "
                    f"{sorted(write_support)}",
                )
            )

    for feature in MEAN_FEATURES:
        read_values = _feature_values(reads, feature)
        write_values = _feature_values(writes, feature)
        if not read_values or not write_values:
            continue
        read_mean = sum(read_values) / len(read_values)
        write_mean = sum(write_values) / len(write_values)
        scale = max(abs(read_mean), abs(write_mean))
        if scale == 0:
            passed = read_mean == write_mean
            detail = "both identically zero"
        else:
            relative = abs(read_mean - write_mean) / scale
            passed = relative <= mean_tolerance
            detail = (
                f"read mean {read_mean:.2f} vs write mean {write_mean:.2f} "
                f"(relative diff {relative:.1%}, tolerance {mean_tolerance:.0%})"
            )
        checks.append(AuditCheck(feature, passed, detail))

    return AuditReport(
        passed=all(c.passed for c in checks),
        num_reads=len(reads),
        num_writes=len(writes),
        checks=tuple(checks),
    )


def run_audit(
    protocol: LblOrtoa,
    *,
    num_keys: int = 32,
    seed: int = 0,
    mean_tolerance: float = 0.15,
) -> AuditReport:
    """Drive a balanced read/write workload and audit the server's view.

    The protocol must be freshly constructed (uninitialized).  Each of the
    ``num_keys`` objects is accessed exactly once — half reads, half writes,
    in a seeded shuffled order — so the audit also holds for deliberately
    broken servers whose skipped rewrites would desynchronize any *second*
    access to the same key.

    Capture is enabled (and the span/metric state reset) for the duration;
    the previous enabled/disabled state is restored afterwards.
    """
    if num_keys < 2:
        raise ConfigurationError("audit workload needs at least 2 keys")
    rng = random.Random(seed)
    value_len = protocol.config.value_len
    keys = [f"audit-{i}" for i in range(num_keys)]
    requests = [
        Request.read(key)
        if index < num_keys // 2
        else Request.write(key, bytes([index % 256]) * value_len)
        for index, key in enumerate(keys)
    ]
    rng.shuffle(requests)

    previous = _state.enabled
    TRACER.reset()
    _state.enabled = True
    row_snapshots: list[dict[str, Any]] = []
    try:
        protocol.initialize({key: bytes(value_len) for key in keys})
        before = len(TRACER.spans(SERVER_SPAN))
        for request in requests:
            with _ledger.track(label=f"audit:{request.key}") as row:
                protocol.access(request)
            row_snapshots.append(row.snapshot())
        spans = TRACER.spans(SERVER_SPAN)[before:]
    finally:
        _state.enabled = previous

    observations = observations_from_spans(spans, [r.op for r in requests])
    for observation, snapshot in zip(observations, row_snapshots):
        observation.features.update(_ledger_features(snapshot))
    return audit_observations(observations, mean_tolerance=mean_tolerance)


# --------------------------------------------------------------------- #
# Sharded / pipelined deployments
# --------------------------------------------------------------------- #


def observations_by_fingerprint(
    spans: Sequence[Span], op_by_fingerprint: dict[str, Operation]
) -> list[ServerObservation]:
    """Pair server spans with ground truth by the ``key_fingerprint`` attribute.

    Positional pairing (:func:`observations_from_spans`) assumes spans finish
    in issue order, which a pipelined deployment's server worker pool does
    not guarantee.  Each span instead carries the prefix of the PRF-encoded
    key it served — information the server already holds as its storage key —
    and, because the audit workload touches every key exactly once, that
    prefix identifies the operation unambiguously.
    """
    if len(spans) != len(op_by_fingerprint):
        raise ConfigurationError(
            f"{len(spans)} server observations for "
            f"{len(op_by_fingerprint)} operations — was capture enabled for "
            "the whole run?"
        )
    observations = []
    for span in spans:
        fingerprint = span.attributes.get("key_fingerprint")
        op = op_by_fingerprint.get(fingerprint)
        if op is None:
            raise ConfigurationError(
                f"server span carries unknown key fingerprint {fingerprint!r}"
            )
        observations.append(ServerObservation(op, dict(span.attributes)))
    return observations


@dataclass(frozen=True, slots=True)
class ShardedAuditReport:
    """Audit verdicts for a sharded deployment: overall and per shard.

    Each shard's server sees only its own slice of the workload, so a
    protocol could pass in aggregate while one shard's view distinguishes
    reads from writes.  ``passed`` therefore requires the pooled view *and*
    every per-shard view to pass.
    """

    overall: AuditReport
    per_shard: tuple[AuditReport, ...]

    @property
    def passed(self) -> bool:
        """True iff the pooled view and every shard's view pass."""
        return self.overall.passed and all(r.passed for r in self.per_shard)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form: overall report plus one entry per shard."""
        return {
            "passed": self.passed,
            "overall": self.overall.to_dict(),
            "per_shard": [r.to_dict() for r in self.per_shard],
        }

    def summary(self) -> str:
        """Human-readable verdict, shard by shard."""
        lines = [
            f"sharded obliviousness audit over {len(self.per_shard)} shards: "
            + ("PASS" if self.passed else "FAIL"),
            "overall (all shards pooled):",
            _indent(self.overall.summary()),
        ]
        for shard, report in enumerate(self.per_shard):
            lines.append(f"shard {shard}:")
            lines.append(_indent(report.summary()))
        return "\n".join(lines)


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def run_sharded_audit(
    deployment,
    *,
    num_keys: int = 32,
    seed: int = 0,
    mean_tolerance: float = 0.15,
    pipeline_depth: int | None = None,
) -> ShardedAuditReport:
    """Audit a sharded, pipelined deployment's per-shard server views.

    The deployment must be a freshly constructed (uninitialized)
    :class:`~repro.core.sharded.ShardedLblDeployment` whose shard servers
    run *in this process* (e.g. a thread-backed
    :class:`~repro.transport.cluster.ShardCluster`) so their spans land in
    this process's tracer.

    The workload routes keys to shards first and then balances reads and
    writes *within each shard*, so every shard's view contains both
    operation types.  Accesses go through :meth:`access_pipelined`, the
    path whose out-of-order completion the fingerprint pairing exists for.
    """
    if num_keys < 2 * deployment.num_shards:
        raise ConfigurationError(
            f"sharded audit needs >= 2 keys per shard "
            f"({deployment.num_shards} shards, got {num_keys} keys)"
        )
    rng = random.Random(seed)
    value_len = deployment.config.value_len
    keys = [f"audit-{i}" for i in range(num_keys)]

    by_shard: dict[int, list[str]] = {}
    for key in keys:
        by_shard.setdefault(deployment.shard_of(key), []).append(key)
    for shard in range(deployment.num_shards):
        if len(by_shard.get(shard, [])) < 2:
            raise ConfigurationError(
                f"shard {shard} drew fewer than 2 audit keys; "
                "raise num_keys or change the seed"
            )

    requests = []
    for shard_keys in by_shard.values():
        for index, key in enumerate(shard_keys):
            if index < len(shard_keys) // 2:
                requests.append(Request.read(key))
            else:
                requests.append(
                    Request.write(key, bytes([index % 256]) * value_len)
                )
    rng.shuffle(requests)

    fingerprint_of = {
        key: deployment.encoded_key(key).hex()[:16] for key in keys
    }
    op_by_fingerprint = {fingerprint_of[r.key]: r.op for r in requests}
    shard_by_fingerprint = {
        fingerprint_of[key]: deployment.shard_of(key) for key in keys
    }

    previous = _state.enabled
    TRACER.reset()
    _ledger.reset()
    _state.enabled = True
    try:
        deployment.initialize({key: bytes(value_len) for key in keys})
        before = len(TRACER.spans(SERVER_SPAN))
        deployment.access_pipelined(requests, depth=pipeline_depth)
        spans = TRACER.spans(SERVER_SPAN)[before:]
    finally:
        _state.enabled = previous

    # The pipelined path retires one client-side ledger row per request,
    # labeled with its key; attach each row's resource totals as audit
    # features so a read/write asymmetry in *spending* is also flagged.
    row_by_key = {
        row.label.split(":", 1)[1]: row.snapshot()
        for row in _ledger.completed_rows()
        if row.label.startswith("pipelined:")
    }
    key_by_fingerprint = {fp: key for key, fp in fingerprint_of.items()}

    observations = observations_by_fingerprint(spans, op_by_fingerprint)
    for observation, span in zip(observations, spans):
        key = key_by_fingerprint[span.attributes["key_fingerprint"]]
        snapshot = row_by_key.get(key)
        if snapshot is not None:
            observation.features.update(_ledger_features(snapshot))
    overall = audit_observations(observations, mean_tolerance=mean_tolerance)
    per_shard = []
    for shard in range(deployment.num_shards):
        shard_obs = [
            obs
            for obs, span in zip(observations, spans)
            if shard_by_fingerprint[span.attributes["key_fingerprint"]] == shard
        ]
        per_shard.append(
            audit_observations(shard_obs, mean_tolerance=mean_tolerance)
        )
    return ShardedAuditReport(overall=overall, per_shard=tuple(per_shard))


# --------------------------------------------------------------------- #
# The deliberately leaky negative control
# --------------------------------------------------------------------- #


class LeakyLblServer(LblServer):
    """A *broken* LBL server that skips the label rewrite on reads.

    This reintroduces exactly the leak ORTOA closes: storage changes only on
    writes, so an adversary watching its own state recovers the operation
    type.  The op-type hint comes from :class:`LeakyLblOrtoa` out of band —
    a real server never has it; this double exists solely so audit tests
    have a true positive.
    """

    def __init__(self, point_and_permute: bool = False) -> None:
        super().__init__(point_and_permute)
        self.current_op: Operation | None = None

    def _commit_many(self, items) -> list[bool]:
        if self.current_op is not None and self.current_op.is_read:
            return [False] * len(items)  # leak: reads leave storage untouched
        return super()._commit_many(items)


class LeakyLblOrtoa(LblOrtoa):
    """LBL-ORTOA whose in-process shard serves from a :class:`LeakyLblServer`
    (negative control)."""

    name = "lbl-ortoa-leaky"

    def __init__(
        self,
        config: StoreConfig,
        keychain: KeyChain | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(config, keychain=keychain, rng=rng)
        self.server = LeakyLblServer(point_and_permute=config.point_and_permute)
        self.clients[0].dispatcher.lbl = self.server

    def access(self, request: Request):
        self.server.current_op = request.op
        try:
            return super().access(request)
        finally:
            self.server.current_op = None


__all__ = [
    "ServerObservation",
    "AuditCheck",
    "AuditReport",
    "observations_from_spans",
    "observations_by_fingerprint",
    "audit_observations",
    "run_audit",
    "run_sharded_audit",
    "ShardedAuditReport",
    "LeakyLblServer",
    "LeakyLblOrtoa",
    "EXACT_FEATURES",
    "MEAN_FEATURES",
    "LEDGER_FEATURES",
]
