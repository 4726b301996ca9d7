"""Closed-form resource model for LBL-ORTOA accesses (paper §6.3.3).

The ledger (:mod:`repro.obs.ledger`) *measures* what an access costs — bytes
on the wire, PRF calls, the SHAKE-256, SHA-256 and AES blocks behind them, AEAD
operations.  This module *predicts* the same quantities symbolically, as
functions of the deployment parameters: value size, label width and the
§10.1 grouping factor ``y`` (the tables are §10.2 rows).  The two views
are kept in lockstep by tier-1 tests that assert ``model == ledger``
exactly — not approximately — for GET and PUT, which is what makes the
capacity planner
(:func:`plan_capacity`) and the dollar estimate
(:func:`repro.analysis.cost.estimate_lbl_cost`) trustworthy: their inputs
are wire-validated formulas, not hand-derived constants.

Notation (matching the paper): ``G`` groups of ``y`` bits each
(``G = ceil(8·value_len / y)``), tables of ``T = 2^y`` rows, labels
of ``L = label_bits / 8`` bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.crypto.labels import LabelCodec
from repro.crypto.prf import encode_components, hmac_compressions
from repro.errors import ConfigurationError
from repro.types import StoreConfig

#: Fixed wire widths, pinned against the implementation by
#: ``tests/test_costmodel.py``.
ENCODED_KEY_BYTES = 16  # KeyChain.key_encoding_prf.out_bytes
ROW_CHECK_BYTES = 16  # check block of each of group 0's rows (crypto.rows)
ROW_NONCE_BYTES = 16  # per-request row nonce (crypto.rows)
FIELD_LEN_BYTES = 4  # length prefix per field (core.messages)
TAG_BYTES = 1  # message tag (core.messages)
SHAPE_BYTES = 4  # request header: table_size u16 + entry_len u16
SLOT_BITS_BYTES = 2  # response header: slot_bits u16
REPLY_DIGEST_BYTES = 16  # response digest of the opened labels (crypto.labels)
FRAME_LEN_BYTES = 4  # transport frame length prefix (transport.framing)
MUX_HEADER_BYTES = 9  # plain mux: tag + 8-byte request id
MUX_TRACED_HEADER_BYTES = 25  # mux + 16-byte trace context


@dataclass(frozen=True)
class LblCostModel:
    """Symbolic per-access cost of one LBL-ORTOA deployment.

    The parameters must describe a deployment :class:`StoreConfig` accepts.

    Args:
        value_len: Fixed plaintext length in bytes.
        group_bits: ``y`` — plaintext bits per label (§10.1).
        label_bits: Label PRF width ``r`` in bits.
        key: The datastore key the access touches.  PRF messages embed the
            key, so block counts depend (mildly) on its length; the default
            matches the validation tests.
        counter: The access-counter epoch the access consumes.  Encoded
            integers grow with magnitude, so block counts depend on the
            epoch too — byte-exactness demands it.
    """

    value_len: int
    group_bits: int = 1
    label_bits: int = 128
    key: str = "k"
    counter: int = 0
    _codec: LabelCodec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        StoreConfig(
            value_len=self.value_len,
            label_bits=self.label_bits,
            group_bits=self.group_bits,
        )
        # The codec is used purely for its shape and message-length
        # arithmetic (epoch_ops); the key material is irrelevant.
        object.__setattr__(
            self,
            "_codec",
            LabelCodec(
                hashlib.shake_256(),
                bytes(16),
                label_len=self.label_bits // 8,
                value_len=self.value_len,
                group_bits=self.group_bits,
            ),
        )

    @classmethod
    def from_config(
        cls,
        config: StoreConfig,
        *,
        key: str = "k",
        counter: int = 0,
    ) -> "LblCostModel":
        """Model the access an existing :class:`StoreConfig` would cost."""
        return cls(
            value_len=config.value_len,
            group_bits=config.group_bits,
            label_bits=config.label_bits,
            key=key,
            counter=counter,
        )

    def at(self, *, key: str | None = None, counter: int | None = None) -> "LblCostModel":
        """The same deployment modeled at a different key/epoch."""
        return replace(
            self,
            key=self.key if key is None else key,
            counter=self.counter if counter is None else counter,
        )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #

    @property
    def num_groups(self) -> int:
        """``G = ceil(8·value_len / y)``."""
        return self._codec.num_groups

    @property
    def table_size(self) -> int:
        """``T = 2^y`` rows per group table."""
        return self._codec.table_size

    @property
    def label_len(self) -> int:
        """``L`` — label width in bytes."""
        return self.label_bits // 8

    # ------------------------------------------------------------------ #
    # Wire bytes
    # ------------------------------------------------------------------ #

    @property
    def entry_len(self) -> int:
        """One table entry: a §10.2 row, the sealed label alone (its slot
        rides in its low bits; group 0's rows carry a
        :data:`ROW_CHECK_BYTES` check block more)."""
        return self.label_len

    @property
    def request_bytes(self) -> int:
        """Serialized :class:`~repro.core.messages.LblAccessRequest`.

        Tag + three length-prefixed fields: the shape header (carrying the
        row nonce), the encoded key, and the slab of ``G·T`` entries and
        group 0's ``T`` check blocks — the paper's ``2^y · E_len · t/y``
        bits plus ``16·T`` check bytes and 49 bytes of tag, length prefixes,
        shape, nonce and key.
        """
        return (
            TAG_BYTES
            + 3 * FIELD_LEN_BYTES
            + SHAPE_BYTES
            + ROW_NONCE_BYTES
            + ENCODED_KEY_BYTES
            + self.num_groups * self.table_size * self.entry_len
            + self.table_size * ROW_CHECK_BYTES
        )

    @property
    def response_bytes(self) -> int:
        """Serialized :class:`~repro.core.messages.LblAccessResponse`:
        tag + slot width + ``G`` slots packed at ``y`` bits
        (``ceil(G·y / 8)`` bytes) + the 16-byte digest of the opened labels."""
        return (
            TAG_BYTES
            + SLOT_BITS_BYTES
            + -(-self.num_groups * self.group_bits // 8)
            + REPLY_DIGEST_BYTES
        )

    @property
    def seal_blocks(self) -> int:
        """AES blocks behind one request's rows (:mod:`repro.crypto.rows`):
        the ``b + 1`` tweak blocks back through ``K_L``, then the stream of
        ``G·T·b`` row triples and ``T`` check triples (``b = ⌈L/16⌉``)
        through one ECB call and two CBC passes — nine blocks per triple."""
        blocks = self._codec.label_blocks
        return blocks + 1 + 9 * (self.num_groups * self.table_size * blocks + self.table_size)

    @property
    def open_blocks(self) -> int:
        """AES blocks behind the server's open: two CBC passes over ``G·b``
        row triples and the one checked row's triple."""
        return 6 * (self.num_groups * self._codec.label_blocks + 1)

    @property
    def bytes_per_access(self) -> int:
        """Request plus response, unframed (the in-process ``local`` view)."""
        return self.request_bytes + self.response_bytes

    def framed_request_bytes(self, traced: bool = True) -> int:
        """Request as it crosses a socket: frame length + mux header + body.

        With observability on, client frames carry the 16-byte trace
        context (``traced=True``); server replies never do.
        """
        header = MUX_TRACED_HEADER_BYTES if traced else MUX_HEADER_BYTES
        return FRAME_LEN_BYTES + header + self.request_bytes

    def framed_response_bytes(self) -> int:
        """Response as it crosses a socket (plain mux header)."""
        return FRAME_LEN_BYTES + MUX_HEADER_BYTES + self.response_bytes

    def framed_bytes_per_access(self, traced: bool = True) -> int:
        """Total socket bytes of one pipelined access, both directions."""
        return self.framed_request_bytes(traced) + self.framed_response_bytes()

    def batch_request_bytes(self, n: int, traced: bool = True) -> int:
        """``n`` accesses to one shard in a single batch frame."""
        body = TAG_BYTES + n * (FIELD_LEN_BYTES + self.request_bytes)
        header = MUX_TRACED_HEADER_BYTES if traced else MUX_HEADER_BYTES
        return FRAME_LEN_BYTES + header + body

    def batch_response_bytes(self, n: int) -> int:
        """The matching batch reply frame."""
        body = TAG_BYTES + n * (FIELD_LEN_BYTES + self.response_bytes)
        return FRAME_LEN_BYTES + MUX_HEADER_BYTES + body

    @property
    def storage_bytes_per_object(self) -> int:
        """Server-resident bytes per object: encoded key + ``G`` labels
        (each naming its next slot in its low bits)."""
        return ENCODED_KEY_BYTES + self.num_groups * self.label_len

    # ------------------------------------------------------------------ #
    # Crypto ops
    # ------------------------------------------------------------------ #

    @property
    def _encode_key_cost(self) -> tuple[int, int]:
        """``(calls, compressions)`` of ``KeyChain.encode_key`` per access."""
        message_len = 4 + len(encode_components("key-encoding", self.key))
        return 1, hmac_compressions(message_len, ENCODED_KEY_BYTES)

    def ops(self, include_server: bool = True) -> dict[str, int]:
        """Predicted :mod:`repro.obs.ledger` op counts for one cold access.

        Identical for GET and PUT by construction — the whole point of the
        protocol — and the obliviousness auditor asserts the ledger agrees.
        Covers the cold path (no label-cache hit; the cache's savings are
        metered as ``cache.hits``, not modeled here) with the epoch
        finalized from the proxy's in-flight table: ``finalize`` decodes
        against the ``(W, offsets)`` ``prepare`` kept, so it predicts no PRF
        call and all of the PRF work is ``prepare``'s.  (An epoch that fell
        out of that table — recovery, rollback, eviction — costs
        ``finalize`` one epoch of :meth:`LabelCodec.epochs` on top.)

        ``prf.calls`` are calls actually made: one XOF call per epoch
        derived plus the HMAC key encoding, whose SHA-256 work is
        ``sha256.compressions``; ``shake256.blocks`` are the 136-byte blocks
        the XOF calls absorb and squeeze (16 bytes, an epoch's whitening);
        ``aes.blocks`` are every AES block: each epoch's offset run
        (``ceil(G / 16)``), the rows' :attr:`seal_blocks` in ``prepare`` —
        their ECB call under ``K_L`` derives the old epoch at every slot and
        the new epoch at every row's next slot — and the ``G`` labels the
        reply selects in ``finalize`` (``ceil(L / 16)`` blocks each), plus
        the server's :attr:`open_blocks`.

        Args:
            include_server: Include the server-side opens: exactly one row
                per group.  A process-backed shard meters those in its own
                process's ledger, so comparisons against the proxy
                process's totals pass ``False``.
        """
        # ``prepare`` derives the old and the new epoch once each.
        codec = self._codec
        calls, compressions = self._encode_key_cost
        epochs = [codec.epoch_ops(self.key, ct) for ct in (self.counter, self.counter + 1)]
        ops = {
            "prf.calls": calls + sum(epoch["prf.calls"] for epoch in epochs),
            "sha256.compressions": compressions,
            "shake256.blocks": sum(epoch["shake256.blocks"] for epoch in epochs),
            "aead.encrypts": self.num_groups * self.table_size,
        }
        ops["aes.blocks"] = (
            sum(epoch["aes.blocks"] for epoch in epochs)
            + self.seal_blocks
            + self.num_groups * codec.label_blocks
        )
        if include_server:
            ops["aead.decrypts"] = self.num_groups
            ops["aes.blocks"] += self.open_blocks
        return ops

    def proxy_hash_blocks(self) -> int:
        """Primitive blocks the proxy computes per access: the XOF and AES
        blocks of its epochs and labels, the key encoding, and every table
        entry it builds — the unit :func:`plan_capacity` prices proxy CPU in."""
        ops = self.ops(include_server=False)
        return ops["shake256.blocks"] + ops["sha256.compressions"] + ops["aes.blocks"]


# --------------------------------------------------------------------- #
# Capacity planning
# --------------------------------------------------------------------- #

#: Default planner throughput assumptions.  Both are deliberately explicit
#: (and overridable) inputs, surfaced in the plan's ``assumptions`` — the
#: model makes bytes and primitive blocks exact, while sustained rates are
#: hardware-dependent calibration points.  The block rate is what one core
#: of the ``bench/`` host sustains through the library calls and the Python
#: around them: 23,804 blocks (4 SHAKE-256 + 2 SHA-256 + 80 offset AES +
#: 23,078 table AES + 640 label AES) in the ≈ 0.28 ms ``prepare`` +
#: ``finalize`` of one paper-point access (``bench/run.py --trace 1``:
#: 0.219 + 0.057 ms).
DEFAULT_SHARD_OPS_PER_SEC = 2_000.0
DEFAULT_COMPRESSIONS_PER_CORE_PER_SEC = 86_200_000.0
DEFAULT_TARGET_UTILIZATION = 0.6

#: Server-side calibration points.  One designated row open is six AES
#: blocks of two CBC passes, so a server core sustains far more opens/s
#: than accesses/s — 640 in ≈ 0.16 ms on the ``bench/`` host, picking the
#: rows out of the slab included; the per-access overhead is the storage
#: get/put round trip and the dispatch around the opens.
DEFAULT_SERVER_OPENS_PER_SEC = 4_000_000.0
DEFAULT_SERVER_OVERHEAD_SECONDS = 150e-6


@dataclass(frozen=True, slots=True)
class CapacityPlan:
    """Output of :func:`plan_capacity` — deployment sizing + projections."""

    users: int
    ops_per_user_per_day: float
    ops_per_second: float
    bytes_per_access: int
    compressions_per_access: int
    shards: int
    cpu_cores: int
    network_mb_per_second: float
    storage_gb: float
    projected_p99_ms: float
    dollars_per_day: float
    assumptions: dict

    def as_dict(self) -> dict:
        """JSON-ready form (the planner report artifact)."""
        return {
            "users": self.users,
            "ops_per_user_per_day": self.ops_per_user_per_day,
            "ops_per_second": round(self.ops_per_second, 3),
            "bytes_per_access": self.bytes_per_access,
            "compressions_per_access": self.compressions_per_access,
            "shards": self.shards,
            "cpu_cores": self.cpu_cores,
            "network_mb_per_second": round(self.network_mb_per_second, 3),
            "storage_gb": round(self.storage_gb, 3),
            "projected_p99_ms": round(self.projected_p99_ms, 3),
            "dollars_per_day": round(self.dollars_per_day, 6),
            "assumptions": self.assumptions,
        }


def plan_capacity(
    users: int,
    ops_per_user_per_day: float,
    model: LblCostModel,
    *,
    num_objects: int | None = None,
    shard_ops_per_sec: float = DEFAULT_SHARD_OPS_PER_SEC,
    compressions_per_core_per_sec: float = DEFAULT_COMPRESSIONS_PER_CORE_PER_SEC,
    target_utilization: float = DEFAULT_TARGET_UTILIZATION,
    server_opens_per_sec: float | None = None,
    server_overhead_seconds: float | None = None,
    prices=None,
) -> CapacityPlan:
    """Size a deployment for ``users`` issuing ``ops_per_user_per_day`` each.

    Bytes and primitive blocks per access come from the wire-validated
    ``model``; the sustained-rate assumptions (per-shard op rate, per-core
    block rate, target utilization) are explicit inputs echoed into
    the plan.  The p99 projection uses the standard M/M/1 tail
    ``p99 ≈ service_time · ln(100) / (1 − ρ)`` at the planned utilization —
    a deliberately simple queueing bound, stated as such.

    Proxy CPU per access is the hashing term the model validates
    (:meth:`LblCostModel.proxy_hash_blocks` over
    ``compressions_per_core_per_sec``); the server adds its ``G`` designated
    opens (``opens / server_opens_per_sec``) and a fixed per-access
    overhead.

    Args:
        users: Active user count.
        ops_per_user_per_day: Accesses per user per day.
        model: The deployment's cost model.
        num_objects: Stored objects (defaults to one per user).
        shard_ops_per_sec: Sustained accesses one shard serves.
        compressions_per_core_per_sec: Sustained rate of one proxy core in
            primitive blocks (SHAKE-256, SHA-256 and AES alike), Python
            call overhead included.
        target_utilization: Planned peak utilization of shards and cores.
        server_opens_per_sec: Sustained designated-pair AEAD opens one
            server core performs (default
            :data:`DEFAULT_SERVER_OPENS_PER_SEC`).
        server_overhead_seconds: Fixed server cost of one access beyond its
            opens — the storage get/put round trip and dispatch (default
            :data:`DEFAULT_SERVER_OVERHEAD_SECONDS`).
        prices: :class:`repro.analysis.cost.CloudPrices` override.
    """
    from repro.analysis.cost import CloudPrices

    if users < 1 or ops_per_user_per_day <= 0:
        raise ConfigurationError("users and ops_per_user_per_day must be positive")
    if not 0 < target_utilization < 1:
        raise ConfigurationError("target_utilization must be in (0, 1)")
    if server_opens_per_sec is None:
        server_opens_per_sec = DEFAULT_SERVER_OPENS_PER_SEC
    if server_overhead_seconds is None:
        server_overhead_seconds = DEFAULT_SERVER_OVERHEAD_SECONDS
    if server_opens_per_sec <= 0:
        raise ConfigurationError("server_opens_per_sec must be > 0")
    if server_overhead_seconds < 0:
        raise ConfigurationError("server_overhead_seconds must be >= 0")
    prices = prices or CloudPrices()
    if num_objects is None:
        num_objects = users

    ops_per_day = users * ops_per_user_per_day
    ops_per_second = ops_per_day / 86_400.0
    bytes_per_access = model.framed_bytes_per_access(traced=True)
    compressions = model.proxy_hash_blocks()
    server_opens = model.ops(include_server=True).get("aead.decrypts", 0)

    shards = max(
        1, int(-(-ops_per_second // (shard_ops_per_sec * target_utilization)))
    )
    cpu_seconds_per_access = (
        compressions / compressions_per_core_per_sec
        + server_opens / server_opens_per_sec
        + server_overhead_seconds
    )
    cpu_cores = max(
        1,
        int(
            -(-(ops_per_second * cpu_seconds_per_access) // target_utilization)
        ),
    )
    network_mb_per_second = ops_per_second * bytes_per_access / 1e6
    storage_gb = num_objects * model.storage_bytes_per_object / 1e9

    # M/M/1 tail at the planned utilization: service time is the per-access
    # CPU cost on one core; queueing inflates the tail by 1/(1-ρ).
    service_ms = cpu_seconds_per_access * 1_000.0
    projected_p99_ms = service_ms * 4.605 / (1.0 - target_utilization)

    network_gb_per_day = ops_per_day * bytes_per_access / 1e9
    dollars_per_day = (
        network_gb_per_day * prices.network_per_gb
        + storage_gb * prices.storage_per_gb_month / 30.0
        + ops_per_day / 1e6 * prices.invocations_per_million
        + ops_per_day * (service_ms / 100.0) * prices.cpu_per_100ms
    )

    return CapacityPlan(
        users=users,
        ops_per_user_per_day=ops_per_user_per_day,
        ops_per_second=ops_per_second,
        bytes_per_access=bytes_per_access,
        compressions_per_access=compressions,
        shards=shards,
        cpu_cores=cpu_cores,
        network_mb_per_second=network_mb_per_second,
        storage_gb=storage_gb,
        projected_p99_ms=projected_p99_ms,
        dollars_per_day=dollars_per_day,
        assumptions={
            "value_len": model.value_len,
            "group_bits": model.group_bits,
            "label_bits": model.label_bits,
            "num_objects": num_objects,
            "shard_ops_per_sec": shard_ops_per_sec,
            "compressions_per_core_per_sec": compressions_per_core_per_sec,
            "target_utilization": target_utilization,
            "server_opens_per_sec": server_opens_per_sec,
            "server_overhead_seconds": server_overhead_seconds,
            "p99_model": "M/M/1 tail: service_ms * ln(100) / (1 - utilization)",
        },
    )


# --------------------------------------------------------------------- #
# Model-vs-ledger validation
# --------------------------------------------------------------------- #


def run_model_check(
    value_sizes: "tuple[int, ...]" = (4, 8, 16),
    group_bits: int = 2,
) -> dict:
    """Replay GET and PUT in-process and diff the ledger against the model.

    The backbone of ``repro plan --check``: per value size it runs one GET
    and one PUT through a real :class:`~repro.core.lbl.LblOrtoa` deployment,
    twice, and compares the change in the process-wide ledger totals — ops
    *and* (unframed, in-process) wire bytes — to the model byte-for-byte.

    The ``"lockstep"`` cell is one :meth:`~repro.core.lbl.LblOrtoa.access`;
    the ``"batch"`` cell is one two-request
    :meth:`~repro.core.lbl.LblOrtoa.access_batch` (the access plus a read
    of a second key), whose totals must equal the sum of both requests'
    models: one server window opens both, exactly.

    Returns a JSON-ready report: ``{"ok": bool, "cases": [...]}`` where
    each case carries the expected/actual dicts and its own verdict.
    """
    from repro import obs
    from repro.core.lbl import LblOrtoa
    from repro.obs import ledger
    from repro.types import Request

    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}

    was_enabled = obs.is_enabled()
    obs.enable()
    cases = []
    try:
        for value_len in value_sizes:
            for path in ("lockstep", "batch"):
                config = StoreConfig(value_len=value_len, group_bits=group_bits)
                protocol = LblOrtoa(config)
                protocol.initialize({"k": b"\x01" * value_len, "d": b"\x01" * value_len})
                for op_name, request in (
                    ("get", Request.read("k")),
                    ("put", Request.write("k", b"\x02" * value_len)),
                ):
                    models = [
                        LblCostModel.from_config(
                            config, key=key, counter=protocol.proxy.counter(key)
                        )
                        for key in ("k", "d")
                    ]
                    ops_before = ledger.registry_ops_snapshot()
                    wire_before = ledger.registry_wire_snapshot()
                    if path == "batch":
                        protocol.access_batch([request, Request.read("d")])
                        frame = "batch"
                        sent = TAG_BYTES + sum(
                            FIELD_LEN_BYTES + m.request_bytes for m in models
                        )
                        received = TAG_BYTES + sum(
                            FIELD_LEN_BYTES + m.response_bytes for m in models
                        )
                    else:
                        protocol.access(request)
                        models = models[:1]
                        frame = "access"
                        sent, received = models[0].request_bytes, models[0].response_bytes
                    ops = delta(ops_before, ledger.registry_ops_snapshot())
                    wire = delta(wire_before, ledger.registry_wire_snapshot())
                    expected_ops: dict[str, int] = {}
                    for model in models:
                        for name, count in model.ops(include_server=True).items():
                            expected_ops[name] = expected_ops.get(name, 0) + count
                    actual_ops = {k: ops.get(k, 0) for k in expected_ops}
                    expected_wire = {f"{frame}.sent": sent, f"{frame}.received": received}
                    actual_wire = {
                        name.removeprefix("local."): nbytes for name, nbytes in wire.items()
                    }
                    cases.append(
                        {
                            "value_len": value_len,
                            "path": path,
                            "op": op_name,
                            "ok": actual_ops == expected_ops and actual_wire == expected_wire,
                            "expected_ops": expected_ops,
                            "actual_ops": actual_ops,
                            "expected_wire": expected_wire,
                            "actual_wire": actual_wire,
                        }
                    )
    finally:
        if not was_enabled:
            obs.disable()
    return {"ok": all(case["ok"] for case in cases), "cases": cases}


__all__ = [
    "ENCODED_KEY_BYTES",
    "ROW_CHECK_BYTES",
    "ROW_NONCE_BYTES",
    "LblCostModel",
    "CapacityPlan",
    "plan_capacity",
    "run_model_check",
    "DEFAULT_SHARD_OPS_PER_SEC",
    "DEFAULT_COMPRESSIONS_PER_CORE_PER_SEC",
    "DEFAULT_TARGET_UTILIZATION",
    "DEFAULT_SERVER_OPENS_PER_SEC",
    "DEFAULT_SERVER_OVERHEAD_SECONDS",
]
