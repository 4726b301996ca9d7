"""Closed-form resource model for LBL-ORTOA accesses (paper §6.3.3).

The ledger (:mod:`repro.obs.ledger`) *measures* what an access costs — bytes
on the wire, PRF calls, the SHAKE-256 and SHA-256 blocks behind them, AEAD
operations.  This module *predicts* the same quantities symbolically, as
functions of the deployment parameters: value size, label width, the §10.1
grouping factor ``y`` and the §10.2 point-and-permute flag.  The two views
are kept in lockstep by tier-1 tests that assert ``model == ledger``
exactly — not approximately — for GET and PUT, which is what makes the
capacity planner
(:func:`plan_capacity`) and the dollar estimate
(:func:`repro.analysis.cost.estimate_lbl_cost`) trustworthy: their inputs
are wire-validated formulas, not hand-derived constants.

Notation (matching the paper): ``G`` groups of ``y`` bits each
(``G = ceil(8·value_len / y)``), tables of ``T = 2^y`` ciphertexts, labels
of ``L = label_bits / 8`` bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.crypto.labels import LabelCodec
from repro.crypto.prf import encode_components, hmac_compressions
from repro.crypto.rows import row_blocks
from repro.errors import ConfigurationError
from repro.types import StoreConfig

#: Fixed wire widths, pinned against the implementation by
#: ``tests/test_costmodel.py``.
ENCODED_KEY_BYTES = 16  # KeyChain.key_encoding_prf.out_bytes
AEAD_OVERHEAD_BYTES = 28  # 12-byte nonce + 16-byte tag (crypto.aead)
DECRYPT_INDEX_BYTES = 1  # point-and-permute slot byte (core.lbl.proxy)
ROW_CHECK_BYTES = 8  # zero check bytes of a point-and-permute row (crypto.rows)
ROW_NONCE_BYTES = 16  # per-request row nonce (crypto.rows)
FIELD_LEN_BYTES = 4  # length prefix per field (core.messages)
TAG_BYTES = 1  # message tag (core.messages)
SHAPE_BYTES = 4  # request header: table_size u16 + entry_len u16
LABEL_LEN_BYTES = 2  # response header: label_len u16
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
        point_and_permute: §10.2 — the server opens exactly one entry per
            group.
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
    point_and_permute: bool = False
    key: str = "k"
    counter: int = 0
    _codec: LabelCodec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        StoreConfig(
            value_len=self.value_len,
            label_bits=self.label_bits,
            group_bits=self.group_bits,
            point_and_permute=self.point_and_permute,
        )
        # The codec is used purely for its shape and message-length
        # arithmetic (epoch_blocks); the key material is irrelevant.
        object.__setattr__(
            self,
            "_codec",
            LabelCodec(
                hashlib.shake_256(),
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
            point_and_permute=config.point_and_permute,
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
        """``T = 2^y`` ciphertexts per group table."""
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
        """One table entry: a row ``label ‖ slot byte ‖ 8 check bytes`` under
        §10.2, an AEAD ciphertext ``nonce ‖ label ‖ tag`` in the base protocol."""
        if self.point_and_permute:
            return self.label_len + DECRYPT_INDEX_BYTES + ROW_CHECK_BYTES
        return AEAD_OVERHEAD_BYTES + self.label_len

    @property
    def request_bytes(self) -> int:
        """Serialized :class:`~repro.core.messages.LblAccessRequest`.

        Tag + three length-prefixed fields: the shape header (carrying the
        row nonce under §10.2), the encoded key, and the ``G·T``-entry slab
        — the paper's ``2^y · E_len · t/y`` bits plus 29 (45) bytes of framing.
        """
        header = SHAPE_BYTES + (ROW_NONCE_BYTES if self.point_and_permute else 0)
        return (
            TAG_BYTES
            + 3 * FIELD_LEN_BYTES
            + header
            + ENCODED_KEY_BYTES
            + self.num_groups * self.table_size * self.entry_len
        )

    @property
    def response_bytes(self) -> int:
        """Serialized :class:`~repro.core.messages.LblAccessResponse`:
        tag + label width + ``G`` opened labels back to back."""
        return TAG_BYTES + LABEL_LEN_BYTES + self.num_groups * self.label_len

    @property
    def entry_hashes(self) -> int:
        """Keyed-hash calls to build — or open — one table entry.

        An AEAD entry is HMAC-SHA256 twice or more: a keystream of the
        label's width plus the tag.  A §10.2 row makes none: all rows of a
        request share two passes of one fixed-key permutation.
        """
        if self.point_and_permute:
            return 0
        return -(-self.label_len // 32) + 1

    @property
    def entry_compressions(self) -> int:
        """Primitive blocks behind one table entry, built or opened.

        A §10.2 row is ``1 + ceil(entry_len / 16)`` AES blocks — its seed
        through the permutation, then one tweaked block per 16 bytes of pad —
        metered as ``aes.blocks``.  An AEAD entry's key is used once, so
        nothing of its HMACs is precomputed: on top of
        :func:`~repro.crypto.prf.hmac_compressions` (which assumes keyed
        states) every evaluation pays the padded-key block of its inner and
        of its outer hash — four SHA-256 compressions in all while the
        message fits one block; these are not part of ``ops()``'s block
        counts, which are the PRF layer's meters.
        """
        if self.point_and_permute:
            return 1 + row_blocks(self.entry_len)
        once_keyed = 2
        keystream = len(b"aead-enc") + 12 + 4
        tag = len(b"aead-mac") + 12 + self.label_len
        return (self.entry_hashes - 1) * (hmac_compressions(keystream) + once_keyed) + (
            hmac_compressions(tag) + once_keyed
        )

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
        (+ one decryption-slot byte per group under §10.2)."""
        per_group = self.label_len + (
            DECRYPT_INDEX_BYTES if self.point_and_permute else 0
        )
        return ENCODED_KEY_BYTES + self.num_groups * per_group

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
        metered as ``cache.hits`` rows, not modeled here) with the epoch
        finalized from the proxy's in-flight table: ``finalize`` decodes
        against the blob ``prepare`` kept, so it predicts no PRF call and
        all of the PRF work is ``prepare``'s.  (An epoch that fell out of
        that table — recovery, rollback, eviction — costs ``finalize`` one
        :meth:`LabelCodec.epoch` on top.)

        ``prf.calls`` are calls actually made: one XOF call per epoch
        derived plus the HMAC key encoding, whose SHA-256 work is
        ``sha256.compressions``; ``shake256.blocks`` are the 136-byte blocks
        the XOF calls absorb and squeeze; ``aes.blocks`` are the 16-byte
        blocks §10.2 rows put through the fixed-key permutation — every
        table entry on the proxy, one designated row per group on the server.

        Args:
            include_server: Include the server-side AEAD opens.  Under
                point-and-permute the server opens exactly one entry per
                group; without it the attempt count is value-dependent, so
                decrypts are only modeled (and only asserted) under §10.2.
                In a sharded deployment the server ops land in server-side
                ledger rows, so client-row comparisons pass ``False``.
        """
        # ``prepare`` derives the old and the new epoch once each.
        codec = self._codec
        calls, compressions = self._encode_key_cost
        ops = {
            "prf.calls": calls + 2,
            "sha256.compressions": compressions,
            "shake256.blocks": (
                codec.epoch_blocks(self.key, self.counter)
                + codec.epoch_blocks(self.key, self.counter + 1)
            ),
            "aead.encrypts": self.num_groups * self.table_size,
        }
        if self.point_and_permute:
            ops["aes.blocks"] = ops["aead.encrypts"] * self.entry_compressions
            if include_server:
                ops["aead.decrypts"] = self.num_groups
                ops["aes.blocks"] += self.num_groups * self.entry_compressions
        return ops

    def proxy_hash_blocks(self) -> int:
        """Primitive blocks the proxy computes per access: the XOF blocks of
        its epochs, the key encoding, and every table entry it builds — the
        unit :func:`plan_capacity` prices proxy CPU in."""
        ops = self.ops(include_server=False)
        return (
            ops["shake256.blocks"]
            + ops["sha256.compressions"]
            + ops["aead.encrypts"] * self.entry_compressions
        )


# --------------------------------------------------------------------- #
# Capacity planning
# --------------------------------------------------------------------- #

#: Default planner throughput assumptions.  Both are deliberately explicit
#: (and overridable) inputs, surfaced in the plan's ``assumptions`` — the
#: model makes bytes and primitive blocks exact, while sustained rates are
#: hardware-dependent calibration points.  The block rate is what one core
#: of the ``bench/`` host sustains through the library calls and the Python
#: around them: 8,296 blocks (614 SHAKE-256 + 2 SHA-256 + 7,680 AES) in the
#: ≈ 1.85 ms ``prepare`` + ``finalize`` of one paper-point access.
DEFAULT_SHARD_OPS_PER_SEC = 2_000.0
DEFAULT_COMPRESSIONS_PER_CORE_PER_SEC = 4_500_000.0
DEFAULT_TARGET_UTILIZATION = 0.6

#: Server-side calibration points.  One designated row open is three AES
#: blocks of a window-wide pass, so a server core sustains far more opens/s
#: than accesses/s — 640 in ≈ 0.43 ms on the ``bench/`` host, picking the
#: rows out of the slab included; the per-access overhead is the storage
#: get/put round trip and the dispatch around the opens.
DEFAULT_SERVER_OPENS_PER_SEC = 1_500_000.0
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
            "point_and_permute": model.point_and_permute,
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
    and one PUT through a real :class:`~repro.core.lbl.LblOrtoa` deployment
    under a tracked ledger row, twice, and compares the row's ops *and* wire
    bytes to the model byte-for-byte.  Point-and-permute is always on
    (without it the server's decrypt-attempt count is value-dependent and
    exact equality is not defined).

    The ``"lockstep"`` cell runs :meth:`~repro.core.lbl.LblOrtoa.access`;
    the ``"batch"`` cell serves the tracked access through one
    :meth:`~repro.core.lbl.server.LblServer.process_many` window shared
    with an untracked decoy request — what a batch frame runs — and the
    tracked ledger row must still equal the same model byte-for-byte: the
    window's closed-form per-row attribution of its opens is exact, not
    approximate.

    Returns a JSON-ready report: ``{"ok": bool, "cases": [...]}`` where
    each case carries the expected/actual dicts and its own verdict.
    """
    import random as _random

    from repro import obs
    from repro.core.lbl import LblOrtoa
    from repro.obs import ledger
    from repro.types import Request

    was_enabled = obs.is_enabled()
    obs.enable()
    cases = []
    try:
        for value_len in value_sizes:
            for path in ("lockstep", "batch"):
                config = StoreConfig(
                    value_len=value_len,
                    group_bits=group_bits,
                    point_and_permute=True,
                )
                windowed = path == "batch"
                protocol = LblOrtoa(config, rng=_random.Random(7))
                records = {"k": b"\x01" * value_len}
                if windowed:
                    # The decoy shares the server window with the
                    # tracked access; it is prepared and finalized outside
                    # the tracked row.
                    records["d"] = b"\x01" * value_len
                protocol.initialize(records)
                for op_name, request in (
                    ("get", Request.read("k")),
                    ("put", Request.write("k", b"\x02" * value_len)),
                ):
                    epoch = protocol.proxy.counter("k")
                    model = LblCostModel.from_config(config, key="k", counter=epoch)
                    if windowed:
                        decoy_epoch = protocol.proxy.counter("d") + 1
                        decoy_built, _decoy_ops = protocol.proxy.prepare(
                            Request.read("d")
                        )
                    with ledger.track(label=f"check:{op_name}") as row:
                        if windowed:
                            from repro.errors import OrtoaError

                            built, _prep_ops = protocol.proxy.prepare(request)
                            window = protocol.server.process_many(
                                [built, decoy_built], rows=[row, None]
                            )
                            for item in window:
                                if isinstance(item, OrtoaError):
                                    raise item
                            response, _server_ops = window[0]
                            protocol.proxy.finalize(
                                "k", response, counter=epoch + 1
                            )
                            actual_wire = {
                                "access.sent": len(built.to_bytes()),
                                "access.received": len(response.to_bytes()),
                            }
                        else:
                            protocol.access(request)
                            actual_wire = None
                    if windowed:
                        # Decoy finalize outside the tracked row: its
                        # crypto belongs to the decoy, not the case.
                        protocol.proxy.finalize(
                            "d", window[1][0], counter=decoy_epoch
                        )
                    snap = row.snapshot()
                    if actual_wire is None:
                        actual_wire = snap["wire"]
                    expected_ops = model.ops(include_server=True)
                    actual_ops = {
                        k: snap["ops"].get(k, 0) for k in expected_ops
                    }
                    expected_wire = {
                        "access.sent": model.request_bytes,
                        "access.received": model.response_bytes,
                    }
                    ok = (
                        actual_ops == expected_ops
                        and actual_wire == expected_wire
                    )
                    cases.append(
                        {
                            "value_len": value_len,
                            "path": path,
                            "op": op_name,
                            "ok": ok,
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
    "AEAD_OVERHEAD_BYTES",
    "DECRYPT_INDEX_BYTES",
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
