"""Common value types shared across the ORTOA protocol family.

The paper's system model (§2) is a key-value store supporting single-key GET
and PUT where every value has the same fixed length.  These dataclasses are
the plaintext-side vocabulary used by clients, proxies, and the experiment
harness; the encrypted wire formats live in :mod:`repro.core.messages`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class Operation(enum.Enum):
    """Type of a client access — the very thing ORTOA hides from the server."""

    READ = "read"
    WRITE = "write"

    @property
    def is_read(self) -> bool:
        """True for GET operations."""
        return self is Operation.READ

    @property
    def is_write(self) -> bool:
        """True for PUT operations."""
        return self is Operation.WRITE


@dataclass(frozen=True, slots=True)
class Request:
    """A plaintext client request.

    ``value`` must be ``None`` for reads and a ``bytes`` payload for writes;
    the payload is padded/validated against the store's fixed value length by
    the proxy.
    """

    op: Operation
    key: str
    value: bytes | None = None

    def __post_init__(self) -> None:
        if self.op.is_read and self.value is not None:
            raise ConfigurationError("read requests must not carry a value")
        if self.op.is_write and self.value is None:
            raise ConfigurationError("write requests must carry a value")

    @staticmethod
    def read(key: str) -> "Request":
        """Construct a GET request."""
        return Request(Operation.READ, key)

    @staticmethod
    def write(key: str, value: bytes) -> "Request":
        """Construct a PUT request."""
        return Request(Operation.WRITE, key, value)


@dataclass(frozen=True, slots=True)
class Response:
    """A plaintext response returned to the client by the proxy.

    For reads, ``value`` is the object's current value.  For writes, the
    protocols still produce a decrypted server output (re-encrypted/updated
    labels or ciphertext), but the proxy ignores it; ``value`` then echoes the
    written value for client convenience.
    """

    key: str
    value: bytes


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """Static parameters of an ORTOA deployment.

    Attributes:
        value_len: Fixed plaintext value length in bytes (paper's ``t`` is
            ``value_len * 8`` bits; the default 160 B matches §6's workload).
        label_bits: PRF output size ``r`` in bits for LBL label generation:
            at least 128 (a label is a key), at most 440 (a §10.2 row is at
            most 64 bytes).
        group_bits: LBL space optimization ``y`` — how many plaintext bits one
            label represents (§10.1; ``y=2`` is the paper's optimum).
        point_and_permute: Accepted only as ``True``: §10.2 is the one LBL
            protocol (the §5.2 base tables live in ``tests/lbl_reference.py``).
        label_cache_entries: Proxy-side label cache capacity in epochs
            (``(key, counter)`` entries).  ``None`` disables the cache;
            ``-1`` sizes it automatically from
            :data:`repro.core.lbl.cache.DEFAULT_LABEL_CACHE_BYTES`.  A hit
            skips re-deriving the access's old epoch (see
            ``docs/performance.md``).
    """

    value_len: int = 160
    label_bits: int = 128
    group_bits: int = 1
    point_and_permute: bool = True  # only the closed bench/ still passes it
    label_cache_entries: int | None = None

    def __post_init__(self) -> None:
        if self.value_len <= 0:
            raise ConfigurationError("value_len must be positive")
        if self.label_bits % 8 != 0 or self.label_bits <= 0:
            raise ConfigurationError("label_bits must be a positive multiple of 8")
        if not 1 <= self.group_bits <= 8:
            # A slot index travels as one byte (and a table of 2^y entries
            # per group stops paying for itself long before y = 8).
            raise ConfigurationError("group_bits must be between 1 and 8")
        if not self.point_and_permute:
            raise ConfigurationError(
                "point_and_permute=False is the §5.2 base protocol, which only "
                "tests/lbl_reference.py builds"
            )
        if self.label_bits < 128:
            # A label seeds its row's pad (§10.2): 16 bytes or more.
            raise ConfigurationError("label_bits must be at least 128")
        if self.label_bits > 440:
            # A row (label + slot byte + 8 check bytes) is at most 64 bytes
            # — four blocks of pad (``crypto.rows``).
            raise ConfigurationError("label_bits must be at most 440")
        if self.label_cache_entries is not None and self.label_cache_entries == 0:
            raise ConfigurationError(
                "label_cache_entries must be None (disabled), -1 (auto), or >= 1"
            )
        if self.label_cache_entries is not None and self.label_cache_entries < -1:
            raise ConfigurationError(
                "label_cache_entries must be None (disabled), -1 (auto), or >= 1"
            )

    @property
    def value_bits(self) -> int:
        """Plaintext length in bits (paper's ``t``)."""
        return self.value_len * 8

    @property
    def num_groups(self) -> int:
        """Number of label groups per value (``ceil(t / y)``)."""
        bits = self.value_bits
        return (bits + self.group_bits - 1) // self.group_bits

    def pad(self, value: bytes) -> bytes:
        """Right-pad ``value`` with zero bytes to the fixed length.

        Raises:
            ConfigurationError: if the value is longer than ``value_len``.
        """
        if len(value) > self.value_len:
            raise ConfigurationError(
                f"value of {len(value)} bytes exceeds fixed length {self.value_len}"
            )
        return value.ljust(self.value_len, b"\x00")


@dataclass(slots=True)
class AccessStats:
    """Mutable counters a component keeps about the work it performed."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    encryptions: int = 0
    decryptions: int = 0
    failed_decryptions: int = 0
    prf_evaluations: int = 0

    def record_op(self, op: Operation) -> None:
        """Count one request of the given operation type."""
        self.requests += 1
        if op.is_read:
            self.reads += 1
        else:
            self.writes += 1

    def merged_with(self, other: "AccessStats") -> "AccessStats":
        """Return a new ``AccessStats`` summing ``self`` and ``other``."""
        return AccessStats(
            requests=self.requests + other.requests,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
            encryptions=self.encryptions + other.encryptions,
            decryptions=self.decryptions + other.decryptions,
            failed_decryptions=self.failed_decryptions + other.failed_decryptions,
            prf_evaluations=self.prf_evaluations + other.prf_evaluations,
        )


@dataclass(frozen=True, slots=True)
class LatencySample:
    """One completed request as observed by the experiment harness.

    ``trace_id`` links the sample to its ``harness.request`` span in
    :data:`repro.obs.trace.TRACER` when the run was captured with
    observability enabled; it is ``None`` otherwise.
    """

    op: Operation
    start_ms: float
    end_ms: float
    compute_ms: float = 0.0
    comm_overhead_ms: float = 0.0
    trace_id: int | None = None

    @property
    def latency_ms(self) -> float:
        """End-to-end latency of this request in milliseconds."""
        return self.end_ms - self.start_ms
