"""Wire formats for proxy↔server messages, with byte-exact serialization.

Communication volume is a first-class quantity in the paper (LBL-ORTOA's
``2·E_len·t`` bits per access drives Figures 3b–3d), so every message here
serializes to real bytes and experiments measure ``len(to_bytes())`` rather
than trusting an analytic formula.  Framing is minimal and explicit: a
1-byte message tag followed by 4-byte big-endian length-prefixed fields;
the LBL table is a fixed-width slab behind a shape header instead of a field
per entry, and its reply packed slots and one digest behind a width header.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import rows
from repro.crypto.labels import REPLY_DIGEST_LEN
from repro.errors import ProtocolError

_LEN_BYTES = 4


def _pack_fields(tag: int, fields: list[bytes]) -> bytes:
    out = [bytes([tag])]
    for field in fields:
        out.append(len(field).to_bytes(_LEN_BYTES, "big"))
        out.append(field)
    return b"".join(out)


def _unpack_exactly(data: bytes, expected_tag: int, count: int) -> list[bytes]:
    """Unpack and require an exact field count (clean error on mismatch)."""
    fields = _unpack_fields(data, expected_tag)
    if len(fields) != count:
        raise ProtocolError(
            f"message with tag {expected_tag} needs {count} fields, got {len(fields)}"
        )
    return fields


def _unpack_fields(data: bytes, expected_tag: int) -> list[bytes]:
    if not data or data[0] != expected_tag:
        raise ProtocolError(f"bad message tag: expected {expected_tag}, got {data[:1]!r}")
    fields = []
    pos = 1
    while pos < len(data):
        if pos + _LEN_BYTES > len(data):
            raise ProtocolError("truncated field length")
        length = int.from_bytes(data[pos:pos + _LEN_BYTES], "big")
        pos += _LEN_BYTES
        if pos + length > len(data):
            raise ProtocolError("truncated field body")
        fields.append(data[pos:pos + length])
        pos += length
    return fields


# --------------------------------------------------------------------- #
# Baseline (2RTT): a read round followed by a write round
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class ReadRequest:
    """Round 1 of the baseline: fetch the ciphertext for an encoded key."""

    encoded_key: bytes
    TAG = 0x01

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.encoded_key])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadRequest":
        """Parse the wire form; raises ProtocolError when malformed."""
        (encoded_key,) = _unpack_exactly(data, cls.TAG, 1)
        return cls(encoded_key)


@dataclass(frozen=True, slots=True)
class ReadResponse:
    ciphertext: bytes
    TAG = 0x02

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.ciphertext])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReadResponse":
        """Parse the wire form; raises ProtocolError when malformed."""
        (ciphertext,) = _unpack_exactly(data, cls.TAG, 1)
        return cls(ciphertext)


@dataclass(frozen=True, slots=True)
class WriteRequest:
    """Round 2 of the baseline: store a (re-)encrypted value."""

    encoded_key: bytes
    ciphertext: bytes
    TAG = 0x03

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.encoded_key, self.ciphertext])

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteRequest":
        """Parse the wire form; raises ProtocolError when malformed."""
        encoded_key, ciphertext = _unpack_exactly(data, cls.TAG, 2)
        return cls(encoded_key, ciphertext)


@dataclass(frozen=True, slots=True)
class WriteAck:
    TAG = 0x04

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [])

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAck":
        """Parse the wire form; raises ProtocolError when malformed."""
        _unpack_exactly(data, cls.TAG, 0)
        return cls()


# --------------------------------------------------------------------- #
# TEE-ORTOA (1 RTT)
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class TeeAccessRequest:
    """§4.1: encoded key + encrypted selector ``c_r`` + encrypted new value."""

    encoded_key: bytes
    selector_ct: bytes
    new_value_ct: bytes
    TAG = 0x10

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.encoded_key, self.selector_ct, self.new_value_ct])

    @classmethod
    def from_bytes(cls, data: bytes) -> "TeeAccessRequest":
        """Parse the wire form; raises ProtocolError when malformed."""
        encoded_key, selector_ct, new_value_ct = _unpack_exactly(data, cls.TAG, 3)
        return cls(encoded_key, selector_ct, new_value_ct)


@dataclass(frozen=True, slots=True)
class TeeAccessResponse:
    """The enclave's re-encrypted output (old value for reads, new for writes)."""

    result_ct: bytes
    TAG = 0x11

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.result_ct])

    @classmethod
    def from_bytes(cls, data: bytes) -> "TeeAccessResponse":
        """Parse the wire form; raises ProtocolError when malformed."""
        (result_ct,) = _unpack_exactly(data, cls.TAG, 1)
        return cls(result_ct)


# --------------------------------------------------------------------- #
# LBL-ORTOA (1 RTT)
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class LblAccessRequest:
    """§5.2 step 1.5 with §10.2 rows: the encoded key plus, per label group,
    a table of ``2^y`` slot-linked rows.

    The tables travel as one **slab** — ``num_groups · table_size`` rows of
    ``entry_len`` bytes (a sealed label, which names its next slot),
    group-major, then the check blocks of group 0's rows
    (:mod:`repro.crypto.rows`) — behind a header that states the shape and
    the request's row nonce (three length-prefixed fields)::

        tag ‖ [table_size u16 ‖ entry_len u16 ‖ nonce] ‖ encoded_key ‖ slab

    A receiver picks only the rows it needs; :attr:`tables` is the
    row-by-row view.
    """

    encoded_key: bytes
    slab: bytes
    table_size: int
    entry_len: int
    nonce: bytes
    TAG = 0x20

    def __post_init__(self) -> None:
        if not (0 < self.table_size < 1 << 16 and 0 < self.entry_len < 1 << 16):
            raise ProtocolError("LBL request table shape is out of range")
        if len(self.nonce) != rows.ROW_NONCE_LEN:
            raise ProtocolError(f"LBL request nonce must be {rows.ROW_NONCE_LEN} bytes")
        tables = len(self.slab) - self.table_size * rows.CHECK_LEN
        if tables <= 0 or tables % (self.table_size * self.entry_len):
            raise ProtocolError("LBL request slab is not a whole number of group tables")

    @classmethod
    def from_tables(
        cls,
        encoded_key: bytes,
        tables: "tuple[tuple[bytes, ...], ...] | list",
        nonce: bytes,
    ) -> "LblAccessRequest":
        """Build the slab from per-group rows of one common shape, group 0's
        ending in their check blocks — inverse of :attr:`tables`."""
        if not tables or not tables[0]:
            raise ProtocolError("LBL request needs at least one group table")
        if set(map(len, tables)) != {len(tables[0])}:
            raise ProtocolError("all group tables must have equal size")
        head, entries = tables[0], [entry for table in tables for entry in table]
        widths = {len(e) for e in head} | {len(e) + rows.CHECK_LEN for e in entries[len(head) :]}
        if widths != {len(head[0])}:
            raise ProtocolError("all table entries must have equal length")
        entry_len = len(head[0]) - rows.CHECK_LEN
        slab = b"".join([e[:entry_len] for e in entries] + [e[entry_len:] for e in head])
        return cls(encoded_key, slab, len(head), entry_len, nonce)

    @property
    def num_groups(self) -> int:
        """How many group tables the slab holds."""
        checks = self.table_size * rows.CHECK_LEN
        return (len(self.slab) - checks) // (self.table_size * self.entry_len)

    @property
    def tables(self) -> tuple[tuple[bytes, ...], ...]:
        """The slab sliced into per-group row tuples, group 0's with their
        check blocks (built on each use)."""
        size, width, slab = self.table_size, self.entry_len, self.slab
        checks = len(slab) - size * rows.CHECK_LEN
        entries = [slab[at : at + width] for at in range(0, checks, width)]
        for i in range(size):
            entries[i] += slab[checks + i * rows.CHECK_LEN :][: rows.CHECK_LEN]
        return tuple(tuple(entries[i : i + size]) for i in range(0, len(entries), size))

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        shape = (self.table_size << 16 | self.entry_len).to_bytes(4, "big")
        return _pack_fields(self.TAG, [shape + self.nonce, self.encoded_key, self.slab])

    @classmethod
    def from_bytes(cls, data: bytes) -> "LblAccessRequest":
        """Parse the wire form; raises ProtocolError when malformed (a
        per-field frame of the pre-slab format included)."""
        header, encoded_key, slab = _unpack_exactly(data, cls.TAG, 3)
        if len(header) < 4:
            raise ProtocolError("LBL request header must state the table shape")
        shape = int.from_bytes(header[:4], "big")
        return cls(encoded_key, slab, shape >> 16, shape & 0xFFFF, header[4:])


@dataclass(frozen=True, slots=True)
class LblAccessResponse:
    """§5.2 step 2.2 with §10.2 slots: the new record's slots and a digest of
    its labels, ``tag ‖ slot_bits u16 ‖ ⌈G·y/8⌉ packed slot bytes ‖ digest``
    (:mod:`repro.crypto.labels`).  The digest is the last 16 bytes; a reply
    of the wrong length is tampering, which ``finalize`` refuses."""

    slots: bytes
    slot_bits: int
    digest: bytes
    TAG = 0x21

    def __post_init__(self) -> None:
        if not 1 <= self.slot_bits <= 8:
            raise ProtocolError(f"slot width must be 1..8 bits, not {self.slot_bits}")

    def to_bytes(self) -> bytes:
        """Serialize to the tagged fixed-width wire form."""
        return bytes([self.TAG]) + self.slot_bits.to_bytes(2, "big") + self.slots + self.digest

    @classmethod
    def from_bytes(cls, data: bytes) -> "LblAccessResponse":
        """Parse the wire form; raises ProtocolError without a tag and header."""
        if len(data) < 3 or data[0] != cls.TAG:
            raise ProtocolError(f"bad message tag: expected {cls.TAG}, got {data[:1]!r}")
        cut = max(len(data) - REPLY_DIGEST_LEN, 3)
        return cls(data[3:cut], int.from_bytes(data[1:3], "big"), data[cut:])


@dataclass(frozen=True, slots=True)
class LblBatchRequest:
    """Several LBL accesses in one wire message (one physical round trip).

    Serialized as length-prefixed serialized :class:`LblAccessRequest`
    frames under a batch tag; order is preserved and meaningful (repeated
    keys apply epoch-by-epoch).
    """

    requests: tuple[LblAccessRequest, ...]
    TAG = 0x22

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        if not self.requests:
            raise ProtocolError("batch must contain at least one request")
        return _pack_fields(self.TAG, [r.to_bytes() for r in self.requests])

    @classmethod
    def from_bytes(cls, data: bytes) -> "LblBatchRequest":
        """Parse the wire form; raises ProtocolError when malformed."""
        fields = _unpack_fields(data, cls.TAG)
        if not fields:
            raise ProtocolError("empty batch")
        return cls(tuple(LblAccessRequest.from_bytes(f) for f in fields))


@dataclass(frozen=True, slots=True)
class LblErrorEntry:
    """One failed request inside a batch response.

    A request that cannot be served (unknown key, stale labels, malformed
    tables) must not abort the whole batch: the server has already rotated
    labels for the requests it processed earlier, so discarding their
    responses would desynchronize every key the batch touched.  Instead the
    server slots this entry at the failing position and keeps going.
    """

    message: str
    TAG = 0x24

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.message.encode("utf-8")])

    @classmethod
    def from_bytes(cls, data: bytes) -> "LblErrorEntry":
        """Parse the wire form; raises ProtocolError when malformed."""
        (message,) = _unpack_exactly(data, cls.TAG, 1)
        return cls(message.decode("utf-8", "replace"))


@dataclass(frozen=True, slots=True)
class LblBatchResponse:
    """Per-request responses for a batch, in request order.

    Each entry is either an :class:`LblAccessResponse` (success) or an
    :class:`LblErrorEntry` (that request failed; the rest of the batch was
    still applied).
    """

    responses: tuple["LblAccessResponse | LblErrorEntry", ...]
    TAG = 0x23

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [r.to_bytes() for r in self.responses])

    @classmethod
    def from_bytes(cls, data: bytes) -> "LblBatchResponse":
        """Parse the wire form; raises ProtocolError when malformed."""
        fields = _unpack_fields(data, cls.TAG)
        entries: list[LblAccessResponse | LblErrorEntry] = []
        for field in fields:
            if field[:1] == bytes([LblErrorEntry.TAG]):
                entries.append(LblErrorEntry.from_bytes(field))
            else:
                entries.append(LblAccessResponse.from_bytes(field))
        return cls(tuple(entries))

    @property
    def error_indices(self) -> tuple[int, ...]:
        """Positions of the requests that failed server-side."""
        return tuple(
            i for i, r in enumerate(self.responses) if isinstance(r, LblErrorEntry)
        )


# --------------------------------------------------------------------- #
# FHE-ORTOA (1 RTT)
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class FheAccessRequest:
    """§3.1: encoded key + FHE(c_r) + FHE(c_w) + FHE(v_new), serialized."""

    encoded_key: bytes
    c_r_ct: bytes
    c_w_ct: bytes
    new_value_ct: bytes
    TAG = 0x30

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(
            self.TAG, [self.encoded_key, self.c_r_ct, self.c_w_ct, self.new_value_ct]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "FheAccessRequest":
        """Parse the wire form; raises ProtocolError when malformed."""
        encoded_key, c_r, c_w, new_value = _unpack_exactly(data, cls.TAG, 4)
        return cls(encoded_key, c_r, c_w, new_value)


@dataclass(frozen=True, slots=True)
class FheAccessResponse:
    result_ct: bytes
    TAG = 0x31

    def to_bytes(self) -> bytes:
        """Serialize to the tagged, length-prefixed wire form."""
        return _pack_fields(self.TAG, [self.result_ct])

    @classmethod
    def from_bytes(cls, data: bytes) -> "FheAccessResponse":
        """Parse the wire form; raises ProtocolError when malformed."""
        (result_ct,) = _unpack_exactly(data, cls.TAG, 1)
        return cls(result_ct)


__all__ = [
    "ReadRequest",
    "ReadResponse",
    "WriteRequest",
    "WriteAck",
    "TeeAccessRequest",
    "TeeAccessResponse",
    "LblAccessRequest",
    "LblAccessResponse",
    "LblBatchRequest",
    "LblBatchResponse",
    "LblErrorEntry",
    "FheAccessRequest",
    "FheAccessResponse",
]
