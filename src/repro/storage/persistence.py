"""Durable snapshots of server-side stores.

The paper treats server durability as the cloud provider's problem (Redis
persistence); this module provides the equivalent for the in-memory engine
so a whole deployment — server snapshot + proxy WAL
(:mod:`repro.core.lbl.wal`) + the master key — can stop and resume.

The format is deliberately boring: a magic header, then length-prefixed
``(key, value)`` records.  Value encoding is pluggable per store content
(raw ciphertext bytes, LBL label records) via small codec objects, keeping
the engine itself value-agnostic.
"""

from __future__ import annotations

import os
import pathlib
import struct
from typing import Generic, Protocol, TypeVar

from repro.errors import StorageError
from repro.storage.kv import KeyValueStore

V = TypeVar("V")

_MAGIC = b"ORTOASNAP1"
_U32 = struct.Struct(">I")


class ValueCodec(Protocol[V]):
    """Serializes one store value type."""

    def encode(self, value: V) -> bytes:
        """Serialize one store value."""
        ...

    def decode(self, data: bytes) -> V:
        """Deserialize one store value."""
        ...


class BytesCodec:
    """Identity codec for stores of raw ciphertext bytes (baseline/TEE)."""

    def encode(self, value: bytes) -> bytes:
        """Serialize one store value."""
        return value

    def decode(self, data: bytes) -> bytes:
        """Deserialize one store value."""
        return data


class LabelListCodec:
    """Codec for LBL server records: the label run, as stored (each label
    names its next slot in its own low bits, so nothing else is kept)."""

    def encode(self, value: bytes) -> bytes:
        """Serialize one store value."""
        return bytes(value)

    def decode(self, data: bytes) -> bytes:
        """Deserialize one store value."""
        if not data:
            raise StorageError("empty label record")
        return bytes(data)


def save_store(
    store: KeyValueStore[V], path: str | os.PathLike, codec: ValueCodec[V]
) -> None:
    """Write an atomic snapshot of ``store`` to ``path``."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(target.suffix + ".tmp")
    with open(tmp, "wb") as out:
        out.write(_MAGIC)
        for key in store:
            value_bytes = codec.encode(store.get(key))
            out.write(_U32.pack(len(key)))
            out.write(key)
            out.write(_U32.pack(len(value_bytes)))
            out.write(value_bytes)
        out.flush()
        os.fsync(out.fileno())
    tmp.replace(target)


def load_store(
    path: str | os.PathLike, codec: ValueCodec[V], name: str = "restored"
) -> KeyValueStore[V]:
    """Rebuild a store from a snapshot.

    Raises:
        StorageError: missing file, bad magic, or a truncated record.
    """
    source = pathlib.Path(path)
    if not source.exists():
        raise StorageError(f"snapshot {source} does not exist")
    data = source.read_bytes()
    if not data.startswith(_MAGIC):
        raise StorageError(f"snapshot {source} has a bad header")
    store: KeyValueStore[V] = KeyValueStore(name)
    pos = len(_MAGIC)
    while pos < len(data):
        try:
            (key_len,) = _U32.unpack_from(data, pos)
            pos += _U32.size
            key = data[pos:pos + key_len]
            pos += key_len
            (value_len,) = _U32.unpack_from(data, pos)
            pos += _U32.size
            value_bytes = data[pos:pos + value_len]
            pos += value_len
            if len(key) != key_len or len(value_bytes) != value_len:
                raise StorageError("truncated record")
        except struct.error:
            raise StorageError(f"snapshot {source} is truncated") from None
        store.put_new(key, codec.decode(value_bytes))
    return store


__all__ = [
    "ValueCodec",
    "BytesCodec",
    "LabelListCodec",
    "save_store",
    "load_store",
]
