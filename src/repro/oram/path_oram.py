"""PathORAM — the classic two-round tree ORAM (Stefanov et al.), used as the
baseline for the paper's §8 one-round sketch.

Per access the client:

1. looks up (and re-randomizes) the block's leaf in the position map,
2. **round 1** — fetches every bucket on the root→leaf path into the stash,
3. serves the read/write from the stash,
4. **round 2** — greedily re-packs path buckets from the stash (deepest
   level first, path-compatibility respected) and writes the path back.

Buckets are stored AEAD-encrypted under a fresh nonce on every write-back,
so the server sees only which path was touched — the standard ORAM leakage
profile, with the operation type hidden by the unconditional write-back.
"""

from __future__ import annotations

import random
import struct

from repro.crypto import aead
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, ProtocolError
from repro.oram.stash import Stash
from repro.oram.tree import TreeConfig
from repro.storage.kv import KeyValueStore
from repro.types import Operation

#: Slot id marking an empty (dummy) slot inside a bucket.
_DUMMY_ID = (1 << 64) - 1
_SLOT_HEADER = struct.Struct(">Q")


class PathOram:
    """A two-round tree ORAM over an untrusted key-value store.

    Args:
        num_blocks: Number of logical blocks (ids ``0 .. num_blocks-1``).
        value_len: Fixed block payload size in bytes.
        keychain: Key material (generated if omitted).
        tree: Tree geometry; defaults to :meth:`TreeConfig.for_blocks`.
        rng: Randomness for leaf assignment; seed it for deterministic tests.
    """

    #: Proxy↔server round trips per access.
    rounds_per_access = 2

    def __init__(
        self,
        num_blocks: int,
        value_len: int,
        keychain: KeyChain | None = None,
        tree: TreeConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if num_blocks < 1 or value_len < 1:
            raise ConfigurationError("num_blocks and value_len must be >= 1")
        self.num_blocks = num_blocks
        self.value_len = value_len
        self.tree = tree or TreeConfig.for_blocks(num_blocks)
        if self.tree.capacity < num_blocks:
            raise ConfigurationError("tree too small for the block count")
        self.keychain = keychain or KeyChain()
        self._rng = rng or random.Random()
        self.store: KeyValueStore[bytes] = KeyValueStore("path-oram-server")
        self.stash = Stash()
        self._position: dict[int, int] = {}
        self.rounds_used = 0
        self.bytes_transferred = 0

    # ------------------------------------------------------------------ #
    # Bucket serialization
    # ------------------------------------------------------------------ #

    def _bucket_key(self, bucket: int) -> bytes:
        return self.keychain.encode_key(f"oram-bucket-{bucket}")

    def _seal_bucket(self, slots: list[tuple[int, bytes]]) -> bytes:
        if len(slots) > self.tree.bucket_size:
            raise ProtocolError("bucket overflow")
        padded = list(slots) + [(_DUMMY_ID, bytes(self.value_len))] * (
            self.tree.bucket_size - len(slots)
        )
        blob = b"".join(_SLOT_HEADER.pack(bid) + value for bid, value in padded)
        return aead.encrypt(self.keychain.data_key, blob)

    def _open_bucket(self, ciphertext: bytes) -> list[tuple[int, bytes]]:
        blob = aead.decrypt(self.keychain.data_key, ciphertext)
        slot_len = _SLOT_HEADER.size + self.value_len
        slots = []
        for offset in range(0, len(blob), slot_len):
            (block_id,) = _SLOT_HEADER.unpack_from(blob, offset)
            if block_id != _DUMMY_ID:
                value = blob[offset + _SLOT_HEADER.size: offset + slot_len]
                slots.append((block_id, value))
        return slots

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def initialize(self, values: dict[int, bytes] | None = None) -> None:
        """Create empty buckets and load initial block values via the stash.

        Blocks not named in ``values`` start as all-zero payloads.
        """
        for bucket in range(self.tree.num_buckets):
            self.store.put(self._bucket_key(bucket), self._seal_bucket([]))
        values = values or {}
        for block_id in range(self.num_blocks):
            self._position[block_id] = self._rng.randrange(self.tree.num_leaves)
            payload = values.get(block_id, bytes(self.value_len))
            if len(payload) != self.value_len:
                raise ConfigurationError(
                    f"block {block_id} payload must be {self.value_len} bytes"
                )
            self.stash.put(block_id, payload)
        # Drain the stash into the tree with eviction passes over random paths.
        for _ in range(2 * self.tree.num_leaves):
            if not len(self.stash):
                break
            leaf = self._rng.randrange(self.tree.num_leaves)
            self._read_path(leaf)
            self._evict_path(leaf)
        # Bulk-loading legitimately floods the stash; reset the high-water
        # mark (and the transfer counters) so they describe steady state.
        self.stash.max_occupancy = len(self.stash)
        self.rounds_used = 0
        self.bytes_transferred = 0

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def access(self, op: Operation, block_id: int, new_value: bytes | None = None) -> bytes:
        """One oblivious access; returns the block's (pre-write) value."""
        if not 0 <= block_id < self.num_blocks:
            raise ConfigurationError(f"block id {block_id} out of range")
        if op.is_write:
            if new_value is None or len(new_value) != self.value_len:
                raise ConfigurationError("write needs a value of the configured size")
        leaf = self._position[block_id]
        self._position[block_id] = self._rng.randrange(self.tree.num_leaves)

        self._read_path(leaf)  # round 1
        value = self.stash.get(block_id)
        if op.is_write:
            assert new_value is not None
            self.stash.put(block_id, new_value)
        self._evict_path(leaf)  # round 2
        return value

    def read(self, block_id: int) -> bytes:
        """Oblivious GET of one block (two round trips)."""
        return self.access(Operation.READ, block_id)

    def write(self, block_id: int, value: bytes) -> None:
        """Oblivious PUT of one block (two round trips)."""
        self.access(Operation.WRITE, block_id, value)

    # ------------------------------------------------------------------ #
    # Path operations
    # ------------------------------------------------------------------ #

    def _read_path(self, leaf: int) -> None:
        self.rounds_used += 1
        path_bytes = 0
        for bucket in self.tree.path_buckets(leaf):
            ciphertext = self.store.get(self._bucket_key(bucket))
            path_bytes += len(ciphertext)
            for block_id, value in self._open_bucket(ciphertext):
                self.stash.put(block_id, value)
        self.bytes_transferred += path_bytes

    def _evict_path(self, leaf: int) -> None:
        self.rounds_used += 1
        path = self.tree.path_buckets(leaf)
        path_bytes = 0
        # Deepest bucket first maximizes how far blocks sink.
        for level in range(len(path) - 1, -1, -1):
            chosen: list[tuple[int, bytes]] = []
            for block_id in self.stash.block_ids():
                if len(chosen) == self.tree.bucket_size:
                    break
                if self.tree.paths_intersect_at(leaf, self._position[block_id], level):
                    chosen.append((block_id, self.stash.get(block_id)))
            for block_id, _ in chosen:
                self.stash.pop(block_id)
            ciphertext = self._seal_bucket(chosen)
            path_bytes += len(ciphertext)
            self.store.put(self._bucket_key(path[level]), ciphertext)
        self.bytes_transferred += path_bytes


__all__ = ["PathOram"]
