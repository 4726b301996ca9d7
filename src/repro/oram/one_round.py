"""The §8 sketch made concrete: a tree ORAM whose read **and** eviction
share a single round trip, built on ORTOA's oblivious cells.

Every tree slot (bucket, slot) is one LBL-ORTOA object storing
``block_id || payload``.  Per access the proxy walks the requested block's
path and, at *every* level, performs exactly one ORTOA cell access:

* the level that holds the requested block → an ORTOA **read** (the block
  moves to the stash),
* levels with a free slot and an eviction-compatible stash block → an ORTOA
  **write** (stash shrinks — this is the eviction that PathORAM needs a
  second round for),
* otherwise → a dummy ORTOA read of a random slot.

Because ORTOA hides which of the three happened, the server sees only "one
cell touched per level of a random path", and all of it ships in one round.

Scope note (matching the paper's sketch-level treatment): the proxy keeps a
slot directory so it knows where each block lives, and the *slot index
within a bucket* is not obfuscated — full slot privacy would add
RingORAM-style per-bucket dummies and permutation, which §8 leaves as the
full design's job.
"""

from __future__ import annotations

import random
import struct

from repro.core.lbl import LblOrtoa
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, ProtocolError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.oram.stash import Stash
from repro.oram.tree import TreeConfig
from repro.types import Operation, Request, StoreConfig

_DUMMY_ID = (1 << 64) - 1
_SLOT_HEADER = struct.Struct(">Q")


class OneRoundOram:
    """A single-round tree ORAM over ORTOA cells.

    Args:
        num_blocks: Logical blocks (ids ``0 .. num_blocks-1``).
        value_len: Block payload size in bytes.
        keychain: Key material (generated if omitted).
        tree: Geometry; defaults to :meth:`TreeConfig.for_blocks`.
        rng: Randomness for leaf/slot choices; seed for deterministic tests.
    """

    rounds_per_access = 1

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
        self._rng = rng or random.Random()
        cell_config = StoreConfig(value_len=_SLOT_HEADER.size + value_len, group_bits=2)
        self.cells = LblOrtoa(cell_config, keychain=keychain)
        self.stash = Stash()
        self._position: dict[int, int] = {}
        #: (bucket, slot) → resident block id, or None when free.
        self._directory: dict[tuple[int, int], int | None] = {}
        #: block id → (bucket, slot); absent while the block sits in the stash.
        self._location: dict[int, tuple[int, int]] = {}
        self.rounds_used = 0
        self.bytes_transferred = 0

    # ------------------------------------------------------------------ #
    # Cell encoding
    # ------------------------------------------------------------------ #

    @staticmethod
    def _cell_key(bucket: int, slot: int) -> str:
        return f"cell-{bucket}-{slot}"

    def _pack(self, block_id: int, payload: bytes) -> bytes:
        return _SLOT_HEADER.pack(block_id) + payload

    def _unpack(self, cell_value: bytes) -> tuple[int, bytes]:
        (block_id,) = _SLOT_HEADER.unpack_from(cell_value, 0)
        return block_id, cell_value[_SLOT_HEADER.size:]

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def initialize(self, values: dict[int, bytes] | None = None) -> None:
        """Assign leaves, pack blocks into their paths, fill the rest empty."""
        values = values or {}
        placements: dict[tuple[int, int], int] = {}
        free_slots: dict[int, int] = {
            bucket: 0 for bucket in range(self.tree.num_buckets)
        }
        for block_id in range(self.num_blocks):
            leaf = self._rng.randrange(self.tree.num_leaves)
            self._position[block_id] = leaf
            placed = False
            for bucket in reversed(self.tree.path_buckets(leaf)):
                if free_slots[bucket] < self.tree.bucket_size:
                    slot = free_slots[bucket]
                    free_slots[bucket] += 1
                    placements[(bucket, slot)] = block_id
                    self._location[block_id] = (bucket, slot)
                    placed = True
                    break
            if not placed:
                payload = values.get(block_id, bytes(self.value_len))
                self.stash.put(block_id, payload)

        records: dict[str, bytes] = {}
        for bucket in range(self.tree.num_buckets):
            for slot in range(self.tree.bucket_size):
                block_id = placements.get((bucket, slot))
                self._directory[(bucket, slot)] = block_id
                if block_id is None:
                    cell = self._pack(_DUMMY_ID, bytes(self.value_len))
                else:
                    payload = values.get(block_id, bytes(self.value_len))
                    if len(payload) != self.value_len:
                        raise ConfigurationError(
                            f"block {block_id} payload must be {self.value_len} bytes"
                        )
                    cell = self._pack(block_id, payload)
                records[self._cell_key(bucket, slot)] = cell
        self.cells.initialize(records)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def access(self, op: Operation, block_id: int, new_value: bytes | None = None) -> bytes:
        """One single-round oblivious access; returns the pre-write value."""
        if not 0 <= block_id < self.num_blocks:
            raise ConfigurationError(f"block id {block_id} out of range")
        if op.is_write and (new_value is None or len(new_value) != self.value_len):
            raise ConfigurationError("write needs a value of the configured size")

        leaf = self._position[block_id]
        self._position[block_id] = self._rng.randrange(self.tree.num_leaves)
        self.rounds_used += 1

        # One ORTOA cell access per level — all ride the same round trip.
        for bucket in self.tree.path_buckets(leaf):
            if self._location.get(block_id, (None, None))[0] == bucket:
                self._cell_read_block(bucket, block_id)
            else:
                evicted = self._try_evict_into(bucket, exclude=block_id)
                if not evicted:
                    self._cell_dummy_read(bucket)

        if block_id not in self.stash:
            raise ProtocolError(f"block {block_id} lost: not in stash after path walk")
        value = self.stash.get(block_id)
        if op.is_write:
            assert new_value is not None
            self.stash.put(block_id, new_value)
        if _obs.enabled:
            REGISTRY.counter("oram.one_round.rounds").inc()
            REGISTRY.gauge("oram.one_round.stash_size").set(len(self.stash))
        return value

    def read(self, block_id: int) -> bytes:
        """Oblivious GET of one block (single round trip)."""
        return self.access(Operation.READ, block_id)

    def write(self, block_id: int, value: bytes) -> None:
        """Oblivious PUT of one block (single round trip)."""
        self.access(Operation.WRITE, block_id, value)

    # ------------------------------------------------------------------ #
    # The three cell operations (indistinguishable to the server)
    # ------------------------------------------------------------------ #

    def _account(self, transcript) -> None:
        self.bytes_transferred += transcript.total_bytes
        if _obs.enabled:
            REGISTRY.counter("oram.one_round.cell_accesses").inc()
            REGISTRY.counter("oram.one_round.bytes_transferred").inc(
                transcript.total_bytes
            )

    def _cell_read_block(self, bucket: int, block_id: int) -> None:
        """ORTOA-read the slot holding ``block_id`` and pull it to the stash."""
        bucket_found, slot = self._location.pop(block_id)
        if bucket_found != bucket:
            raise ProtocolError("directory inconsistency")
        transcript = self.cells.access(Request.read(self._cell_key(bucket, slot)))
        self._account(transcript)
        resident_id, payload = self._unpack(transcript.response.value)
        if resident_id != block_id:
            raise ProtocolError(
                f"cell ({bucket},{slot}) holds block {resident_id}, expected {block_id}"
            )
        self.stash.put(block_id, payload)
        self._directory[(bucket, slot)] = None

    def _try_evict_into(self, bucket: int, exclude: int) -> bool:
        """ORTOA-write one eviction-compatible stash block into a free slot."""
        free = [
            slot
            for slot in range(self.tree.bucket_size)
            if self._directory[(bucket, slot)] is None
        ]
        if not free:
            return False
        level = self._level_of(bucket)
        candidate = None
        for stash_id in self.stash.block_ids():
            if stash_id == exclude:
                continue
            if self.tree.bucket_at(self._position[stash_id], level) == bucket:
                candidate = stash_id
                break
        if candidate is None:
            return False
        slot = free[0]
        payload = self.stash.pop(candidate)
        transcript = self.cells.access(
            Request.write(self._cell_key(bucket, slot), self._pack(candidate, payload))
        )
        self._account(transcript)
        self._directory[(bucket, slot)] = candidate
        self._location[candidate] = (bucket, slot)
        if _obs.enabled:
            REGISTRY.counter("oram.one_round.blocks_evicted").inc()
        return True

    def _cell_dummy_read(self, bucket: int) -> None:
        """ORTOA-read a random slot; the result is discarded."""
        slot = self._rng.randrange(self.tree.bucket_size)
        transcript = self.cells.access(Request.read(self._cell_key(bucket, slot)))
        self._account(transcript)

    def _level_of(self, bucket: int) -> int:
        level = 0
        while bucket > 0:
            bucket = (bucket - 1) // 2
            level += 1
        return level


__all__ = ["OneRoundOram"]
