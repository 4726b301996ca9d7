"""Primary-key tables over an ORTOA protocol.

An :class:`ObliviousTable` maps relational rows onto the key-value model:
the primary-key value becomes the ORTOA key (namespaced per table), the
remaining columns pack into the fixed-width value.  Every data operation is
one oblivious protocol access, so the server learns neither the operation
type nor any column content.

Row bookkeeping lives at the (trusted) proxy side — ORTOA stores must be
pre-populated, so the table pre-allocates a fixed capacity of slots and
keeps a primary-key → slot map (O(rows) proxy state, the same order as the
protocol's own access counters).  The slot-count (capacity) is public, the
live-count is not: inserts and deletes are oblivious writes like any other.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import OrtoaProtocol
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.relational.schema import Schema

#: Flag byte prepended to each stored row: live or free slot.
_LIVE, _FREE = b"\x01", b"\x00"


class ObliviousTable:
    """A relational table with oblivious primary-key access.

    Args:
        name: Table name; namespaces the keys of multiple tables sharing
            one protocol deployment.
        schema: Row layout; ``schema.row_len + 1`` must fit the protocol's
            ``value_len`` (one byte is the liveness flag).
        protocol: An initialized-empty ORTOA deployment to own; the table
            calls ``initialize`` itself with its pre-allocated slots.
        capacity: Fixed number of row slots (public); inserts beyond it
            fail.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        protocol: OrtoaProtocol,
        capacity: int = 1024,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        if schema.row_len + 1 > protocol.config.value_len:
            raise ConfigurationError(
                f"schema rows ({schema.row_len} B + flag) exceed the protocol's "
                f"value_len ({protocol.config.value_len} B)"
            )
        self.name = name
        self.schema = schema
        self.protocol = protocol
        self.capacity = capacity
        # Proxy-side metadata: where each live row sits, and which slots
        # are free (allocated LIFO so the layout is deterministic).
        self._slot_by_pk: dict[Any, int] = {}
        self._free_slots: list[int] = list(range(capacity - 1, -1, -1))
        free_value = self._pack_free()
        protocol.initialize(
            {self._slot_key(s): free_value for s in range(capacity)}
        )

    # ------------------------------------------------------------------ #
    # Key and value packing
    # ------------------------------------------------------------------ #

    def _slot_key(self, slot: int) -> str:
        return f"table:{self.name}:{slot}"

    def _pack_live(self, row: dict[str, Any]) -> bytes:
        return self.protocol.config.pad(_LIVE + self.schema.encode_row(row))

    def _pack_free(self) -> bytes:
        return self.protocol.config.pad(_FREE + bytes(self.schema.row_len))

    def _unpack(self, value: bytes) -> dict[str, Any] | None:
        flag, body = value[:1], value[1:1 + self.schema.row_len]
        if flag == _FREE:
            return None
        return self.schema.decode_row(body)

    # ------------------------------------------------------------------ #
    # Data operations (each is one oblivious access)
    # ------------------------------------------------------------------ #

    def insert(self, row: dict[str, Any]) -> None:
        """Insert a new row (one oblivious write).

        Raises:
            ConfigurationError: duplicate primary key, or table full.
        """
        pk = row[self.schema.primary_key]
        if pk in self._slot_by_pk:
            raise ConfigurationError(f"duplicate primary key {pk!r}")
        if not self._free_slots:
            raise ConfigurationError(
                f"table {self.name!r} is full ({self.capacity} slots)"
            )
        encoded = self._pack_live(row)  # validates the row before allocating
        slot = self._free_slots.pop()
        self.protocol.write(self._slot_key(slot), encoded)
        self._slot_by_pk[pk] = slot

    def get(self, pk: Any) -> dict[str, Any]:
        """Fetch a row by primary key (one oblivious read)."""
        try:
            slot = self._slot_by_pk[pk]
        except KeyError:
            raise KeyNotFoundError(f"no row with primary key {pk!r}") from None
        row = self._unpack(self.protocol.read(self._slot_key(slot)))
        if row is None or row[self.schema.primary_key] != pk:
            raise KeyNotFoundError(f"row for {pk!r} missing at its slot")
        return row

    def update(self, pk: Any, **changes: Any) -> dict[str, Any]:
        """Read-modify-write selected columns (two oblivious accesses).

        Both accesses are individually operation-type hidden; the adversary
        sees two accesses to one location, not what they did.
        """
        if self.schema.primary_key in changes:
            raise ConfigurationError("cannot change the primary key; delete + insert")
        row = self.get(pk)
        for column, value in changes.items():
            self.schema.column(column)  # validates the name
            row[column] = value
        self.protocol.write(self._slot_key(self._slot_by_pk[pk]), self._pack_live(row))
        return row

    def delete(self, pk: Any) -> None:
        """Remove a row (one oblivious write of the free marker)."""
        try:
            slot = self._slot_by_pk.pop(pk)
        except KeyError:
            raise KeyNotFoundError(f"no row with primary key {pk!r}") from None
        self.protocol.write(self._slot_key(slot), self._pack_free())
        self._free_slots.append(slot)

    def get_many(self, pks: list[Any]) -> list[dict[str, Any]]:
        """Fetch several rows; one :meth:`access_batch
        <repro.core.sharded.ShardedLblDeployment.access_batch>` on any LBL
        deployment (one frame per shard).

        Falls back to sequential oblivious reads for other protocols.
        """
        from repro.core.sharded import ShardedLblDeployment
        from repro.types import Request

        missing = [pk for pk in pks if pk not in self._slot_by_pk]
        if missing:
            raise KeyNotFoundError(f"no rows with primary keys {missing!r}")
        if not pks:
            return []
        if isinstance(self.protocol, ShardedLblDeployment):
            requests = [
                Request.read(self._slot_key(self._slot_by_pk[pk])) for pk in pks
            ]
            values = [
                t.response.value for t in self.protocol.access_batch(requests)
            ]
        else:
            values = [
                self.protocol.read(self._slot_key(self._slot_by_pk[pk])) for pk in pks
            ]
        rows = []
        for pk, value in zip(pks, values):
            row = self._unpack(value)
            if row is None or row[self.schema.primary_key] != pk:
                raise KeyNotFoundError(f"row for {pk!r} missing at its slot")
            rows.append(row)
        return rows

    def scan(self) -> Iterator[dict[str, Any]]:
        """Full-table scan: one oblivious read per slot, live rows yielded.

        The honest fallback for non-key predicates until a private index is
        layered on (paper §8); the access pattern is the whole table, which
        leaks nothing about the predicate.
        """
        for slot in range(self.capacity):
            row = self._unpack(self.protocol.read(self._slot_key(slot)))
            if row is not None:
                yield row

    def __len__(self) -> int:
        return len(self._slot_by_pk)

    def __contains__(self, pk: Any) -> bool:
        return pk in self._slot_by_pk


__all__ = ["ObliviousTable"]
