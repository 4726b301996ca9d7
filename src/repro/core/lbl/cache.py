"""Proxy-side label cache: a bounded LRU of epochs by ``(key, counter)``.

An entry is the ``(W, offsets)`` of the epoch the proxy derived for access
``ct`` — not its labels, which every access derives where it uses them — so
a hit saves one 16-byte XOF squeeze and ``⌈G/16⌉`` offset blocks, a few
microseconds (``docs/performance.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.obs import ledger as _ledger

DEFAULT_LABEL_CACHE_BYTES = 4 * 1024 * 1024  # budget of an auto-sized cache

#: Resident bytes of an entry beyond its epoch's payload: object headers, the
#: two tuples, the table node, and room for a key string of its own.
ENTRY_OVERHEAD_BYTES = 320


class LabelCache:
    """At most ``entries`` epochs; thread-safe (a deployment's caller
    threads share it)."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ConfigurationError("label cache needs at least 1 entry")
        self.capacity = entries
        self.hits = self.misses = self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, int], tuple[bytes, bytes]]" = OrderedDict()

    @classmethod
    def from_bytes(cls, epoch_bytes: int, budget_bytes: int = DEFAULT_LABEL_CACHE_BYTES):
        """A cache whose entries — epochs of ``epoch_bytes`` payload bytes,
        plus :data:`ENTRY_OVERHEAD_BYTES` each — fit ``budget_bytes``."""
        if budget_bytes < 1:
            raise ConfigurationError("label cache byte budget must be positive")
        return cls(max(1, budget_bytes // (epoch_bytes + ENTRY_OVERHEAD_BYTES)))

    def __len__(self) -> int:
        return len(self._entries)

    def take(self, key: str, counter: int) -> "tuple[bytes, bytes] | None":
        """Remove and return the epoch of ``(key, counter)``, if cached."""
        with self._lock:
            epoch = self._entries.pop((key, counter), None)
            self.hits += epoch is not None
            self.misses += epoch is None
        _ledger.add_op("cache.misses" if epoch is None else "cache.hits")
        return epoch

    def peek(self, key: str, counter: int) -> "tuple[bytes, bytes] | None":
        """The epoch of ``(key, counter)`` without consuming or counting it."""
        return self._entries.get((key, counter))

    def put(self, key: str, counter: int, epoch: "tuple[bytes, bytes]") -> None:
        """Insert (or refresh) an epoch, evicting the LRU entries over capacity."""
        with self._lock:
            self._entries[(key, counter)] = epoch
            self._entries.move_to_end((key, counter))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_key(self, key: str) -> int:
        """Drop every cached epoch of ``key``; returns how many were dropped."""
        with self._lock:
            stale = [slot for slot in self._entries if slot[0] == key]
            for slot in stale:
                del self._entries[slot]
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (hit/miss totals are kept)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        return self.hits / max(1, self.hits + self.misses)


__all__ = ["LabelCache", "DEFAULT_LABEL_CACHE_BYTES", "ENTRY_OVERHEAD_BYTES"]
