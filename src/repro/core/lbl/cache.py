"""Proxy-side label cache: a bounded LRU of epoch blobs by ``(key, counter)``.

The server's labels under counter ``ct`` are the epoch the proxy derived for
access ``ct``; the proxy drops entries when a counter leaves ``ct → ct + 1``.
A derivation is a 16-byte XOF squeeze and one AES-CTR keystream, so a hit
saves little (``docs/performance.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.obs import ledger as _ledger

DEFAULT_LABEL_CACHE_BYTES = 4 * 1024 * 1024  # budget of an auto-sized cache


class LabelCache:
    """At most ``entries`` epochs; thread-safe (a deployment's caller
    threads share it)."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ConfigurationError("label cache needs at least 1 entry")
        self.capacity = entries
        self.hits = self.misses = self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, int], bytes]" = OrderedDict()

    @classmethod
    def from_bytes(cls, epoch_len: int, budget_bytes: int = DEFAULT_LABEL_CACHE_BYTES):
        """A cache whose epochs of ``epoch_len`` bytes fit ``budget_bytes``."""
        if budget_bytes < 1:
            raise ConfigurationError("label cache byte budget must be positive")
        return cls(max(1, budget_bytes // epoch_len))

    def __len__(self) -> int:
        return len(self._entries)

    def take(self, key: str, counter: int) -> bytes | None:
        """Remove and return the epoch of ``(key, counter)``, if cached."""
        with self._lock:
            blob = self._entries.pop((key, counter), None)
            self.hits += blob is not None
            self.misses += blob is None
        _ledger.add_op("cache.misses" if blob is None else "cache.hits")
        return blob

    def peek(self, key: str, counter: int) -> bytes | None:
        """The epoch of ``(key, counter)`` without consuming or counting it."""
        return self._entries.get((key, counter))

    def put(self, key: str, counter: int, blob: bytes) -> None:
        """Insert (or refresh) an epoch, evicting the LRU entries over capacity."""
        with self._lock:
            self._entries[(key, counter)] = blob
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


__all__ = ["LabelCache", "DEFAULT_LABEL_CACHE_BYTES"]
