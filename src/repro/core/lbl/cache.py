"""Proxy-side label cache for LBL-ORTOA.

The labels stored at the server under counter ``ct`` are exactly the "new"
labels the proxy derived when it executed access ``ct`` — so on the *next*
access to the same key the proxy can skip re-deriving the whole "old" side
of its table build.  :class:`LabelCache` keeps those label sets in a bounded
LRU keyed by ``(key, counter)``.  Entries can further carry the *following*
epoch's labels (:meth:`LabelCache.attach_prefetch`, derived during
``finalize`` while the previous response is being settled), at which point a
warm ``prepare`` performs no label derivation at all.

Correctness hinges on the epoch key: an entry is only ever consumed by the
access whose old-label epoch matches it exactly, and the proxy invalidates
entries whenever counters move outside the normal ``ct → ct + 1`` flow
(:meth:`~repro.core.lbl.proxy.LblProxy.force_counter` /
:meth:`~repro.core.lbl.proxy.LblProxy.restore_counters`).

Entries can additionally carry the HMAC key schedules of their labels
(:meth:`LabelCache.attach_schedules`).  Deriving those is deferred to
``finalize`` — after the request is already on the wire — so a pipelined
deployment pays for them during the network round trip instead of on the
request-build critical path.

The cache is thread-safe:
:class:`~repro.core.lbl.concurrent.ConcurrentLblProxy` consults it from many
client threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.crypto import aead
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY

#: Default byte budget used when a cache is requested without an explicit
#: entry count (``LabelCache.from_bytes``).
DEFAULT_LABEL_CACHE_BYTES = 4 * 1024 * 1024


@dataclass(slots=True)
class LabelCacheEntry:
    """One cached epoch: everything the next access can reuse.

    Attributes:
        labels: ``num_groups`` rows of ``2^y`` candidate labels.
        offsets: Per-group point-and-permute offsets (``None`` when the
            deployment does not use point-and-permute).
        schedules: Per-label HMAC ``(ipad_block, opad_block)`` key schedules
            as one flat list in the epoch's wire order (group-major; slot
            ``value ^ offsets[group]`` under point-and-permute, value order
            otherwise); attached lazily by
            :meth:`LabelCache.attach_schedules`.
        next_labels: Prefetched candidate labels of the *following* epoch
            (``counter + 1``) — the "new" side of the next access's table
            build; attached by :meth:`LabelCache.attach_prefetch` during
            ``finalize``.
        next_offsets: Prefetched point-and-permute offsets of the following
            epoch, alongside ``next_labels``.
    """

    labels: list[list[bytes]]
    offsets: list[int] | None = None
    schedules: list[tuple[bytes, bytes]] | None = field(default=None)
    next_labels: list[list[bytes]] | None = field(default=None)
    next_offsets: list[int] | None = field(default=None)


class LabelCache:
    """Bounded LRU of per-``(key, counter)`` label sets.

    Args:
        entries: Maximum cached epochs.  Use :meth:`from_bytes` to size the
            bound from a byte budget instead.
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ConfigurationError("label cache needs at least 1 entry")
        self.capacity = entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int], LabelCacheEntry] = OrderedDict()

    @staticmethod
    def entry_bytes(
        num_groups: int, table_size: int, label_len: int, with_schedules: bool = True
    ) -> int:
        """Approximate in-memory size of one cached epoch.

        Counts the epoch's labels, the prefetched next-epoch labels, their
        HMAC key schedules (two 64-byte pad blocks each), and a 44-byte
        per-label allowance for the ``bytes``/``list`` object overhead the
        payload sizes do not show.
        """
        per_label = 2 * label_len + (128 + 44 if with_schedules else 0)
        return num_groups * (table_size * per_label + 16)

    @classmethod
    def from_bytes(
        cls,
        num_groups: int,
        table_size: int,
        label_len: int,
        budget_bytes: int = DEFAULT_LABEL_CACHE_BYTES,
    ) -> "LabelCache":
        """A cache bounded so its payload fits ``budget_bytes``."""
        if budget_bytes < 1:
            raise ConfigurationError("label cache byte budget must be positive")
        per_entry = cls.entry_bytes(num_groups, table_size, label_len)
        return cls(max(1, budget_bytes // per_entry))

    def __len__(self) -> int:
        return len(self._entries)

    def take(self, key: str, counter: int) -> LabelCacheEntry | None:
        """Remove and return the entry for ``(key, counter)``, if cached.

        Consuming semantics: an epoch's labels are needed by exactly one
        access (the one that replaces them), so a hit also frees the slot.
        """
        with self._lock:
            entry = self._entries.pop((key, counter), None)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        if _obs.enabled:
            if entry is None:
                REGISTRY.counter("lbl.proxy.label_cache.misses").inc()
                _ledger.add_op("cache.misses")
            else:
                REGISTRY.counter("lbl.proxy.label_cache.hits").inc()
                _ledger.add_op("cache.hits")
        return entry

    def peek(self, key: str, counter: int) -> LabelCacheEntry | None:
        """The entry for ``(key, counter)`` without consuming or counting it."""
        with self._lock:
            return self._entries.get((key, counter))

    def put(self, key: str, counter: int, entry: LabelCacheEntry) -> None:
        """Insert (or refresh) an epoch, evicting the LRU entry when full."""
        evicted = 0
        with self._lock:
            slot = (key, counter)
            self._entries[slot] = entry
            self._entries.move_to_end(slot)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            occupancy = len(self._entries)
        if _obs.enabled:
            if evicted:
                REGISTRY.counter("lbl.proxy.label_cache.evictions").inc(evicted)
            REGISTRY.gauge("lbl.proxy.label_cache.occupancy").set(occupancy)

    def attach_schedules(self, key: str, counter: int) -> bool:
        """Precompute HMAC key schedules for a cached epoch's labels.

        Returns True if an entry was found and (now) carries schedules.
        Called from ``finalize`` so the derivation happens off the
        request-build critical path; the next access's table encryption then
        skips its per-entry key schedule — and, the list being in wire
        order already, its per-group reordering of the keys — entirely.
        """
        with self._lock:
            entry = self._entries.get((key, counter))
        if entry is None:
            return False
        if entry.schedules is None:
            derive = aead.key_schedule
            slots = range(len(entry.labels[0]))
            entry.schedules = [
                derive(row[slot ^ offset])
                for row, offset in zip(entry.labels, entry.offsets or [0] * len(entry.labels))
                for slot in slots
            ]
        return True

    def attach_prefetch(
        self,
        key: str,
        counter: int,
        next_labels: list[list[bytes]],
        next_offsets: list[int] | None,
    ) -> bool:
        """Attach the following epoch's labels/offsets to a cached entry.

        Labels are a deterministic function of ``(key, counter)``, so the
        proxy can derive epoch ``counter + 1`` as soon as epoch ``counter``
        is settled — ``finalize`` does exactly that, off the one-round-trip
        critical path.  A later :meth:`take` hit then serves *both* sides of
        the table build.  Returns True if the entry was still cached.
        """
        with self._lock:
            entry = self._entries.get((key, counter))
            if entry is None:
                return False
            entry.next_labels = next_labels
            entry.next_offsets = next_offsets
        return True

    def invalidate_key(self, key: str) -> int:
        """Drop every cached epoch of ``key``; returns how many were dropped."""
        with self._lock:
            stale = [slot for slot in self._entries if slot[0] == key]
            for slot in stale:
                del self._entries[slot]
        if stale and _obs.enabled:
            REGISTRY.counter("lbl.proxy.label_cache.invalidations").inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (hit/miss totals are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


__all__ = ["LabelCache", "LabelCacheEntry", "DEFAULT_LABEL_CACHE_BYTES"]
