"""Flight recorder: a bounded, lock-cheap ring of structured events.

Metrics answer "how often"; spans answer "how long"; neither answers *why
this particular request* was shed, stalled, or slow.  The flight recorder
fills that gap: hot-path subsystems append small immutable events (shed
decisions with their cause and the window occupancy at shed time,
admission-window transitions, forced counter moves, slow-consumer aborts)
into a fixed-capacity ring.  The ring never grows: once full, the
oldest event is overwritten and counted in ``dropped``, so sustained event
storms cost O(1) memory.

Every emission site sits behind the usual ``if _state.enabled`` guard, so
the disabled path costs one attribute check — the same contract as spans
and metrics, gated by ``benchmarks/test_obs_overhead.py``.

Post-mortems: :meth:`FlightRecorder.trigger` snapshots the ring exactly
once per trigger key (an overload burst that sheds 10k requests produces
one dump, not 10k) and, when ``REPRO_RECORDER_DIR`` is set, writes the
snapshot as a JSON file for CI to collect as a failure artifact.

Cross-process: a shard's ring travels in the obs control-frame bundle
(``LblFrameDispatcher.obs_dump``) and :func:`merge_recorder_dumps` merges
shard rings into one timeline, tagging each event with its process like
:func:`repro.obs.propagate.merge_span_dumps` tags spans.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Iterable

from repro.obs import _state
from repro.obs import clock as obs_clock

#: Environment variable naming a directory for post-mortem dump files.
#: Unset (the default) means triggers snapshot in memory only.
DUMP_DIR_ENV = "REPRO_RECORDER_DIR"

#: Default ring capacity — ~4k events of a few hundred bytes each bounds
#: the recorder below a couple of MB per process.
DEFAULT_CAPACITY = 4096

#: Shed decisions within one burst window that escalate to a trigger.
OVERLOAD_BURST_THRESHOLD = 32

#: Width of the overload-burst window, in the recording clock's unit.
OVERLOAD_BURST_WINDOW_S = 1.0


class RecorderEvent:
    """One immutable recorder entry: when, what kind, and its fields."""

    __slots__ = ("seq", "time", "kind", "fields")

    def __init__(self, seq: int, time: float, kind: str, fields: dict[str, Any]):
        self.seq = seq
        self.time = time
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "fields": dict(self.fields),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecorderEvent(#{self.seq} {self.kind} {self.fields!r})"


class FlightRecorder:
    """A fixed-capacity event ring with exactly-once trigger dumps.

    Args:
        capacity: Ring size in events; the oldest event is overwritten
            once the ring is full.

    Thread safety: :meth:`record` takes one short lock around a slot write
    and a counter increment — cheap enough for hot paths, and events can
    never tear (an event is fully constructed before the lock is taken and
    is immutable afterwards).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._slots: list[RecorderEvent | None] = [None] * capacity
        self._seq = 0
        self._dropped = 0
        self._triggers: dict[str, dict[str, Any]] = {}
        self._burst_window_start = 0.0
        self._burst_count = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event.  Call sites guard with ``if _state.enabled``.

        The guard lives at the call site (not here) so the disabled path
        pays one attribute check and zero function calls — the contract
        the obs-overhead benchmark gates.
        """
        event = RecorderEvent(0, obs_clock.now(), kind, fields)
        with self._lock:
            event.seq = self._seq
            if self._seq >= self.capacity:
                self._dropped += 1
            self._slots[self._seq % self.capacity] = event
            self._seq += 1

    def record_shed(self, cause: str, in_flight: int, conn_in_flight: int,
                    max_in_flight: int, max_per_conn: int) -> None:
        """A shed decision, plus overload-burst escalation.

        Shed events fire before the request payload is parsed, so they are
        operation-type oblivious by construction — the fields describe the
        server's window state, never the request.
        """
        now = obs_clock.now()
        self.record(
            "transport.shed",
            cause=cause,
            in_flight=in_flight,
            conn_in_flight=conn_in_flight,
            max_in_flight=max_in_flight,
            max_in_flight_per_conn=max_per_conn,
        )
        with self._lock:
            if now - self._burst_window_start > OVERLOAD_BURST_WINDOW_S:
                self._burst_window_start = now
                self._burst_count = 0
            self._burst_count += 1
            burst = self._burst_count == OVERLOAD_BURST_THRESHOLD
        if burst:
            self.trigger("overload-burst", sheds_in_window=OVERLOAD_BURST_THRESHOLD)

    # ------------------------------------------------------------------ #
    # Triggers (exactly-once post-mortems)
    # ------------------------------------------------------------------ #

    def trigger(self, reason: str, **context: Any) -> dict[str, Any] | None:
        """Snapshot the ring once for ``reason``; later calls are no-ops.

        Returns the dump dict on the first call per reason (None after).
        When :data:`DUMP_DIR_ENV` names a directory, the dump is also
        written there as ``recorder-<reason>-pid<pid>.json`` so CI can
        upload post-mortems as failure artifacts.
        """
        with self._lock:
            if reason in self._triggers:
                return None
            # Reserve the key inside the lock so concurrent triggers for
            # the same reason dump exactly once.
            self._triggers[reason] = {}
        dump = self.export()
        dump["trigger"] = {"reason": reason, "time": obs_clock.now(), **context}
        with self._lock:
            self._triggers[reason] = dump
        dump_dir = os.environ.get(DUMP_DIR_ENV)
        if dump_dir:
            try:
                os.makedirs(dump_dir, exist_ok=True)
                path = os.path.join(
                    dump_dir, f"recorder-{reason}-pid{os.getpid()}.json"
                )
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(dump, handle, indent=2, default=str)
            except OSError:  # pragma: no cover - dump dir unwritable
                pass
        return dump

    def triggered(self) -> dict[str, dict[str, Any]]:
        """All trigger dumps taken so far, keyed by reason."""
        with self._lock:
            return dict(self._triggers)

    # ------------------------------------------------------------------ #
    # Inspection / export
    # ------------------------------------------------------------------ #

    def events(self, kind: str | None = None) -> list[RecorderEvent]:
        """Ring contents oldest-first, optionally filtered by kind."""
        with self._lock:
            seq = self._seq
            slots = list(self._slots)
        if seq <= self.capacity:
            ordered = [e for e in slots[:seq] if e is not None]
        else:
            pivot = seq % self.capacity
            ordered = [e for e in slots[pivot:] + slots[:pivot] if e is not None]
        if kind is not None:
            ordered = [e for e in ordered if e.kind == kind]
        return ordered

    def __len__(self) -> int:
        with self._lock:
            return min(self._seq, self.capacity)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring was full."""
        with self._lock:
            return self._dropped

    def export(self) -> dict[str, Any]:
        """JSON-ready snapshot: events, capacity, drop count."""
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": [e.to_dict() for e in self.events()],
        }

    def reset(self) -> None:
        """Drop all events, triggers, and burst state."""
        with self._lock:
            self._slots = [None] * self.capacity
            self._seq = 0
            self._dropped = 0
            self._triggers = {}
            self._burst_window_start = 0.0
            self._burst_count = 0


def merge_recorder_dumps(
    local_events: Iterable[dict[str, Any]],
    remote_dumps: Iterable[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Merge shard recorder dumps into one timeline.

    Mirrors :func:`repro.obs.propagate.merge_span_dumps`: each remote
    dump's events are tagged ``process="shard-<i>"`` (local events keep
    any tag they already carry, defaulting to ``"local"``), then the
    combined list is ordered by timestamp.  Clocks are per-process, so
    cross-process ordering is approximate — same as merged span dumps.
    """
    merged: list[dict[str, Any]] = []
    for event in local_events:
        event = dict(event)
        event.setdefault("process", "local")
        merged.append(event)
    for index, dump in enumerate(remote_dumps):
        for event in dump.get("events", []):
            event = dict(event)
            event.setdefault("process", f"shard-{index}")
            merged.append(event)
    merged.sort(key=lambda e: (e.get("time", 0.0), e.get("process", ""), e.get("seq", 0)))
    return merged


#: The process-wide recorder all built-in instrumentation writes to.
RECORDER = FlightRecorder()


__all__ = [
    "DEFAULT_CAPACITY",
    "DUMP_DIR_ENV",
    "OVERLOAD_BURST_THRESHOLD",
    "OVERLOAD_BURST_WINDOW_S",
    "FlightRecorder",
    "RecorderEvent",
    "RECORDER",
    "merge_recorder_dumps",
]
