"""Generator-based discrete-event simulation kernel.

Processes are Python generators that ``yield`` events; the environment steps
simulated time from event to event.  The API is a deliberately small subset
of the well-known simpy model:

    env = Environment()

    def client(env):
        yield env.timeout(5.0)
        print("woke at", env.now)

    env.process(client(env))
    env.run()

Times are plain floats; the experiment harness uses milliseconds throughout.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.errors import SimulationError

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot event that processes can wait on.

    An event is *triggered* with a value (delivered to every waiter) or
    *failed* with an exception (raised inside every waiting process).
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.value: Any = None
        self.exception: BaseException | None = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, scheduling all waiters at the current time."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception instead of a value."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.exception = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.triggered = True
        self.value = value
        env._schedule(self, delay)


class Process(Event):
    """Wraps a generator; the process event fires when the generator returns.

    The generator's ``return`` value becomes the event value, so processes can
    wait for each other: ``result = yield env.process(sub(env))``.
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        super().__init__(env)
        self._generator = generator
        # Bootstrap: resume once at the current time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.triggered = True
        env._schedule(bootstrap)

    def _resume(self, event: Event) -> None:
        try:
            if event.exception is not None:
                target = self._generator.throw(event.exception)
            else:
                target = self._generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected an Event"
            )
        if target in self.env._processed:
            # The event already fired and its callbacks ran; waiting on its
            # callback list would hang forever, so resume via a fresh
            # zero-delay event carrying the same outcome.
            immediate = Event(self.env)
            immediate.triggered = True
            immediate.value = target.value
            immediate.exception = target.exception
            immediate.callbacks.append(self._resume)
            self.env._schedule(immediate)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """Owns the simulation clock and the pending-event heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._processed: set[Event] = set()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    # ------------------------------------------------------------------ #
    # Scheduling and execution
    # ------------------------------------------------------------------ #

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))
        self._sequence += 1

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("no more events to process")
        time, _, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        self._processed.add(event)
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains or the clock passes ``until``."""
        while self._heap:
            next_time = self._heap[0][0]
            if until is not None and next_time > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = max(self.now, until)


__all__ = ["Environment", "Event", "Process", "Timeout", "ProcessGenerator"]
