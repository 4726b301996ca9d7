"""Capacity-limited resources for the simulation kernel.

The experiment harness models proxy worker pools and server cores as
:class:`Resource` instances: a request either starts immediately (capacity
available) or queues FIFO.  This is what produces the paper's Figure 2b
behaviour — latency spiking once client concurrency exceeds server cores.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.errors import ConfigurationError, SimulationError
from repro.sim.core import Environment, Event


class Resource:
    """A FIFO resource with integer capacity.

    Usage inside a process generator::

        grant = resource.request()
        yield grant
        try:
            yield env.timeout(work)
        finally:
            resource.release(grant)

    Or, equivalently, ``yield from resource.use(env, work)``.
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Event] = deque()
        #: grant event -> simulation time the grant was issued.
        self._granted: dict[Event, float] = {}
        #: Accumulated capacity-seconds of granted time (for utilization).
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        """Capacity units currently granted."""
        return self._in_use

    def utilization(self, duration: float) -> float:
        """Fraction of capacity-time spent granted over ``duration``."""
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        return self.busy_time / (duration * self.capacity)

    def request(self) -> Event:
        """Return an event that fires when a unit of capacity is granted."""
        grant = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted[grant] = self.env.now
            grant.succeed(grant)
        else:
            self._waiting.append(grant)
        return grant

    def release(self, grant: Event) -> None:
        """Return a previously granted unit of capacity."""
        if grant not in self._granted:
            raise SimulationError("releasing a grant that was never issued")
        self.busy_time += self.env.now - self._granted.pop(grant)
        if self._waiting:
            waiter = self._waiting.popleft()
            self._granted[waiter] = self.env.now
            waiter.succeed(waiter)
        else:
            self._in_use -= 1

    def use(self, env: Environment, hold_time: float) -> Generator[Event, None, None]:
        """Acquire, hold for ``hold_time``, release — the common pattern."""
        grant = self.request()
        yield grant
        try:
            yield env.timeout(hold_time)
        finally:
            self.release(grant)


__all__ = ["Resource"]
