"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Resource


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0, 7.5]


def test_parallel_processes_interleave():
    env = Environment()
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append((name, env.now))

    env.process(proc(env, "slow", 10))
    env.process(proc(env, "fast", 1))
    env.run()
    assert log == [("fast", 1), ("slow", 10)]


def test_process_return_value():
    env = Environment()
    result = {}

    def child(env):
        yield env.timeout(3)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        result["value"] = value
        result["time"] = env.now

    env.process(parent(env))
    env.run()
    assert result == {"value": 42, "time": 3}


def test_waiting_on_already_completed_process():
    env = Environment()
    seen = []

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env, child_proc):
        yield env.timeout(10)  # child completed long ago
        value = yield child_proc
        seen.append((value, env.now))

    child_proc = env.process(child(env))
    env.process(parent(env, child_proc))
    env.run()
    assert seen == [("done", 10)]


def test_event_succeed_delivers_value():
    env = Environment()
    got = []

    def waiter(env, ev):
        value = yield ev
        got.append(value)

    def trigger(env, ev):
        yield env.timeout(4)
        ev.succeed("payload")

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert got == ["payload"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger(env, ev):
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_stops_clock():
    env = Environment()
    ticks = []

    def clock(env):
        while True:
            yield env.timeout(10)
            ticks.append(env.now)

    env.process(clock(env))
    env.run(until=35)
    assert ticks == [10, 20, 30]
    assert env.now == 35


def test_yielding_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_resource_limits_concurrency():
    env = Environment()
    active = {"now": 0, "max": 0}
    finished = []

    def worker(env, res):
        yield from _use(env, res, active)
        finished.append(env.now)

    res = Resource(env, capacity=2)
    for _ in range(4):
        env.process(worker(env, res))
    env.run()
    assert active["max"] == 2
    # Two workers run [0,10), two more [10,20).
    assert finished == [10, 10, 20, 20]


def _use(env, res, active):
    grant = res.request()
    yield grant
    active["now"] += 1
    active["max"] = max(active["max"], active["now"])
    try:
        yield env.timeout(10)
    finally:
        active["now"] -= 1
        res.release(grant)


def test_resource_use_helper():
    env = Environment()
    times = []

    def worker(env, res):
        yield from res.use(env, 5)
        times.append(env.now)

    res = Resource(env, capacity=1)
    env.process(worker(env, res))
    env.process(worker(env, res))
    env.run()
    assert times == [5, 10]


def test_resource_release_requires_grant():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release(env.event())


def test_resource_fifo_order():
    env = Environment()
    order = []

    def worker(env, res, name):
        grant = res.request()
        yield grant
        order.append(name)
        yield env.timeout(1)
        res.release(grant)

    res = Resource(env, capacity=1)
    for name in ("a", "b", "c"):
        env.process(worker(env, res, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_resource_busy_time_and_utilization():
    env = Environment()
    res = Resource(env, capacity=2)

    def worker(env):
        yield from res.use(env, 10)

    for _ in range(3):
        env.process(worker(env))
    env.run()
    # Two run [0,10), one runs [10,20): 30 units of busy time over 20 time
    # units at capacity 2 -> utilization 0.75.
    assert res.busy_time == 30
    assert res.utilization(20) == pytest.approx(0.75)
    with pytest.raises(ConfigurationError):
        res.utilization(0)
