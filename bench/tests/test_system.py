"""The composed stack: staged spans, the layer budget, the oracle, clean teardown."""

import dataclasses
import multiprocessing
import os

import pytest

from repro.types import Request

from bench import measure, tracing
from bench.system import Checker, booted
from bench.workload import load_specs


def _small(name, **changes):
    changes = {"keys": 32, "warmup_calls": 1, "slices": 2, **changes}
    return dataclasses.replace(load_specs()[name], **changes)


def _by_request(log):
    requests = {}
    for index, row in enumerate(log.rows):
        requests.setdefault(row[4], []).append((index, row))
    return requests


@pytest.mark.parametrize("name", ["tiny_burst", "smallbank_batch"])
def test_spans_of_a_request_nest_and_the_budget_adds_up(name):
    spec = _small(name, value_len=4)
    staged = tracing.Staged(spec)
    affinity = os.sched_getaffinity(0)
    with booted(spec, 3, load=staged.load, drive=staged.drive) as system:
        log, canary = tracing.run_traced(system, staged, steps=12)
        window = measure.run_window(system, 0.4)
        assert system.checker.failed == 0 and system.checker.oblivious_shapes()
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == affinity  # pinning is undone on the way out

    requests = _by_request(log)
    assert len(requests) == 12
    for spans in requests.values():
        names = [row[0] for _index, row in spans]
        assert names == ["step", *tracing.STAGES, "dispatch", *tracing.SERVER_STAGES]
        by_id = dict(spans)
        for _index, (span_name, start, end, parent, _rid, ms) in spans:
            assert end >= start and ms >= 0.0
            if parent is None:
                assert span_name == "step"
                continue
            _pname, parent_start, parent_end, *_ = by_id[parent]  # same request id
            assert parent_start <= start and end <= parent_end
        root_start, root_end = spans[0][1][1], spans[0][1][2]
        stage_total = sum(row[2] - row[1] for _i, row in spans[1:6])
        assert stage_total <= root_end - root_start

    untraced = window.latency_ms(0.5)
    per_call = spec.accesses_per_call if spec.staged_per_access else 1
    rows = tracing.budget(tracing.stage_p50s(log, canary), untraced, per_call)
    assert rows[-1][0] == "trace.unattributed"
    assert sum(share for _stage, _ms, share in rows) == pytest.approx(1.0)
    assert sum(ms for _stage, ms, _share in rows) == pytest.approx(untraced)
    assert staged.counts.accesses == 12 * (1 if spec.staged_per_access else 16)


def test_shard_process_is_reaped_when_the_body_raises():
    spec = _small("tiny_burst")
    with pytest.raises(RuntimeError, match="boom"):
        with booted(spec, 1) as system:
            assert len(multiprocessing.active_children()) == 1
            assert system.shard_pid == multiprocessing.active_children()[0].pid
            raise RuntimeError("boom")
    assert multiprocessing.active_children() == []


def test_shard_process_is_reaped_when_setup_raises():
    def failing_load(_system, _records):
        raise RuntimeError("load failed")

    with pytest.raises(RuntimeError, match="load failed"):
        with booted(_small("tiny_burst"), 1, load=failing_load):
            pytest.fail("body must not run")
    assert multiprocessing.active_children() == []


def test_checker_counts_wrong_values_and_shape_leaks():
    checker = Checker({"a": b"\x01\x02"})
    assert checker.reply(Request.read("a"), b"\x01\x02", 100, 10)
    assert checker.reply(Request.write("a", b"\x07\x07"), b"\x07\x07", 100, 10)
    assert checker.oblivious_shapes() and checker.failed == 0
    assert not checker.reply(Request.read("a"), b"\x01\x02", 100, 10)  # stale value
    assert (checker.attempted, checker.failed) == (3, 1)
    checker.reply(Request.write("a", b"\x00\x00"), b"\x00\x00", 101, 10)
    assert not checker.oblivious_shapes()
    checker.raised([Request.read("a")] * 4, ValueError("refused"))
    assert (checker.attempted, checker.failed) == (8, 5)
