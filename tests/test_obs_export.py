"""Exporter tests: Chrome trace schema, nesting, exports under concurrent writes.

The hypothesis test is the load-bearing one: whatever span forest the
tracer produces, the Chrome trace export must preserve the parent/child
nesting exactly (ids travel in ``args``), and every complete event must
stay inside its parent's time window — otherwise Perfetto renders a
correct-looking but wrong timeline.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.clock import FakeClock, use_clock
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

REQUIRED_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# --------------------------------------------------------------------- #
# Chrome trace events
# --------------------------------------------------------------------- #

def _traced_forest():
    obs.enable()
    tracer = Tracer()
    with use_clock(FakeClock(auto_advance=1.0)):
        with tracer.span("access", shard=3):
            with tracer.span("prepare"):
                pass
            with tracer.span("roundtrip"):
                pass
    return tracer.export()


def test_chrome_trace_schema():
    trace = chrome_trace(_traced_forest(), clock_unit="tick")
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    assert len(trace["traceEvents"]) == 3
    for event in trace["traceEvents"]:
        assert REQUIRED_EVENT_KEYS <= set(event)
        assert event["ph"] == "X"
        assert isinstance(event["ts"], float)
        assert isinstance(event["dur"], float)
        assert event["dur"] >= 0
    by_name = {e["name"]: e for e in trace["traceEvents"]}
    assert by_name["access"]["args"]["shard"] == 3
    assert by_name["prepare"]["args"]["parent_id"] == (
        by_name["access"]["args"]["span_id"]
    )


def test_chrome_trace_skips_open_spans():
    spans = _traced_forest()
    spans.append(dict(spans[0], span_id=99, end=None))
    assert len(chrome_trace(spans)["traceEvents"]) == 3


def test_chrome_trace_pid_comes_from_process_attribute():
    spans = _traced_forest()
    spans[0]["attributes"]["process"] = "shard-1"
    events = chrome_trace(spans)["traceEvents"]
    assert {e["pid"] for e in events} == {"client", "shard-1"}
    # The routing attribute is consumed, not duplicated into args.
    tagged = [e for e in events if e["pid"] == "shard-1"]
    assert "process" not in tagged[0]["args"]


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), _traced_forest(), clock_unit="tick")
    assert count == 3
    data = json.loads(path.read_text(encoding="utf-8"))
    assert len(data["traceEvents"]) == 3


@st.composite
def _span_forests(draw):
    """A random span forest via the real tracer: each step either opens a
    child span, closes the current one, or opens a sibling root."""
    ops = draw(st.lists(st.sampled_from(["push", "pop", "root"]), max_size=30))
    tracer = Tracer()
    stack = []
    with use_clock(FakeClock(auto_advance=1.0)):
        for index, op in enumerate(ops):
            if op == "pop" and stack:
                tracer.end(stack.pop())
            elif op == "root":
                while stack:
                    tracer.end(stack.pop())
                stack.append(tracer.start_span(f"s{index}", root=True))
            else:
                parent = stack[-1] if stack else None
                stack.append(tracer.start_span(f"s{index}", parent=parent))
        while stack:
            tracer.end(stack.pop())
    return tracer.export()


@settings(max_examples=50, deadline=None)
@given(_span_forests())
def test_chrome_trace_preserves_nesting(spans):
    obs.enable()
    events = chrome_trace(spans, clock_unit="tick")["traceEvents"]
    assert len(events) == len(spans)
    original = {s["span_id"]: s for s in spans}
    exported = {e["args"]["span_id"]: e for e in events}
    assert set(exported) == set(original)
    for span_id, event in exported.items():
        span = original[span_id]
        assert event["args"]["parent_id"] == span["parent_id"]
        assert event["tid"] == span["trace_id"]
        # Containment: a child event's window sits inside its parent's.
        parent_id = span["parent_id"]
        if parent_id is not None:
            parent = exported[parent_id]
            assert parent["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]


# --------------------------------------------------------------------- #
# Snapshot-under-write: exports while other threads mutate
# --------------------------------------------------------------------- #

def test_concurrent_export_while_writers_mutate():
    obs.enable()
    registry = MetricsRegistry()
    tracer = Tracer()
    started = threading.Barrier(5)
    errors = []
    WRITES = 500

    def writer(index):
        try:
            started.wait(timeout=10)
            for _ in range(WRITES):
                registry.counter(f"w{index}.ops").inc()
                registry.log_histogram(f"w{index}.seconds").observe(0.001 * index + 1e-6)
                with tracer.span(f"w{index}.span"):
                    pass
        except Exception as exc:  # noqa: BLE001 - surfaced to the assert
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    started.wait(timeout=10)
    try:
        while any(thread.is_alive() for thread in threads):
            snapshot = json.loads(registry.to_json())
            assert set(snapshot) == {"counters", "gauges", "log_histograms"}
            trace = chrome_trace(tracer.export())
            json.dumps(trace)  # must always be serializable mid-write
    finally:
        for thread in threads:
            thread.join(timeout=30)
    assert errors == []
    # After the writers stop, exports are complete and consistent.
    final = json.loads(registry.to_json())
    for index in range(4):
        total = final["counters"][f"w{index}.ops"]
        count = final["log_histograms"][f"w{index}.seconds"]["count"]
        assert total == count == WRITES
