"""Sampling profiler: local sampling, exports, and remote control frames.

The profiler is attach-only (never rides the global obs flag), so the
tests cover the explicit lifecycle: attach/detach singleton semantics,
sample correctness on a thread parked in a known function, collapsed and
Perfetto export validity, and the 0x62/0x63 control-frame round trip
against a live server.
"""

import json
import struct
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs import profiler
from repro.obs.profiler import SamplingProfiler
from repro.transport.pipeline import PipelinedLblClient
from repro.transport.server import (
    OBS_PROFILE_DUMP_TAG,
    OBS_PROFILE_START_TAG,
    OBS_PROFILE_STOP_TAG,
)
from tests.test_admission import serving

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(autouse=True)
def _detach():
    yield
    profiler.detach()


def _park(stop: threading.Event, beacon: threading.Event) -> None:
    beacon.set()
    while not stop.is_set():
        time.sleep(0.001)


def _with_parked_thread():
    stop, beacon = threading.Event(), threading.Event()
    thread = threading.Thread(target=_park, args=(stop, beacon), daemon=True)
    thread.start()
    beacon.wait(5.0)
    return stop, thread


# --------------------------------------------------------------------- #
# Sampling mechanics
# --------------------------------------------------------------------- #


def test_sample_sees_a_parked_thread_root_first():
    stop, thread = _with_parked_thread()
    try:
        prof = SamplingProfiler(interval_s=0.001)
        prof.sample()
        collapsed = prof.collapsed()
    finally:
        stop.set()
        thread.join()
    parked = "tests.test_profiler._park"
    target = next(
        l for l in collapsed.splitlines() if parked in l.rsplit(" ", 1)[0].split(";")
    )
    stack, count = target.rsplit(" ", 1)
    assert int(count) >= 1
    frames = stack.split(";")
    # Root-first: the thread bootstrap precedes the parked function.
    assert frames.index("threading._bootstrap") < frames.index(parked)


def test_background_thread_accumulates_samples():
    stop, thread = _with_parked_thread()
    try:
        prof = SamplingProfiler(interval_s=0.002).start()
        time.sleep(0.1)
        prof.stop()
    finally:
        stop.set()
        thread.join()
    assert prof.samples >= 10
    assert prof.elapsed_seconds() >= 0.1
    assert "_park" in prof.collapsed()
    # Stop is final until restarted; counts survive.
    before = prof.samples
    time.sleep(0.02)
    assert prof.samples == before


def test_collapsed_lines_are_well_formed():
    prof = SamplingProfiler(interval_s=0.001)
    prof.sample()
    for line in prof.collapsed().splitlines():
        stack, count = line.rsplit(" ", 1)
        assert int(count) > 0
        assert all(frame for frame in stack.split(";"))


def test_perfetto_export_is_loadable_shape():
    prof = SamplingProfiler(interval_s=0.001).start()
    time.sleep(0.05)
    prof.stop()
    trace = prof.perfetto()
    assert trace["metadata"]["samples"] == prof.samples
    events = trace["traceEvents"]
    assert events, "an active process must produce at least one stack"
    for event in events:
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"]["stack"].endswith(event["name"])
    # Durations tile the attached wall time (shares of elapsed).
    total_us = sum(e["dur"] for e in events)
    assert total_us == pytest.approx(prof.elapsed_seconds() * 1e6, rel=0.05)
    json.dumps(trace)  # must be JSON-serializable as-is


def test_export_summary_fields():
    prof = SamplingProfiler(interval_s=0.005)
    prof.sample()
    export = prof.export()
    assert export["interval_s"] == 0.005
    assert export["samples"] == 1
    assert isinstance(export["collapsed"], str)


def test_interval_must_be_positive():
    with pytest.raises(ConfigurationError):
        SamplingProfiler(interval_s=0.0)


def test_reset_drops_counts():
    prof = SamplingProfiler(interval_s=0.001)
    prof.sample()
    prof.reset()
    assert prof.samples == 0
    assert prof.collapsed() == ""


# --------------------------------------------------------------------- #
# Singleton attach/detach
# --------------------------------------------------------------------- #


def test_attach_is_idempotent_and_detach_returns_export():
    first = profiler.attach(interval_s=0.002)
    second = profiler.attach()
    assert first is second
    assert profiler.attached() is first
    time.sleep(0.05)
    export = profiler.detach()
    assert export is not None and export["samples"] > 0
    assert profiler.attached() is None
    assert profiler.detach() is None  # second detach: nothing attached


# --------------------------------------------------------------------- #
# Remote attach over the 0x62/0x63 control frames
# --------------------------------------------------------------------- #


def _start_frame(interval_us: int) -> bytes:
    return bytes([OBS_PROFILE_START_TAG]) + struct.pack(">I", interval_us)


def _profile_round_trip(client) -> dict:
    reply = client.submit(_start_frame(2000)).result(30)
    assert reply[:1] == bytes([OBS_PROFILE_DUMP_TAG])
    started = json.loads(reply[1:].decode("utf-8"))
    assert started == {"running": True, "interval_s": 0.002}
    time.sleep(0.2)
    reply = client.submit(bytes([OBS_PROFILE_STOP_TAG])).result(30)
    assert reply[:1] == bytes([OBS_PROFILE_DUMP_TAG])
    stopped = json.loads(reply[1:].decode("utf-8"))
    assert stopped["running"] is False
    return stopped["profile"]


def test_profile_control_frames_over_thread_transport():
    with serving() as server:
        with PipelinedLblClient(server.address) as client:
            profile = _profile_round_trip(client)
    assert profile["samples"] > 0
    assert profile["interval_s"] == 0.002


def test_profile_stop_without_start_reports_no_profile():
    with serving() as server:
        with PipelinedLblClient(server.address) as client:
            reply = client.submit(bytes([OBS_PROFILE_STOP_TAG])).result(30)
    body = json.loads(reply[1:].decode("utf-8"))
    assert body == {"running": False, "profile": None}


def test_profile_start_defaults_interval_without_operand():
    with serving() as server:
        with PipelinedLblClient(server.address) as client:
            reply = client.submit(bytes([OBS_PROFILE_START_TAG])).result(30)
            body = json.loads(reply[1:].decode("utf-8"))
            client.submit(bytes([OBS_PROFILE_STOP_TAG])).result(30)
    assert body["running"] is True
    assert body["interval_s"] == profiler.DEFAULT_INTERVAL_S
