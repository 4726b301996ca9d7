"""Flight recorder: bounded ring, exactly-once triggers, shed post-mortems.

The acceptance criteria exercised here:

* an overload burst against :class:`LblTcpServer` produces a
  flight-recorder dump that names the shed cause and the window occupancy
  at shed time;
* GET and PUT emit shape-identical recorder events (the shed path records
  window state only, never anything derived from the payload);
* the obliviousness auditor passes with the recorder enabled;
* the ring's memory stays bounded under sustained event storms, triggers
  dump exactly once, concurrent writers never tear an event, and the
  disabled path appends nothing.
"""

import json
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.clock import FakeClock, use_clock
from repro.obs.recorder import (
    OVERLOAD_BURST_THRESHOLD,
    FlightRecorder,
    RECORDER,
    merge_recorder_dumps,
)
from repro.transport import framing
from repro.types import Request
from tests.test_overload import CONFIG, make_proxy, occupy_window
from tests.test_admission import serving

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# --------------------------------------------------------------------- #
# Ring mechanics
# --------------------------------------------------------------------- #


@given(
    capacity=st.integers(min_value=1, max_value=64),
    total=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=50, deadline=None)
def test_ring_memory_bounded_under_sustained_events(capacity, total):
    """However many events arrive, the ring never holds more than capacity
    and accounts for every overwritten event in ``dropped``."""
    recorder = FlightRecorder(capacity=capacity)
    for i in range(total):
        recorder.record("storm", i=i)
    assert len(recorder) == min(total, capacity)
    assert recorder.dropped == max(0, total - capacity)
    events = recorder.events()
    # Oldest-first, contiguous, ending at the newest event.
    assert [e.fields["i"] for e in events] == list(
        range(max(0, total - capacity), total)
    )


def test_events_filter_by_kind():
    recorder = FlightRecorder(capacity=16)
    recorder.record("a", n=1)
    recorder.record("b", n=2)
    recorder.record("a", n=3)
    assert [e.fields["n"] for e in recorder.events("a")] == [1, 3]
    assert [e.kind for e in recorder.events()] == ["a", "b", "a"]


def test_concurrent_writers_never_tear_an_event():
    """Events from racing threads stay internally consistent: both fields
    of every event agree, and sequence numbers are unique."""
    recorder = FlightRecorder(capacity=4096)
    threads = 8
    per_thread = 200

    def hammer(thread_id: int) -> None:
        for i in range(per_thread):
            value = thread_id * per_thread + i
            recorder.record("race", a=value, b=value)

    workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    events = recorder.events()
    assert len(events) == threads * per_thread
    assert all(e.fields["a"] == e.fields["b"] for e in events)
    assert len({e.seq for e in events}) == len(events)


def test_trigger_dumps_exactly_once_even_under_races():
    recorder = FlightRecorder(capacity=16)
    recorder.record("before", n=1)
    results = []

    def fire():
        results.append(recorder.trigger("fault", detail="x"))

    workers = [threading.Thread(target=fire) for _ in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    dumps = [r for r in results if r is not None]
    assert len(dumps) == 1, "concurrent triggers for one reason dump once"
    dump = dumps[0]
    assert dump["trigger"]["reason"] == "fault"
    assert dump["trigger"]["detail"] == "x"
    assert [e["kind"] for e in dump["events"]] == ["before"]
    # The reason stays burned even after more events arrive.
    recorder.record("after", n=2)
    assert recorder.trigger("fault") is None
    # A different reason is independent.
    assert recorder.trigger("other") is not None
    assert set(recorder.triggered()) == {"fault", "other"}


def test_trigger_writes_dump_file_when_dir_configured(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RECORDER_DIR", str(tmp_path))
    recorder = FlightRecorder(capacity=8)
    recorder.record("evidence", n=7)
    recorder.trigger("unit-test", cause="deliberate")
    dumps = list(tmp_path.glob("recorder-unit-test-pid*.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text())
    assert payload["trigger"]["reason"] == "unit-test"
    assert payload["events"][0]["fields"] == {"n": 7}


def test_overload_burst_escalates_to_one_trigger():
    """THRESHOLD sheds inside one window trigger once; a later window,
    after the trigger, does not re-fire (exactly-once per reason)."""
    recorder = FlightRecorder(capacity=256)
    with use_clock(FakeClock(start=100.0)):
        for _ in range(OVERLOAD_BURST_THRESHOLD - 1):
            recorder.record_shed("global-window", 4, 1, 4, 8)
        assert "overload-burst" not in recorder.triggered()
        recorder.record_shed("global-window", 4, 1, 4, 8)
        assert "overload-burst" in recorder.triggered()
        for _ in range(OVERLOAD_BURST_THRESHOLD * 2):
            recorder.record_shed("global-window", 4, 1, 4, 8)
    assert len(recorder.triggered()) == 1


def test_shed_counts_reset_across_burst_windows():
    """Sheds spread thinly over many windows never escalate."""
    recorder = FlightRecorder(capacity=256)
    clock = FakeClock(start=0.0)
    with use_clock(clock):
        for _ in range(OVERLOAD_BURST_THRESHOLD * 3):
            recorder.record_shed("per-conn-window", 1, 1, 4, 1)
            clock.advance(2.0)  # every shed lands in its own window
    assert recorder.triggered() == {}


def test_merge_recorder_dumps_tags_and_orders():
    local = [{"seq": 0, "time": 5.0, "kind": "local.late", "fields": {}}]
    remote = [
        {"events": [{"seq": 0, "time": 1.0, "kind": "r0.early", "fields": {}}]},
        {"events": [{"seq": 0, "time": 3.0, "kind": "r1.mid", "fields": {}}]},
    ]
    merged = merge_recorder_dumps(local, remote)
    assert [e["kind"] for e in merged] == ["r0.early", "r1.mid", "local.late"]
    assert [e["process"] for e in merged] == ["shard-0", "shard-1", "local"]


def test_reset_clears_events_triggers_and_burst_state():
    recorder = FlightRecorder(capacity=8)
    recorder.record("x")
    recorder.trigger("gone")
    recorder.reset()
    assert len(recorder) == 0
    assert recorder.dropped == 0
    assert recorder.triggered() == {}


# --------------------------------------------------------------------- #
# Disabled path: zero events
# --------------------------------------------------------------------- #


def test_disabled_path_appends_zero_events():
    """With observability off, a full workload (accesses, cache traffic,
    counter surgery) must not append a single recorder event."""
    from repro.core.lbl import LblOrtoa

    assert len(RECORDER) == 0
    store = LblOrtoa(CONFIG, rng=random.Random(0))
    store.initialize({f"k-{i}": b"v" for i in range(4)})
    for i in range(4):
        store.access(Request.read(f"k-{i}"))
        store.access(Request.write(f"k-{i}", CONFIG.pad(b"w")))
    store.proxy.force_counter("k-0", 17)
    assert len(RECORDER) == 0


def test_shed_path_records_nothing_when_obs_disabled():
    proxy = make_proxy()
    proxy.initial_records({"k": bytes(16)})
    request, _ = proxy.prepare(Request.read("k"))
    with serving(max_in_flight=1, response_delay_s=1.0) as server:
        blocker = occupy_window(server)
        try:
            sock = socket.create_connection(server.address, timeout=30)
            try:
                framing.send_frame(
                    sock, framing.wrap_mux(9, request.to_bytes())
                )
                framing.recv_frame(sock)  # the OVERLOAD reply
            finally:
                sock.close()
        finally:
            blocker.close()
    assert len(RECORDER) == 0


# --------------------------------------------------------------------- #
# Acceptance: overload burst -> dump naming cause and occupancy
# --------------------------------------------------------------------- #


def _shed_once(address, payload: bytes, request_id: int) -> bytes:
    sock = socket.create_connection(address, timeout=30)
    try:
        framing.send_frame(sock, framing.wrap_mux(request_id, payload))
        return framing.recv_frame(sock)
    finally:
        sock.close()


def test_overload_burst_produces_dump_with_cause_and_occupancy(
    tmp_path, monkeypatch
):
    """An overload burst against the server leaves a post-mortem dump whose shed events carry the
    cause and the window occupancy at shed time."""
    monkeypatch.setenv("REPRO_RECORDER_DIR", str(tmp_path))
    proxy = make_proxy()
    proxy.initial_records({"k": bytes(16)})
    request, _ = proxy.prepare(Request.read("k"))
    payload = request.to_bytes()

    obs.enable()
    with serving(max_in_flight=1, response_delay_s=2.0) as server:
        blocker = occupy_window(server)
        try:
            for i in range(OVERLOAD_BURST_THRESHOLD + 4):
                _shed_once(server.address, payload, 100 + i)
        finally:
            blocker.close()

    triggered = RECORDER.triggered()
    assert "overload-burst" in triggered, triggered.keys()
    dump = triggered["overload-burst"]
    assert dump["trigger"]["sheds_in_window"] == OVERLOAD_BURST_THRESHOLD

    sheds = [e for e in dump["events"] if e["kind"] == "transport.shed"]
    assert len(sheds) >= OVERLOAD_BURST_THRESHOLD
    for event in sheds:
        fields = event["fields"]
        assert fields["cause"] == "global-window"
        assert fields["in_flight"] == fields["max_in_flight"] == 1
        assert fields["max_in_flight_per_conn"] == server.max_in_flight_per_conn

    # The same dump landed on disk for CI to collect as an artifact.
    files = list(tmp_path.glob("recorder-overload-burst-pid*.json"))
    assert len(files) == 1
    on_disk = json.loads(files[0].read_text())
    assert on_disk["trigger"]["reason"] == "overload-burst"


def test_window_occupancy_transitions_are_recorded():
    """Crossing into and out of a full window leaves boundary events."""
    obs.enable()
    with serving(max_in_flight=1, response_delay_s=0.3) as server:
        blocker = occupy_window(server)
        try:
            deadline = time.time() + 5.0
            while not RECORDER.events("transport.window.full"):
                assert time.time() < deadline, "window-full event never recorded"
                time.sleep(0.01)
        finally:
            blocker.close()
        deadline = time.time() + 5.0
        while not RECORDER.events("transport.window.available"):
            assert time.time() < deadline, "window-available event never recorded"
            time.sleep(0.01)
    full = RECORDER.events("transport.window.full")[0]
    assert full.fields == {"in_flight": 1, "max_in_flight": 1}


# --------------------------------------------------------------------- #
# Acceptance: GET/PUT recorder-event shape identity + audit
# --------------------------------------------------------------------- #


def test_get_and_put_emit_shape_identical_recorder_events():
    """A shed GET run and a shed PUT run produce the same event kinds with
    the same field names *and values* — nothing derived from the payload
    reaches the recorder."""
    proxy = make_proxy()
    proxy.initial_records({"k": bytes(16)})
    get_request, _ = proxy.prepare(Request.read("k"))
    put_request, _ = proxy.prepare(Request.write("k", b"\x07" * 16))

    shapes = []
    for payload in (get_request.to_bytes(), put_request.to_bytes()):
        obs.reset()
        obs.enable()
        with serving(max_in_flight=1, response_delay_s=1.0) as server:
            blocker = occupy_window(server)
            try:
                _shed_once(server.address, payload, 42)
            finally:
                blocker.close()
        obs.disable()
        shapes.append(
            [
                (e.kind, tuple(sorted(e.fields.items())))
                for e in RECORDER.events("transport.shed")
            ]
        )

    shed_get, shed_put = shapes
    assert shed_get, "the shed path must record at least one event"
    assert shed_get == shed_put


def test_auditor_passes_with_recorder_enabled():
    """Obliviousness audit over a sharded deployment with the recorder
    on: the GET/PUT ledger identity still holds."""
    from repro.core.sharded import ShardedLblDeployment
    from repro.obs.audit import run_sharded_audit
    from repro.transport.cluster import ShardCluster

    with ShardCluster(2, in_process=True) as cluster:
        deployment = ShardedLblDeployment(
            CONFIG, cluster.addresses, rng=random.Random(0), pipeline_depth=4
        )
        try:
            report = run_sharded_audit(
                deployment, num_keys=16, seed=0, pipeline_depth=4
            )
        finally:
            deployment.close()
    assert report.passed, report.summary()
