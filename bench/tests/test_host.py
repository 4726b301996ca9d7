"""The ``/proc`` CPU, memory and steal readers and the canary loop."""

import os
import time

import pytest

from bench import host


def test_stat_parser_survives_spaces_and_parens_in_the_command_name():
    line = "4242 (python3 (shard) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 137 45 0 0 20 0 9 0"
    assert host.parse_stat_cpu_ticks(line) == 137 + 45


def test_process_cpu_grows_with_work():
    before = host.process_cpu_s(os.getpid())
    deadline = time.process_time() + 0.15
    while time.process_time() < deadline:
        sum(range(1000))
    assert host.process_cpu_s(os.getpid()) - before >= 0.1


def test_status_parser_and_peak_rss():
    text = "Name:\tpython3\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
    assert host.parse_status_kib(text, "VmHWM") == 20480
    assert host.peak_rss_mib(os.getpid()) > 5.0


def test_proc_stat_parser_reads_steal_and_total():
    text = "cpu  100 5 50 800 20 0 5 20 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
    assert host.parse_proc_stat(text) == (20, 1000)
    steal, total = host.host_cpu_ticks()
    assert 0 <= steal <= total and total > 0


def test_canary_keeps_its_share_and_scales_to_the_reference():
    canary = host.Canary(share=0.5)
    canary.keep_up(since_s=time.perf_counter() - 0.02)  # 20 ms of work so far
    assert canary.samples_ms and canary.wall_s >= 0.005
    assert canary.cpu_s > 0.0 and len(canary.times_s) == len(canary.samples_ms)
    assert canary.scale() == pytest.approx(host.CANARY_REF_MS / canary.mean_ms())


def test_a_call_is_scaled_by_the_samples_around_it():
    canary = host.Canary()
    # A quiet host (4 ms samples) for 10 s, then a contended one (8 ms samples).
    canary.times_s = [float(second) for second in range(20)]
    canary.samples_ms = [4.0] * 10 + [8.0] * 10
    assert canary.scale_at(2.5) == 1.0
    assert canary.scale_at(17.5) == 0.5
    assert 0.5 < canary.scale_at(9.5) < 1.0
    assert canary.scale_at(-5.0) == 1.0 and canary.scale_at(99.0) == 0.5
    assert canary.drift() == 1.0
    few = host.Canary()
    few.times_s, few.samples_ms = [1.0, 2.0], [4.0, 8.0]
    assert few.scale_at(1.5) == pytest.approx(host.CANARY_REF_MS / 6.0)


def test_pinning_keeps_the_previous_affinity_for_restoring():
    before = os.sched_getaffinity(0)
    try:
        previous, pinned = host.pin_apart(os.getpid())
        assert previous == before
        assert pinned == (len(before) >= 2)
        if pinned:
            assert len(os.sched_getaffinity(0)) == 1
    finally:
        os.sched_setaffinity(0, before)
