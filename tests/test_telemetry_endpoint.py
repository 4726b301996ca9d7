"""The live telemetry path: the ``metrics_port=`` endpoint and the
per-target row ``repro doctor`` builds from it.

An HTTP GET against a server started with ``metrics_port=`` returns the
registry's JSON snapshot, which includes the round-trip p99 from the
log-bucket histogram (the client and the in-process server share the
global registry, which is exactly how a single-box deployment exposes
end-to-end latency at the shard).
"""

import json
import urllib.request

import pytest

from repro import obs
from repro.core.sharded import ShardedLblDeployment
from repro.obs.doctor import scrape, target_row
from repro.transport.server import LblTcpServer
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture()
def metrics_server():
    server = LblTcpServer(metrics_port=0)
    server.serve_in_background()
    yield server
    server.close()


def _metrics_url(server: LblTcpServer) -> str:
    host, port = server.metrics_address
    return f"http://{host}:{port}/metrics"


def _run_workload(server: LblTcpServer, num_keys: int = 8) -> None:
    deployment = ShardedLblDeployment(CONFIG, [server.address], pipeline_depth=4)
    try:
        deployment.initialize({f"k{i}": b"v" for i in range(num_keys)})
        obs.enable()
        deployment.access_pipelined(
            [Request.read(f"k{i}") for i in range(num_keys)]
        )
    finally:
        deployment.close()


def test_scrape_endpoint_serves_roundtrip_p99(metrics_server):
    _run_workload(metrics_server)
    with urllib.request.urlopen(_metrics_url(metrics_server), timeout=5) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/json"
        snapshot = json.loads(response.read())
    roundtrip = snapshot["log_histograms"]["transport.pipeline.roundtrip.seconds"]
    assert roundtrip["p99"] > 0.0
    assert roundtrip["p50"] <= roundtrip["p99"]
    assert roundtrip["count"] >= 8
    assert snapshot["counters"]["transport.requests_dispatched"] >= 8
    service = snapshot["log_histograms"]["transport.server.service.seconds"]
    assert service["p99"] > 0.0


def test_scrape_helper_and_target_row(metrics_server):
    _run_workload(metrics_server)
    url = _metrics_url(metrics_server)
    first = scrape(url)
    assert first  # reachable
    _run_workload(metrics_server)
    second = scrape(url)
    row = target_row("shard-0", second, first, interval_s=1.0)
    assert row["up"] is True
    assert row["ops_per_s"] is not None and row["ops_per_s"] > 0
    assert row["p99_ms"] is not None and row["p99_ms"] > 0
    assert row["requests"] >= 16


def test_scrape_returns_empty_for_unreachable_target():
    assert scrape("http://127.0.0.1:1/metrics", timeout=0.2) == {}
