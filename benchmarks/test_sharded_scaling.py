"""Throughput scaling of the sharded, pipelined deployment (loopback).

Two scaling axes, each measured with real sockets on localhost:

* **shard count** — per-request *service time* is emulated with a small
  server-side delay so that capacity, not this machine's core count,
  is what the measurement exercises; aggregate throughput should grow
  near-linearly with shards because the deployment keeps every shard's
  pipeline full concurrently (§6.2.4's scale-out claim);
* **pipeline depth** — the same emulated delay stands in for a WAN round
  trip; depth D keeps D requests in flight so throughput approaches
  D× lockstep until the server's worker pool saturates.

Acceptance gates (asserted here, tables under ``results/``): 2 shards >
1.4× and 4 shards ≥ 2× the 1-shard batch throughput; depth 2 > 1.2× and
depth 8 ≥ 2× lockstep.
"""

from conftest import save_table

from repro.harness.report import render_table
from repro.transport.cluster import measure_pipeline_gain, measure_shard_scaling


def test_shard_scaling_throughput():
    rows = measure_shard_scaling(shard_counts=(1, 2, 4), num_requests=64, seed=0)
    save_table(
        "sharded_scaling",
        render_table("Batch throughput vs shard count (emulated 20 ms service time)", rows),
    )
    by_shards = {row["shards"]: row for row in rows}
    assert by_shards[2]["speedup_vs_1shard"] > 1.4
    assert by_shards[4]["speedup_vs_1shard"] >= 2.0


def test_pipeline_depth_throughput():
    rows = measure_pipeline_gain(depths=(1, 2, 8), num_requests=48, seed=0)
    save_table(
        "pipeline_depth",
        render_table("Pipelined throughput vs depth (emulated 10 ms RTT, 1 shard)", rows),
    )
    by_depth = {row["depth"]: row for row in rows}
    assert by_depth[2]["speedup_vs_lockstep"] > 1.2
    assert by_depth[8]["speedup_vs_lockstep"] >= 2.0
