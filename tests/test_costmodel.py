"""Model == ledger: the cost model's closed forms against measured reality.

The tentpole contract of :mod:`repro.analysis.costmodel`: for GET and PUT,
the symbolic bytes-per-access and ops-per-access must equal the wire ledger
*exactly* — not approximately.  These tests are what licenses the capacity
planner and the dollar estimate to present model outputs as measurements.
"""

import pytest

from repro import obs
from repro.analysis.costmodel import LblCostModel, plan_capacity, run_model_check
from repro.core.sharded import ShardedLblDeployment
from repro.errors import ConfigurationError
from repro.obs import ledger
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(120)

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# --------------------------------------------------------------------- #
# The validation matrix: value sizes x {lockstep, batch} x {GET, PUT}
# --------------------------------------------------------------------- #

def test_model_matches_ledger_across_backends_and_sizes():
    """GET and PUT at 3 value sizes, lockstep and in a batch window."""
    report = run_model_check(value_sizes=(4, 8, 16))
    failing = [case for case in report["cases"] if not case["ok"]]
    assert report["ok"], f"model/ledger mismatches: {failing}"
    assert len(report["cases"]) == 3 * 2 * 2


def test_model_check_reports_wire_and_ops_evidence():
    report = run_model_check(value_sizes=(8,))
    (get_case, put_case) = [c for c in report["cases"] if c["path"] == "lockstep"]
    assert get_case["op"] == "get" and put_case["op"] == "put"
    for case in (get_case, put_case):
        assert case["expected_ops"] == case["actual_ops"]
        assert case["expected_wire"] == case["actual_wire"]
        assert case["expected_wire"]["access.sent"] > 0
    # Obliviousness at the resource level: both ops cost the same.
    assert get_case["expected_ops"] == put_case["expected_ops"]
    assert get_case["expected_wire"] == put_case["expected_wire"]


@pytest.mark.parametrize(
    "label_bits, message", [(64, "at least 128"), (120, "at least 128"), (448, "at most 440")]
)
def test_model_rejects_a_label_width_no_access_can_use(capsys, label_bits, message):
    """The planner refuses what ``StoreConfig`` refuses, with its message and
    exit status 2, instead of planning a deployment no access can use."""
    from repro.cli import main

    with pytest.raises(ConfigurationError, match=message):
        LblCostModel(value_len=8, group_bits=2, label_bits=label_bits)
    assert main(["plan", "--label-bits", str(label_bits)]) == 2
    assert message in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Sharded deployments: {1, 4} shards, pipelined rows vs the model
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("num_shards", [1, 4])
def test_sharded_pipelined_rows_match_model(num_shards):
    """Every pipelined access's client row equals the model, and the rows
    sum to the transport's registry totals (no bytes lost or invented)."""
    obs.enable()
    keys = [f"cm{i}" for i in range(8)]
    with ShardCluster(num_shards, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses, pipeline_depth=4)
        try:
            deployment.initialize({key: b"\x01" * 16 for key in keys})
            obs.reset()  # meter only the accesses, not the bulk load
            requests = [
                Request.read(key) if i % 2 == 0 else Request.write(key, b"\x02" * 16)
                for i, key in enumerate(keys)
            ]
            epochs = {key: deployment.proxy.counter(key) for key in keys}
            deployment.access_pipelined(requests, depth=4)
        finally:
            deployment.close()

    rows = {
        row.label.split(":", 1)[1]: row.snapshot()
        for row in ledger.completed_rows()
        if row.label.startswith("pipelined:")
    }
    assert sorted(rows) == sorted(keys)

    for key in keys:
        model = LblCostModel.from_config(CONFIG, key=key, counter=epochs[key])
        expected_ops = model.ops(include_server=False)
        snap = rows[key]
        assert {
            name: snap["ops"].get(name, 0) for name in expected_ops
        } == expected_ops, key
        assert snap["wire"] == {
            "access.sent": model.framed_request_bytes(traced=True),
            "access.received": model.framed_response_bytes(),
        }, key

    # Attribution exactness: the per-request rows sum to the client-role
    # socket totals the transport metered independently.
    wire_totals = ledger.registry_wire_snapshot()
    assert wire_totals["client.access.sent"] == sum(
        snap["wire"]["access.sent"] for snap in rows.values()
    )
    assert wire_totals["client.access.received"] == sum(
        snap["wire"]["access.received"] for snap in rows.values()
    )


@pytest.mark.parametrize("num_shards", [1, 4])
def test_sharded_batch_rows_sum_to_transport_totals(num_shards):
    """Batch sub-message attribution: per-request shares plus envelopes
    reproduce the socket byte counts exactly."""
    obs.enable()
    keys = [f"b{i}" for i in range(10)]
    with ShardCluster(num_shards, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses)
        try:
            deployment.initialize({key: b"\x03" * 16 for key in keys})
            obs.reset()
            deployment.access_batch(
                [
                    Request.read(key)
                    if i % 2
                    else Request.write(key, b"\x04" * 16)
                    for i, key in enumerate(keys)
                ]
            )
        finally:
            deployment.close()

    rows = [
        row.snapshot()
        for row in ledger.completed_rows()
        if row.label.startswith("batched:")
    ]
    assert len(rows) == len(keys)
    wire_totals = ledger.registry_wire_snapshot()
    assert wire_totals["client.batch.sent"] == sum(
        snap["wire"].get("batch.sent", 0) for snap in rows
    )
    assert wire_totals["client.batch.received"] == sum(
        snap["wire"].get("batch.received", 0) for snap in rows
    )


# --------------------------------------------------------------------- #
# Framed and batch byte formulas
# --------------------------------------------------------------------- #

def test_batch_bytes_formula_composes_per_access_bytes():
    model = LblCostModel(value_len=16, group_bits=2)
    n = 5
    assert model.batch_request_bytes(n, traced=True) == (
        4 + 25 + 1 + n * (4 + model.request_bytes)
    )
    assert model.batch_response_bytes(n) == 4 + 9 + 1 + n * (
        4 + model.response_bytes
    )


def test_paper_configuration_bytes():
    """The paper's y=2 configuration: 160 B values, 128-bit labels."""
    model = LblCostModel(value_len=160, group_bits=2)
    assert model.num_groups == 640
    assert model.table_size == 4
    assert model.entry_len == 16 + 1 + 8
    # tag + (shape + nonce) + key + slab, three length-prefixed fields.
    assert model.request_bytes == 1 + (4 + 20) + (4 + 16) + (4 + 640 * 4 * 25) == 64_049
    assert model.response_bytes == 1 + 2 + 640 * 16 == 10_243
    assert model.bytes_per_access == 74_292
    assert model.entry_compressions == 3
    # Calls made: two epochs and the key encoding; the XOF absorbs one block
    # and squeezes ceil(41,600 / 136) = 306 per epoch.
    assert model.ops() == {
        "prf.calls": 3,
        "sha256.compressions": 2,
        "shake256.blocks": 2 * (1 + 306),
        "aead.encrypts": 2560,
        "aead.decrypts": 640,
        "aes.blocks": 7680 + 1920,
    }
    assert model.ops(include_server=False)["aes.blocks"] == 7680
    assert model.proxy_hash_blocks() == 614 + 2 + 2560 * 3


@pytest.mark.parametrize("label_bits", [128, 192, 256])
@pytest.mark.parametrize("group_bits", [1, 2, 8])
def test_wire_bytes_and_entry_hashing_match_the_implementation(
    monkeypatch, group_bits, label_bits
):
    """Every shape the model has a formula for, against real messages and a
    block count taken inside the row kernel, at the cipher context."""
    from repro.core.lbl import LblOrtoa
    from repro.crypto import rows

    config = StoreConfig(value_len=3, group_bits=group_bits, label_bits=label_bits)
    model = LblCostModel.from_config(config)
    store = LblOrtoa(config)
    store.initialize({"k": b"abc"})

    calls: list[int] = []
    rows._permute(b"")  # this thread's context exists
    permute = rows._contexts.update

    def counting_permute(blocks):
        assert len(blocks) % 16 == 0
        calls.append(len(blocks) // 16)
        return permute(blocks)

    monkeypatch.setattr(rows._contexts, "update", counting_permute)
    built, _ops = store.proxy.prepare(Request.write("k", b"xyz"))
    entries = model.num_groups * model.table_size
    # Two passes of the permutation, whatever the table's size.
    assert len(calls) == 2
    assert model.entry_compressions == 1 + -(-model.entry_len // 16)
    assert sum(calls) == model.entry_compressions * entries

    response, _server_ops = store.server.process(built)
    assert built.entry_len == model.entry_len
    assert len(built.to_bytes()) == model.request_bytes
    assert len(response.to_bytes()) == model.response_bytes

    # The server's side of a row is the same pad, for one row per group.
    built, _ops = store.proxy.prepare(Request.read("k"))
    calls.clear()
    store.server.process(built)
    assert len(calls) == 2
    assert sum(calls) == model.entry_compressions * model.num_groups


# --------------------------------------------------------------------- #
# Capacity planner
# --------------------------------------------------------------------- #

def test_plan_capacity_scales_with_load():
    model = LblCostModel(value_len=160, group_bits=2)
    small = plan_capacity(1_000_000, 10, model)
    large = plan_capacity(100_000_000, 100, model)
    assert large.shards > small.shards
    assert large.cpu_cores > small.cpu_cores
    assert large.dollars_per_day > small.dollars_per_day
    assert small.bytes_per_access == model.framed_bytes_per_access(traced=True)
    assert small.compressions_per_access == model.proxy_hash_blocks()
    assert small.as_dict()["assumptions"]["compressions_per_core_per_sec"] == 4_500_000.0
    assert small.projected_p99_ms > 0
    plan_dict = small.as_dict()
    assert plan_dict["assumptions"]["p99_model"].startswith("M/M/1")


def test_plan_capacity_validates_inputs():
    model = LblCostModel(value_len=16)
    with pytest.raises(ConfigurationError):
        plan_capacity(0, 10, model)
    with pytest.raises(ConfigurationError):
        plan_capacity(10, 10, model, target_utilization=1.5)
