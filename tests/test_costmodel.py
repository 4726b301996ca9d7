"""Model == ledger: the cost model's closed forms against measured reality.

The tentpole contract of :mod:`repro.analysis.costmodel`: for GET and PUT,
the symbolic bytes-per-access and ops-per-access must equal the wire ledger
*exactly* — not approximately.  These tests are what licenses the capacity
planner and the dollar estimate to present model outputs as measurements.
"""

import pytest

from repro import obs
from repro.analysis.costmodel import LblCostModel, plan_capacity, run_model_check
from repro.core.lbl import LblOrtoa
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


# Sharded deployments: {1, 4} shards, registry totals vs the model
# --------------------------------------------------------------------- #

def _assert_ops_equal_models(models):
    """Thread-backed shards share this process's registry, so its op totals
    hold both sides' primitive calls: the sum of the full models."""
    expected: dict[str, int] = {}
    for model in models:
        for name, count in model.ops(include_server=True).items():
            expected[name] = expected.get(name, 0) + count
    totals = ledger.registry_ops_snapshot()
    assert {name: totals.get(name, 0) for name in expected} == expected


@pytest.mark.parametrize("num_shards", [1, 4])
def test_sharded_pipelined_rows_match_model(num_shards):
    """Every pipelined access's transcript carries the model's bytes, and
    the transport's client totals and the op totals are the models' sums
    (no bytes or calls lost or invented)."""
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
            models = [
                LblCostModel.from_config(CONFIG, key=key, counter=deployment.proxy.counter(key))
                for key in keys
            ]
            transcripts = deployment.access_pipelined(requests, depth=4)
        finally:
            deployment.close()

    for key, transcript, model in zip(keys, transcripts, models):
        assert (transcript.request_bytes, transcript.response_bytes) == (
            model.request_bytes,
            model.response_bytes,
        ), key
    wire_totals = ledger.registry_wire_snapshot()
    assert wire_totals["client.access.sent"] == sum(
        model.framed_request_bytes(traced=True) for model in models
    )
    assert wire_totals["client.access.received"] == sum(
        model.framed_response_bytes() for model in models
    )
    _assert_ops_equal_models(models)


@pytest.mark.parametrize("num_shards", [1, 4])
def test_sharded_batch_rows_sum_to_transport_totals(num_shards):
    """One batch frame per shard touched: the socket totals are the model's
    batch frames, and the op totals the sum of every request's model."""
    obs.enable()
    keys = [f"b{i}" for i in range(10)]
    with ShardCluster(num_shards, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses)
        try:
            deployment.initialize({key: b"\x03" * 16 for key in keys})
            obs.reset()
            models = [
                LblCostModel.from_config(CONFIG, key=key, counter=deployment.proxy.counter(key))
                for key in keys
            ]
            deployment.access_batch(
                [
                    Request.read(key)
                    if i % 2
                    else Request.write(key, b"\x04" * 16)
                    for i, key in enumerate(keys)
                ]
            )
            per_shard: dict[int, int] = {}
            for key in keys:
                shard = deployment.shard_of(key)
                per_shard[shard] = per_shard.get(shard, 0) + 1
        finally:
            deployment.close()

    wire_totals = ledger.registry_wire_snapshot()
    assert wire_totals["client.batch.sent"] == sum(
        models[0].batch_request_bytes(n, traced=True) for n in per_shard.values()
    )
    assert wire_totals["client.batch.received"] == sum(
        models[0].batch_response_bytes(n) for n in per_shard.values()
    )
    _assert_ops_equal_models(models)


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
    assert model.entry_len == 16
    # tag + (shape + nonce) + key + slab, three length-prefixed fields; the
    # slab is 2,560 rows, each a sealed label, and group 0's 4 check blocks.
    assert model.request_bytes == (
        1 + (4 + 20) + (4 + 16) + (4 + 640 * 4 * 16 + 4 * 16)
    ) == 41_073
    # tag + slot width + 640 slots packed at 2 bits + the 16-byte digest.
    assert model.response_bytes == 1 + 2 + 640 * 2 // 8 + 16 == 179
    assert model.bytes_per_access == 41_073 + 179 == 41_252
    # Calls made: two epochs and the key encoding.  Per epoch the XOF absorbs
    # one block and squeezes one (its 16-byte whitening), and its offsets are
    # 640 / 16 = 40 AES blocks.  The rows: two tweak blocks back through
    # K_L, then 2,560 row triples and 4 check triples through one ECB call
    # and two CBC passes; finalize derives the 640 labels the reply selects;
    # the server's open is two passes over 640 triples and the checked one.
    assert model.seal_blocks == 2 + 9 * (2560 + 4) == 23_078
    assert model.open_blocks == 6 * (640 + 1) == 3_846
    assert model.ops() == {
        "prf.calls": 3,
        "sha256.compressions": 2,
        "shake256.blocks": 2 * (1 + 1),
        "aead.encrypts": 2560,
        "aead.decrypts": 640,
        "aes.blocks": 2 * 40 + 23_078 + 640 + 3_846,
    }
    assert model.ops(include_server=False)["aes.blocks"] == 2 * 40 + 23_078 + 640
    assert model.proxy_hash_blocks() == 4 + 2 + 2 * 40 + 23_078 + 640


def _row_aes_blocks(model) -> int:
    """The AES blocks of an access's rows: all of them but the two epochs'
    offset blocks (``ceil(G / 16)`` each) and the ``G`` labels finalize
    derives."""
    blocks = -(-model.label_len // 16)
    return model.ops()["aes.blocks"] - 2 * -(-model.num_groups // 16) - model.num_groups * blocks


def test_check_bytes_on_group_0_only_pin_the_wire_per_access():
    """Only group 0's rows carry a check block, and a row is its label alone
    (the slot rides in it): 2,556 B fewer per paper-point request than with
    a slot byte on every row and 15 check bytes on the head rows."""
    assert LblCostModel(160, 2).request_bytes == 41_073 == 43_629 - 2560 + 4
    assert LblCostModel(50, 2).request_bytes == 12_913 == 13_709 - 800 + 4
    assert LblCostModel(2, 2).request_bytes == 625 == 653 - 32 + 4
    for label_bits in (128, 192, 256):
        model = LblCostModel(160, 2, label_bits=label_bits)
        blocks = -(-model.label_len // 16)
        rows, triples = 2560, 2560 * blocks + 4
        assert _row_aes_blocks(model) == (blocks + 1) + 9 * triples + 6 * (640 * blocks + 1)
        assert model.request_bytes == 49 + rows * model.label_len + 4 * 16


@pytest.mark.parametrize(
    "value_len, reply, wire",
    [(160, 179, 41_252), (50, 69, 12_982), (2, 21, 646)],
    ids=["paper_point", "50B", "tiny_burst"],
)
def test_slots_and_one_digest_pin_the_reply_and_the_wire_per_access(value_len, reply, wire):
    """The reply is ``1 + 2 + ceil(G·y/8) + 16`` bytes: 179 at the paper
    point, 69 at 50 B and 21 at 2 B — the slots read off the new labels."""
    model = LblCostModel(value_len, 2)
    assert model.response_bytes == 1 + 2 + -(-model.num_groups * 2 // 8) + 16 == reply
    assert model.bytes_per_access == wire
    assert _row_aes_blocks(model) == model.seal_blocks + model.open_blocks
    store = LblOrtoa(StoreConfig(value_len=value_len, group_bits=2))
    store.initialize({"k": bytes(value_len)})
    built, _ops = store.proxy.prepare(Request.read("k"))
    response, _server_ops = store.server.process(built)
    assert (len(built.to_bytes()), len(response.to_bytes())) == (wire - reply, reply)


@pytest.mark.parametrize("label_bits", [128, 136, 192, 256])
@pytest.mark.parametrize("group_bits", [1, 2, 8])
def test_wire_bytes_and_entry_hashing_match_the_implementation(
    monkeypatch, group_bits, label_bits
):
    """Every shape the model has a formula for, against real messages and
    block counts taken at the cipher contexts: π's CBC context in the row
    kernel, and the label call's ECB contexts under ``K_L``."""
    from repro.crypto import rows

    config = StoreConfig(value_len=3, group_bits=group_bits, label_bits=label_bits)
    model = LblCostModel.from_config(config)
    store = LblOrtoa(config)
    store.initialize({"k": b"abc"})
    blocks = -(-model.label_len // 16)

    calls: list[tuple[str, int]] = []
    rows._unchain(bytes(48))  # this thread's contexts exist
    codec = store.proxy.codec
    codec._aes(bytes(16))
    codec._aes(bytes(16), invert=True)

    def counting(name, update):
        def wrapper(data):
            assert len(data) % 16 == 0
            calls.append((name, len(data) // 16))
            return update(data)

        return wrapper

    monkeypatch.setattr(rows._contexts, "unchain", counting("unchain", rows._contexts.unchain))
    for name in ("update", "invert"):
        monkeypatch.setattr(codec._local, name, counting(name, getattr(codec._local, name)))
    built, _ops = store.proxy.prepare(Request.write("k", b"xyz"))
    triples = model.num_groups * model.table_size * blocks + model.table_size
    assert calls == [
        ("update", 2 * -(-model.num_groups // 16)),  # both epochs' offsets
        ("invert", blocks + 1),  # the tweaks, into the label call
        ("update", 3 * triples),  # the stream
        ("unchain", 3 * triples),  # two CBC passes
        ("unchain", 3 * triples),
    ]
    assert sum(n for _name, n in calls) == model.seal_blocks + 2 * -(-model.num_groups // 16)

    response, _server_ops = store.server.process(built)
    assert built.entry_len == model.entry_len
    assert len(built.to_bytes()) == model.request_bytes
    assert len(response.to_bytes()) == model.response_bytes

    # The server's side: both passes over one row per group and the
    # checked row.
    built, _ops = store.proxy.prepare(Request.read("k"))
    calls.clear()
    store.server.process(built)
    assert calls == [
        ("unchain", 3 * (model.num_groups * blocks + 1)),
        ("unchain", 3 * (model.num_groups * blocks + 1)),
    ]
    assert sum(n for _name, n in calls) == model.open_blocks


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
    assert small.as_dict()["assumptions"]["compressions_per_core_per_sec"] == 86_200_000.0
    assert small.projected_p99_ms > 0
    plan_dict = small.as_dict()
    assert plan_dict["assumptions"]["p99_model"].startswith("M/M/1")


def test_plan_capacity_validates_inputs():
    model = LblCostModel(value_len=16)
    with pytest.raises(ConfigurationError):
        plan_capacity(0, 10, model)
    with pytest.raises(ConfigurationError):
        plan_capacity(10, 10, model, target_utilization=1.5)
