"""Property tests on access transcripts: the invariants every protocol must
hold over arbitrary operation sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import LblOrtoa, TeeOrtoa, TwoRoundBaseline
from repro.core.base import OpCounts
from repro.obs import ledger
from repro.types import Operation, Request, StoreConfig

CONFIG = StoreConfig(value_len=8)
LBL_CONFIG = StoreConfig(value_len=8, group_bits=2)

ops_strategy = st.lists(
    st.tuples(st.booleans(), st.binary(min_size=8, max_size=8)),
    min_size=1,
    max_size=12,
)


def build(kind):
    if kind == "baseline":
        protocol = TwoRoundBaseline(CONFIG)
    elif kind == "tee":
        protocol = TeeOrtoa(CONFIG)
    else:
        protocol = LblOrtoa(LBL_CONFIG)
    protocol.initialize({"k": bytes(8)})
    return protocol


@given(ops=ops_strategy, kind=st.sampled_from(["baseline", "tee", "lbl"]))
@settings(max_examples=30, deadline=None)
def test_transcript_invariants_over_random_sequences(ops, kind):
    protocol = build(kind)
    expected_rounds = protocol.rounds
    shapes = set()
    model = bytes(8)
    for is_read, value in ops:
        if is_read:
            transcript = protocol.access(Request.read("k"))
            assert transcript.op is Operation.READ
            assert transcript.response.value == model
        else:
            transcript = protocol.access(Request.write("k", value))
            assert transcript.op is Operation.WRITE
            model = value
        # Invariant 1: round count is a protocol constant.
        assert transcript.num_rounds == expected_rounds
        # Invariant 2: wire shape never varies (size obliviousness).
        shapes.add((transcript.request_bytes, transcript.response_bytes))
        # Invariant 3: phases alternate proxy/server work with the server
        # phase count equal to the round count.
        server_phases = [p for p in transcript.phases if p.location == "server"]
        assert len(server_phases) == expected_rounds
    assert len(shapes) == 1


@given(ops=ops_strategy)
@settings(max_examples=20, deadline=None)
def test_server_work_is_op_independent_property(ops):
    """Over any op mix, per-access server op counts form a single profile.

    The counts are the server's own, credited to each access's ledger row.
    """
    protocol = build("lbl")
    profiles = set()
    with obs.capture():
        for is_read, value in ops:
            request = Request.read("k") if is_read else Request.write("k", value)
            with ledger.track() as row:
                protocol.access(request)
            server = row.snapshot()["ops"]
            profiles.add(
                (server.get("aead.decrypts"), server.get("aead.decrypt_failures"))
            )
    assert len(profiles) == 1


@given(
    a=st.builds(
        OpCounts,
        prf=st.integers(0, 100),
        aead_enc=st.integers(0, 100),
        fhe_mul=st.integers(0, 10),
    ),
    b=st.builds(
        OpCounts,
        aead_dec=st.integers(0, 100),
        kv_ops=st.integers(0, 100),
        ecalls=st.integers(0, 10),
    ),
)
@settings(max_examples=50)
def test_opcounts_addition_is_componentwise(a, b):
    total = a + b
    assert total.prf == a.prf + b.prf
    assert total.aead_enc == a.aead_enc + b.aead_enc
    assert total.aead_dec == a.aead_dec + b.aead_dec
    assert total.kv_ops == a.kv_ops + b.kv_ops
    assert total.ecalls == a.ecalls + b.ecalls
    assert total.fhe_mul == a.fhe_mul + b.fhe_mul
