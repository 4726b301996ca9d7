"""The declarative workloads, the Zipf sampler and the seeded request stream."""

import random
from collections import Counter

import pytest

from bench import metrics
from bench.workload import RequestStream, ZipfSampler, load_specs


def test_toml_and_benchmark_json_name_the_same_workloads():
    specs = load_specs()
    declared = metrics.declared()["workloads"]
    assert [w["name"] for w in declared] == list(specs)
    assert list(specs) == ["paper_point", "zipf_cached", "tiny_burst", "smallbank_batch"]
    for entry in declared:
        assert entry["why"] == specs[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_unknown_workload_key_is_rejected(tmp_path):
    path = tmp_path / "w.toml"
    path.write_text(
        '[workload.x]\nwhy="w"\nvalue_len=2\nwarmup_calls=1\ntraced_calls=1\n'
        "keys=4\ngroup_bits=2\npoint_and_permute=true\nread_share=0.5\n"
        'key_dist="uniform"\nzipf_theta=0.9\nlabel_cache=false\ncall="access"\n'
        "accesses_per_call=1\ndepth=1\nslices=2\nsetup_repeats=1\ntypo_knob=3\n"
    )
    with pytest.raises(ValueError, match="typo_knob"):
        load_specs(path)


def test_zipf_masses_and_empirical_frequencies_agree():
    sampler = ZipfSampler(256, 0.99)
    masses = [sampler.mass(rank) for rank in range(256)]
    assert sum(masses) == pytest.approx(1.0)
    assert masses == sorted(masses, reverse=True)
    rng = random.Random(7)
    draws = Counter(sampler.sample(rng) for _ in range(50_000))
    assert min(draws) >= 0 and max(draws) <= 255
    for rank in (0, 1, 9):
        assert draws[rank] / 50_000 == pytest.approx(masses[rank], rel=0.1)


def _calls(spec, seed, count):
    stream = RequestStream(spec, seed)
    calls = [stream.next_call() for _ in range(count)]
    return stream.initial, [
        [(r.op.value, r.key, r.value) for r in call] for call in calls
    ]


@pytest.mark.parametrize("name", ["zipf_cached", "tiny_burst"])
def test_a_seed_fixes_every_input(name):
    spec = load_specs()[name]
    assert _calls(spec, 5, 40) == _calls(spec, 5, 40)
    assert _calls(spec, 5, 40) != _calls(spec, 6, 40)


def test_burst_calls_hold_distinct_keys_and_a_balanced_mix():
    spec = load_specs()["tiny_burst"]
    _initial, calls = _calls(spec, 11, 200)
    ops = Counter()
    for call in calls:
        keys = [key for _op, key, _value in call]
        assert len(keys) == spec.accesses_per_call == len(set(keys))
        ops.update(op for op, _key, _value in call)
        for op, _key, value in call:
            assert (value is None) == (op == "read")
            assert value is None or len(value) == spec.value_len
    assert ops["read"] / sum(ops.values()) == pytest.approx(spec.read_share, abs=0.05)
