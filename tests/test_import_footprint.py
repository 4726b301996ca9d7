"""What a proxy or shard process loads, and what ``import repro`` still offers.

``repro/__init__.py`` resolves its re-exports on first use (PEP 562), so the
serving path — the sharded deployment, the cluster, the transport server —
imports neither numpy, nor the experiment harness behind it, nor FHE, nor
the HTTP stack.
``rss_mb`` in ``BENCHMARK.json`` is where a regression would show; this is
where it fails first.
"""

import subprocess
import sys

import pytest

SERVING = ("repro.core.sharded", "repro.transport.cluster", "repro.transport.server")
#: FHE-ORTOA (the BFV scheme and its ring) is §3's in-process experiment;
#: the HTTP stack loads only where a metrics endpoint is started.
OFF_PATH = (
    "numpy", "repro.harness", "repro.analysis", "repro.workloads",
    "repro.crypto.fhe", "repro.crypto.poly", "http", "email",
)


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with this one's import path."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": ":".join(p for p in sys.path if p)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serving_path_imports_neither_numpy_nor_the_harness():
    loaded = _fresh(
        f"import sys, {', '.join(SERVING)}\n"
        "print(*sorted(sys.modules), sep='\\n')"
    ).split()
    assert set(SERVING) <= set(loaded)
    for name in OFF_PATH:
        assert not [m for m in loaded if m == name or m.startswith(name + ".")], name
    # The row kernel's one binary dependency is on the path, by design.
    assert "cryptography" in loaded


def test_obs_export_stays_the_bundle_function():
    """``repro.obs`` imports its ``export`` submodule before defining the
    ``export()`` function, so importing the module later rebinds nothing."""
    out = _fresh(
        "import repro.obs.export, repro.obs\n"
        "from repro.obs import export as bundle\n"
        "print(sorted(bundle()))"
    )
    assert out.strip() == "['clock', 'metrics', 'spans']"


def test_package_reexports_resolve_lazily_and_completely():
    out = _fresh(
        "import sys, repro\n"
        "assert 'repro.core' not in sys.modules and 'numpy' not in sys.modules\n"
        "from repro import LblOrtoa, StoreConfig\n"
        "assert repro.LblOrtoa is LblOrtoa and 'repro.harness' not in sys.modules\n"
        "from repro import CostModel, run_experiment\n"
        "assert 'repro.harness' in sys.modules\n"
        "print(*repro.__all__)"
    ).split()
    import repro

    assert out == list(repro.__all__) and out[-1] == "__version__"
    assert len(out) == len(set(out)) == 20
    for name in out:
        assert getattr(repro, name) is not None
        assert name in dir(repro)
    assert repro.__version__ == "1.0.0"
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - the star-import contract
    assert set(out) <= set(namespace)


def test_names_the_closed_benchmark_imports_still_exist():
    """``bench/`` builds the system from ``src/`` by name (the list in
    ``.github/workflows/ci.yml``); a PR that may not edit it must keep them."""
    from repro.core.base import AccessTranscript, OpCounts
    from repro.core.lbl.concurrent import finalize_batch_entries
    from repro.core.messages import (
        LblAccessRequest, LblAccessResponse, LblBatchRequest, LblBatchResponse,
    )
    from repro.core.sharded import ShardedLblDeployment
    from repro.crypto import aead, sha256_lanes
    from repro.crypto.labels import StoredLabel
    from repro.crypto.prf import Prf, encode_components
    from repro.storage.kv import KeyValueStore
    from repro.storage.persistence import LabelListCodec
    from repro.transport import framing
    from repro.transport.cluster import ShardCluster
    from repro.transport.server import LOAD_ACK, LblFrameDispatcher, pack_load
    from repro.types import Request, StoreConfig

    assert sha256_lanes.calibrate() == 0
    assert callable(aead.open_many) and callable(aead.encrypt_many)
    assert callable(Prf(b"k" * 32, out_bytes=16).context("p").evaluate_tails)
    assert StoredLabel(b"label", 3).decrypt_index == 3
    assert callable(LabelListCodec().encode) and callable(framing.wrap_mux)
    assert OpCounts().aead_enc == OpCounts().aead_dec == OpCounts().failed_dec == 0
    assert StoreConfig(label_cache_entries=-1).label_cache_entries == -1
    for name in (AccessTranscript, finalize_batch_entries, LblAccessRequest,
                 LblAccessResponse, LblBatchRequest, LblBatchResponse, ShardCluster,
                 KeyValueStore, LblFrameDispatcher, pack_load, encode_components, Request):
        assert callable(name)
    assert isinstance(LOAD_ACK, bytes)
    from repro.core import sharded

    # ``dep.prepare_engine.prepare_one`` / ``.prepare_batch``: set per instance.
    assert ShardedLblDeployment is sharded.ShardedLblDeployment
    assert callable(sharded._SerialPrepare.prepare_one)
    assert callable(sharded._SerialPrepare.prepare_batch)

    # Three remnants of the two-protocol days, passed only by bench/:
    # ``point_and_permute`` takes True and refuses False (the §5.2 base
    # tables live in tests/lbl_reference.py); ``rng`` is accepted, unused.
    import random

    from repro.errors import ConfigurationError
    from repro.transport.pipeline import LocalLink

    config = StoreConfig(value_len=4, point_and_permute=True)
    assert config == StoreConfig(value_len=4)
    with pytest.raises(ConfigurationError, match="tests/lbl_reference.py"):
        StoreConfig(value_len=4, point_and_permute=False)
    dispatcher = LblFrameDispatcher(point_and_permute=True)
    with pytest.raises(ConfigurationError, match="tests/lbl_reference.py"):
        LblFrameDispatcher(point_and_permute=False)
    deployment = ShardedLblDeployment(
        config, [LocalLink(dispatcher)], rng=random.Random(0)
    )
    deployment.initialize({"k": b"v"})
    deployment.write("k", b"w")
    assert deployment.read("k") == config.pad(b"w")
