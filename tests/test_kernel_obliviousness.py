"""Obliviousness regression for the batched kernel stack.

Batching and the label cache both live on the *proxy*
side of the trust boundary — nothing the
server observes (the frames on its link, its stored records) may depend on
them.  These tests run the :mod:`repro.security.audit` checker over each
configuration and require a clean verdict.  That the kernel builds the paper's request byte for byte is
``tests/test_golden_vectors.py``'s reference property.
"""

import random

import pytest

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.crypto.keys import KeyChain
from repro.security.audit import record_links, run_audit, shape_identity
from repro.types import Request, StoreConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _config(**overrides) -> StoreConfig:
    params = dict(value_len=16, group_bits=2)
    params.update(overrides)
    return StoreConfig(**params)


def test_audit_passes_with_batched_kernels():
    protocol = LblOrtoa(_config())
    report = run_audit(protocol, num_keys=16, seed=0)
    assert report.passed, report.summary()
    assert report.failures == []


def test_audit_passes_with_label_cache():
    """Cache-hit accesses must be indistinguishable server-side.

    :func:`run_audit` touches every key exactly once, which can never hit
    the cache — so this builds the same balanced workload by hand, runs a
    priming pass to populate every key's epoch, and records only the second
    (every access a hit) pass.
    """
    rng = random.Random(0)
    protocol = LblOrtoa(_config(label_cache_entries=-1))
    keys = [f"audit-{i}" for i in range(16)]
    requests = [
        Request.read(key) if index < 8 else Request.write(key, bytes(16))
        for index, key in enumerate(keys)
    ]
    rng.shuffle(requests)
    protocol.initialize({key: bytes(16) for key in keys})
    for request in requests:  # priming pass: every key's epoch cached
        protocol.access(request)

    (link,) = record_links(protocol)
    cache = protocol.proxy.label_cache
    hits_before = cache.hits
    for request in requests:
        protocol.access(request)
    assert len(link.frames) == len(requests)  # one frame per access
    ops = [request.op for request in requests]
    frames = [(len(f.request), len(f.reply)) for f in link.frames]
    storage = [f.storage[0] for f in link.frames]
    for claim, views in (("frames", frames), ("storage", storage)):
        check = shape_identity("access", claim, list(zip(ops, views)))
        assert check.passed, check.detail
    assert cache.hits - hits_before == len(requests)  # every access was warm


def test_traced_frames_identical_shape_for_get_and_put():
    """The trace-context wire extension must not become a side channel.

    A traced GET and a traced PUT frame must have identical total size, the
    same tag byte, and a fixed-width context extension — otherwise enabling
    telemetry would leak exactly the bit the protocol exists to hide.
    """
    from repro.obs.propagate import TraceContext
    from repro.transport import framing

    keychain = KeyChain(label_bits=128)
    config = _config(label_cache_entries=-1)
    store = LblOrtoa(config, keychain=keychain)
    store.initialize({"k": bytes(16)})
    store.access(Request.read("k"))
    context = TraceContext(trace_id=7, span_id=9).encode()
    frames = []
    for request in (Request.read("k"), Request.write("k", bytes(16))):
        lbl_request, _ = store.proxy.prepare(request)
        frames.append(framing.wrap_mux(1, lbl_request.to_bytes(), context))
    get_frame, put_frame = frames
    assert len(get_frame) == len(put_frame)
    assert get_frame[0] == put_frame[0] == framing.MUX_TRACED_TAG
    for frame in frames:
        request_id, inner, decoded = framing.unwrap_mux_traced(frame)
        assert request_id == 1
        assert decoded == context
        assert len(frame) - len(inner) == 1 + framing.REQUEST_ID_BYTES + (
            framing.TRACE_CONTEXT_BYTES
        )

