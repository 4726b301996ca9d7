"""The row kernel's cipher context: one per thread, never fed a partial block.

Both properties were found the hard way.  A ``cryptography`` cipher context
shared between threads raises ``RuntimeError('Already borrowed')`` — and the
server's worker pool, a deployment's caller threads and the benchmark's
in-process replicas all seal and open concurrently.  And an ECB context is a
*stream*: one ``update`` whose length is no multiple of 16 buffers the
remainder, and every later open on that thread fails.
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.core.messages import LblAccessRequest
from repro.crypto import rows
from repro.errors import ConfigurationError

ROWS, PICKS = 2560, 640  # one paper-point slab, and what the server opens of it
HEAD = 4  # group 0's rows, the ones with check bytes


def _slab_inputs(seed: int, n: int = ROWS):
    rng = random.Random(seed)
    return rng.randbytes(16 * n), rng.randbytes(16 * n), rng.randbytes(n), rng.randbytes(16)


def _opens(keys, labels, slots, nonce, slab) -> bool:
    picks = list(range(0, ROWS, ROWS // PICKS))
    picked = b"".join(keys[16 * p : 16 * p + 16] for p in picks)
    ((got_labels, got_slots),) = rows.open_rows([(nonce, picked, slab, 17, HEAD, picks)])
    return got_labels == b"".join(labels[16 * p : 16 * p + 16] for p in picks) and (
        got_slots == bytes(slots[p] for p in picks)
    )


def test_eight_threads_seal_and_open_concurrently_for_a_second():
    cases = [_slab_inputs(seed) for seed in range(8)]
    expected = [rows.seal_rows(*case, HEAD) for case in cases]  # single-threaded
    assert all(_opens(*case, slab) for case, slab in zip(cases, expected))
    errors: list[BaseException] = []
    rounds = [0] * 8
    start = threading.Barrier(8)
    deadline = time.monotonic() + 1.0

    def worker(index: int) -> None:
        try:
            start.wait(10)
            while time.monotonic() < deadline:
                # Every thread works through every case, so any two threads
                # are in the permutation at once with different inputs.
                case = (index + rounds[index]) % 8
                slab = rows.seal_rows(*cases[case], HEAD)
                assert slab == expected[case]
                assert _opens(*cases[case], slab)
                rounds[index] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(count >= 1 for count in rounds), rounds


def test_each_thread_has_its_own_context():
    rows._permute(bytes(16))
    mine = rows._contexts.update
    seen = []
    thread = threading.Thread(
        target=lambda: (rows._permute(bytes(16)), seen.append(rows._contexts.update))
    )
    thread.start()
    thread.join(10)
    assert not thread.is_alive() and len(seen) == 1
    assert seen[0].__self__ is not mine.__self__
    assert rows._contexts.update.__self__ is mine.__self__


def _good_run_opens() -> bool:
    case = _slab_inputs(99, n=ROWS)
    return _opens(*case, rows.seal_rows(*case, HEAD))


@pytest.mark.parametrize(
    "poison",
    ["five_byte_key", "short_slab", "refused_seal", "ragged_keys", "short_nonce"],
)
def test_a_refused_run_leaves_the_context_clean(poison):
    """Each malformed run is refused before the permutation sees a byte of
    it: the next good run on the same thread still opens."""
    keys, labels, slots, nonce = _slab_inputs(5, n=8)
    slab = rows.seal_rows(keys, labels, slots, nonce, HEAD)
    picks = list(range(8))
    if poison == "five_byte_key":
        # A stored label of the wrong width: 5 bytes per pick.
        assert rows.open_rows([(nonce, os.urandom(5 * 8), slab, 17, HEAD, picks)]) == [None]
        row = rows.seal_rows(keys[:16], b"p" * 16, b"p", nonce, 1)
        assert rows.open_row(b"five!", row, nonce) is None
    elif poison == "short_slab":
        assert rows.open_rows([(nonce, keys, slab[:-1], 17, HEAD, picks)]) == [None]
    elif poison == "refused_seal":
        with pytest.raises(ConfigurationError):
            rows.seal_rows(keys[:-1], labels, slots, nonce, HEAD)
        with pytest.raises(ConfigurationError):
            rows.seal_rows(b"k" * 5, b"l" * 16, b"s", nonce, 1)
    elif poison == "ragged_keys":
        assert rows.open_rows([(nonce, keys + b"x", slab, 17, HEAD, picks)]) == [None]
    else:
        assert rows.open_rows([(nonce[:7], keys, slab, 17, HEAD, picks)]) == [None]
        with pytest.raises(ConfigurationError):
            rows.seal_rows(keys, labels, slots, nonce[:7], HEAD)
    assert _good_run_opens()
    # In one window, the refused run's neighbours open too.
    refused = (nonce, b"k" * 5, slab, 17, HEAD, [0])
    window = rows.open_rows([refused, (nonce, keys, slab, 17, HEAD, picks), refused])
    assert window == [None, (labels, slots), None]


def test_the_poisoned_stream_this_guards_against_is_real():
    """The library behaviour the guard exists for, on a context of its own:
    17 bytes in, 16 out — and the 18th byte of the *next* call's output is
    already wrong."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    def context():
        return Cipher(algorithms.AES(rows._PI_KEY), modes.ECB()).encryptor()

    clean, poisoned = context(), context()
    block = bytes(range(16))
    assert len(poisoned.update(block + b"x")) == 16  # one byte stays inside
    assert poisoned.update(block) != clean.update(block)
    with pytest.raises(ConfigurationError, match="whole 16-byte blocks"):
        rows._permute(block + b"x")
    assert rows._permute(block) == context().update(block)


def test_server_refuses_a_label_of_the_wrong_width_and_serves_the_next_request():
    """End to end: a record whose labels are too short to seed a pad is
    refused before commit, and the same thread's next access is unharmed."""
    from repro.core.lbl import LblOrtoa
    from repro.crypto.labels import StoredRecord
    from repro.errors import ProtocolError
    from repro.types import Request, StoreConfig

    config = StoreConfig(value_len=2, group_bits=2)
    store = LblOrtoa(config)
    store.initialize({"k": b"ok", "bad": b"no"})
    encoded = store.keychain.encode_key("bad")
    record = store.server.store.get(encoded)
    groups = len(record.slots)
    store.server.store.put(encoded, StoredRecord(bytes(5 * groups), record.slots))
    built, _ops = store.proxy.prepare(Request.read("bad"))
    short = LblAccessRequest(encoded, built.slab[: groups * 4 * 6 + 60], 4, 6, built.nonce)
    with pytest.raises(ProtocolError, match="failed to open at group 0"):
        store.server.process(short)
    assert store.server.store.get(encoded).labels == bytes(5 * groups)
    assert store.read("k") == b"ok"


@pytest.mark.parametrize("value_len", [160, 2])
def test_get_and_put_make_the_same_kernel_calls(monkeypatch, value_len):
    """A read and a write hand the row kernel the same shapes: the argument
    lengths ``seal_rows`` receives and the block counts π receives, in order
    (no op-dependent shortcut on the proxy's table build)."""
    from repro.core.lbl.proxy import LblProxy
    from repro.crypto.keys import KeyChain
    from repro.types import Request, StoreConfig

    config = StoreConfig(value_len=value_len, group_bits=2)
    proxy = LblProxy(config, KeyChain(b"\x0b" * 32))
    proxy.initial_records({"k": bytes(value_len)})
    calls = []
    permute, seal = rows._permute, rows.seal_rows

    def counting_permute(blocks):
        calls.append(("permute", len(blocks) // rows.BLOCK))
        return permute(blocks)

    def counting_seal(*args):
        calls.append(("seal_rows", (*map(len, args[:4]), *args[4:])))
        return seal(*args)

    monkeypatch.setattr(rows, "_permute", counting_permute)
    monkeypatch.setattr(rows, "seal_rows", counting_seal)
    shapes = []
    for request in (Request.read("k"), Request.write("k", b"\xa5" * value_len)):
        calls.clear()
        proxy.prepare(request)
        shapes.append(list(calls))
    n = config.num_groups * 4
    assert shapes[0] == shapes[1] == [
        ("seal_rows", (16 * n, 16 * n, n, rows.ROW_NONCE_LEN, 4)),
        ("permute", n),  # the seeds
        ("permute", 2 * n),  # two planes of tweaked blocks
    ]
