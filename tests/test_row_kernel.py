"""The row kernel's cipher contexts: one per thread, never fed a partial block.

Both properties were found the hard way.  A ``cryptography`` cipher context
shared between threads raises ``RuntimeError('Already borrowed')`` — and the
server's worker pool, a deployment's caller threads and the benchmark's
in-process replicas all seal and open concurrently.  And a context is a
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
HEAD = 4  # group 0's rows, the ones with check blocks: one table of 2^2 rows


def _keyed(rng: random.Random, n: int) -> bytes:
    """``n`` random 16-byte keys, row ``i``'s naming slot ``i mod 4`` in the
    low bits of its byte 15, as stored labels do."""
    keys = bytearray(rng.randbytes(16 * n))
    keys[15::16] = bytes(b & ~3 | i % 4 for i, b in enumerate(keys[15::16]))
    return bytes(keys)


def _slab_inputs(seed: int, n: int = ROWS):
    rng = random.Random(seed)
    return _keyed(rng, n), rng.randbytes(16 * n), rng.randbytes(16)


def _picked(run: bytes, picks) -> bytes:
    return b"".join(run[16 * p : 16 * p + 16] for p in picks)


def _opens(keys, labels, nonce, slab) -> bool:
    """The server's open of one row per table, picked by the stored labels."""
    picks = [4 * g + g % 4 for g in range(ROWS // 4)]
    (got,) = rows.open_rows([(nonce, _picked(keys, picks), slab, 16, 4)])
    return got == _picked(labels, picks)


def test_eight_threads_seal_and_open_concurrently_for_a_second():
    cases = [_slab_inputs(seed) for seed in range(8)]
    expected = [rows.seal_rows(k, v, 16, nonce, HEAD) for k, v, nonce in cases]
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
                keys, labels, nonce = cases[case]
                slab = rows.seal_rows(keys, labels, 16, nonce, HEAD)
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
    rows._unchain(bytes(48))
    mine = rows._contexts.unchain
    seen = []

    def other() -> None:
        rows._unchain(bytes(48))
        seen.append(rows._contexts.unchain)

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(10)
    assert not thread.is_alive() and len(seen) == 1
    assert seen[0].__self__ is not mine.__self__
    assert rows._contexts.unchain.__self__ is mine.__self__


def _good_run_opens() -> bool:
    case = _slab_inputs(99, n=ROWS)
    return _opens(*case, rows.seal_rows(case[0], case[1], 16, case[2], HEAD))


@pytest.mark.parametrize(
    "poison",
    ["five_byte_key", "short_slab", "refused_seal", "ragged_keys", "short_nonce"],
)
def test_a_refused_run_leaves_the_context_clean(poison):
    """Each malformed run is refused before the permutation sees a byte of
    it: the next good run on the same thread still opens."""
    keys, labels, nonce = _slab_inputs(5, n=8)
    slab = rows.seal_rows(keys, labels, 16, nonce, HEAD)
    stored = _picked(keys, [0, 5])  # group 0 at slot 0, group 1 at slot 1
    if poison == "five_byte_key":
        # A stored record of 5-byte labels: too short to hold a slot or seed a pad.
        assert rows.open_rows([(nonce, os.urandom(5 * 2), slab, 5, HEAD)]) == [None]
    elif poison == "short_slab":
        assert rows.open_rows([(nonce, stored, slab[:-1], 16, HEAD)]) == [None]
    elif poison == "refused_seal":
        with pytest.raises(ConfigurationError):
            rows.seal_rows(keys[:-1], labels, 16, nonce, HEAD)
        with pytest.raises(ConfigurationError):
            rows.seal_rows(b"k" * 5, b"l" * 16, 16, nonce, 1)
        with pytest.raises(ConfigurationError):
            rows.seal(bytes(47), 16, 1)
    elif poison == "ragged_keys":
        assert rows.open_rows([(nonce, stored + b"x", slab, 16, HEAD)]) == [None]
    else:
        assert rows.open_rows([(nonce[:7], stored, slab, 16, HEAD)]) == [None]
        with pytest.raises(ConfigurationError):
            rows.seal_rows(keys, labels, 16, nonce[:7], HEAD)
    assert _good_run_opens()
    # In one window, the refused run's neighbours open too.
    refused = (nonce, b"k" * 5, slab, 5, HEAD)
    window = rows.open_rows([refused, (nonce, stored, slab, 16, HEAD), refused])
    assert window == [None, _picked(labels, [0, 5]), None]


def test_the_poisoned_stream_this_guards_against_is_real():
    """The library behaviour the guard exists for, on a context of its own:
    17 bytes in, 16 out — and the 18th byte of the *next* call's output is
    already wrong."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    def context():
        return Cipher(algorithms.AES(rows._PI_KEY), modes.CBC(bytes(16))).decryptor()

    clean, poisoned = context(), context()
    triple = bytes(range(48))
    assert len(poisoned.update(triple + b"x")) == 48  # one byte stays inside
    assert poisoned.update(triple) != clean.update(triple)
    with pytest.raises(ConfigurationError, match="whole 48-byte triples"):
        rows._unchain(triple + b"x")
    with pytest.raises(ConfigurationError, match="whole 48-byte triples"):
        rows._unchain(triple[:32])
    # After both passes the third lane is a function of its triple alone,
    # whatever chaining value the thread's context carries in.
    fresh = context()
    assert rows._unchain(triple)[32:] == fresh.update(fresh.update(triple))[32:]


def test_server_refuses_a_label_of_the_wrong_width_and_serves_the_next_request():
    """End to end: a record whose labels are too short to seed a pad is
    refused before commit, and the same thread's next access is unharmed."""
    from repro.core.lbl import LblOrtoa
    from repro.errors import ProtocolError
    from repro.types import Request, StoreConfig

    config = StoreConfig(value_len=2, group_bits=2)
    store = LblOrtoa(config)
    store.initialize({"k": b"ok", "bad": b"no"})
    encoded = store.keychain.encode_key("bad")
    groups = len(store.server.store.get(encoded)) // 16
    store.server.store.put(encoded, bytes(5 * groups))
    built, _ops = store.proxy.prepare(Request.read("bad"))
    short = LblAccessRequest(encoded, built.slab[: groups * 4 * 5 + 64], 4, 5, built.nonce)
    with pytest.raises(ProtocolError, match="failed to open at group 0"):
        store.server.process(short)
    assert store.server.store.get(encoded) == bytes(5 * groups)
    assert store.read("k") == b"ok"


@pytest.mark.parametrize("value_len", [160, 2])
def test_get_and_put_make_the_same_kernel_calls(monkeypatch, value_len):
    """A read and a write hand the row kernel the same shapes: the lengths
    the label call, ``seal`` and π receive, in order (no op-dependent
    shortcut on the proxy's table build)."""
    from repro.core.lbl.proxy import LblProxy
    from repro.crypto.keys import KeyChain
    from repro.types import Request, StoreConfig

    config = StoreConfig(value_len=value_len, group_bits=2)
    proxy = LblProxy(config, KeyChain(b"\x0b" * 32))
    proxy.initial_records({"k": bytes(value_len)})
    calls = []
    tweaks, unchain, seal = rows.tweaks, rows._unchain, rows.seal
    table_stream = proxy.codec.table_stream

    def counting(name, function, measure):
        def wrapper(*args):
            calls.append((name, measure(*args)))
            return function(*args)

        return wrapper

    monkeypatch.setattr(rows, "tweaks", counting("tweaks", tweaks, lambda n, c: (len(n), c)))
    monkeypatch.setattr(rows, "_unchain", counting("unchain", unchain, lambda s: len(s) // 16))
    monkeypatch.setattr(rows, "seal", counting("seal", seal, lambda s, w, h: (len(s), w, h)))
    monkeypatch.setattr(
        proxy.codec, "table_stream",
        counting("table_stream", table_stream, lambda o, n, t, c: (len(o), len(n), len(t), len(c))),
    )
    shapes = []
    for request in (Request.read("k"), Request.write("k", b"\xa5" * value_len)):
        calls.clear()
        proxy.prepare(request)
        shapes.append(list(calls))
    n = config.num_groups * 4
    assert shapes[0] == shapes[1] == [
        ("tweaks", (16, 2)),  # the tweak blocks C_0 and the check's C_1
        ("table_stream", (16, 16, n, 32)),
        ("seal", (48 * (n + 4), 16, 4)),
        ("unchain", 3 * (n + 4)),  # both passes, counted once per call
    ]


_EXTREME = """
import json, resource, sys, time
from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.server import LblServer
from repro.crypto.keys import KeyChain
from repro.types import Request, StoreConfig

bits = int(sys.argv[1])
config = StoreConfig(value_len=600, group_bits=8, label_bits=bits)
start = time.perf_counter()
proxy, server = LblProxy(config, KeyChain(b"\\x01" * 32, label_bits=bits)), LblServer()
for encoded, record in proxy.initial_records({"k": bytes(600)}):
    server.load(encoded, record)
built, _ops = proxy.prepare(Request.write("k", b"\\x5a" * 600))
response, _server_ops = server.process(built)
assert proxy.finalize("k", response)[0] == b"\\x5a" * 600
seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb}))
"""


def test_the_widest_labels_at_the_largest_table_are_bounded():
    """y = 8, 600 B values: 153,600 rows per request.  ``initial_records``
    and one access with 440-bit labels — four blocks per row, 614,400 row
    triples — take at most five times as long as with 128-bit labels at
    the same shape, measured here, and stay under 300 MiB: the kernel cuts
    wide labels by strided slices and compiles nothing per row (the struct
    layout this replaced took ≈ 27 times as long and ≈ 460 MiB)."""
    import json
    import pathlib
    import subprocess

    src = pathlib.Path(rows.__file__).resolve().parents[2]
    runs = {}
    for bits in (128, 440):
        done = subprocess.run(
            [sys.executable, "-c", _EXTREME, str(bits)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        runs[bits] = json.loads(done.stdout)
    assert runs[440]["seconds"] <= 5 * runs[128]["seconds"], runs
    assert runs[440]["rss_mb"] < 300, runs
