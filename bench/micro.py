"""Single-layer timings taken by calling a layer's public functions directly.

Each function times one layer at the workload's own sizes (label count,
message bytes), repeats, and returns the median — the per-entry cost that
the layer table's crypto, framing and storage rows are built from.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.crypto import aead
from repro.crypto.labels import StoredLabel
from repro.crypto.prf import Prf, encode_components
from repro.errors import ProtocolError
from repro.storage.kv import KeyValueStore
from repro.transport import framing

from bench import host, stats

#: Time budget of one micro-measurement; repeats are sized to fill it.
_BUDGET_S = 0.15


def _median_s(operation) -> float:
    """Median time of ``operation()`` at reference-host speed.

    Repeats enough to fill the budget; canary samples before and after the
    repeats scale the median (see :class:`bench.host.Canary`).
    """
    canary = host.Canary()
    canary.burst(3)
    operation()  # warm
    start = time.perf_counter()
    operation()
    once = max(time.perf_counter() - start, 1e-7)
    repeats = max(5, min(400, int(_BUDGET_S / once)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        samples.append(time.perf_counter() - start)
    canary.burst(3)
    return stats.median(samples) * canary.scale()


def crypto_us(num_groups: int, table_size: int, label_len: int) -> dict[str, float]:
    """Per-entry microseconds of the three crypto kernels at one access's table size."""
    entries = num_groups * table_size

    context = Prf(os.urandom(32), out_bytes=label_len).context("label", "bench-key")
    enc = encode_components
    tails = [
        enc(index) + enc(value) + enc(7)
        for index in range(num_groups)
        for value in range(table_size)
    ]
    prf_s = _median_s(lambda: context.evaluate_tails(tails))

    keys = [os.urandom(label_len) for _ in range(entries)]
    payloads = [os.urandom(label_len + 1) for _ in range(entries)]
    enc_s = _median_s(lambda: aead.encrypt_many(keys, payloads))
    ciphertexts = aead.encrypt_many(keys, payloads)
    opened = aead.open_many(keys, ciphertexts)
    if opened != payloads:
        raise AssertionError("open_many did not invert encrypt_many")
    open_s = _median_s(lambda: aead.open_many(keys, ciphertexts))
    return {
        "crypto.prf_us": prf_s * 1e6 / entries,
        "crypto.aead_enc_us": enc_s * 1e6 / entries,
        "crypto.aead_open_us": open_s * 1e6 / entries,
    }


def framing_ms(request_bytes: int, reply_bytes: int) -> float:
    """One mux-framed request/reply exchange over a ``socketpair``, in ms.

    ``wrap_mux`` + ``send_frame`` one way and ``recv_frame`` + ``unwrap_mux``
    the other, at the workload's message sizes, with no protocol work on
    either side.  The peer runs on a helper thread because a frame larger
    than the socket buffer cannot be written and read by one thread.
    """
    near, far = socket.socketpair()
    request = os.urandom(request_bytes)
    reply = os.urandom(reply_bytes)

    def peer() -> None:
        try:
            while True:
                request_id, _inner = framing.unwrap_mux(framing.recv_frame(far))
                framing.send_frame(far, framing.wrap_mux(request_id, reply))
        except (ProtocolError, OSError):
            return  # the near side closed

    thread = threading.Thread(target=peer, name="bench-framing-peer", daemon=True)
    thread.start()

    def exchange() -> None:
        framing.send_frame(near, framing.wrap_mux(1, request))
        framing.unwrap_mux(framing.recv_frame(near))

    try:
        return _median_s(exchange) * 1e3
    finally:
        near.close()
        thread.join(timeout=5.0)
        far.close()


def storage_get_put_us(num_groups: int, label_len: int) -> float:
    """One ``get`` + ``put`` of one object's label list, in microseconds."""
    store: KeyValueStore[list[StoredLabel]] = KeyValueStore("bench")
    key = os.urandom(16)
    store.put(key, [StoredLabel(os.urandom(label_len), 0) for _ in range(num_groups)])
    loops = 1000

    def get_put() -> None:
        for _ in range(loops):
            store.put(key, store.get(key))

    return _median_s(get_put) * 1e6 / loops
