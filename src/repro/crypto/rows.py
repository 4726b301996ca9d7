"""One-HMAC point-and-permute table rows (paper §10.2).

Under point-and-permute the server is *told* which slot of each group table
to open, so an entry needs none of :mod:`repro.crypto.aead`'s "which of
``2^y`` decryptions succeeded" machinery.  A row is a pad keyed by the old
label::

    row = (payload ‖ 0^8) ⊕ HMAC-SHA256(old_label, "lbl-row\\0" ‖ nonce ‖ ctr)[:len]

with ``payload = new_label ‖ next_slot_byte``, one 16-byte random ``nonce``
per *request* and ``ctr`` the 4-byte counter-mode block index (one block
while ``len ≤ 32``).  ``docs/security-model.md`` has the argument; in short:

* **The nonce is not optional.**  A refused or lost request is re-prepared
  under the *same* old labels (batch rollback, WAL recovery); a
  deterministic pad would be a two-time pad that reveals the operation type.
* **The 8 check bytes are wrong-key detection, not integrity.**  A server
  whose stored label is not the row's key (stale epoch, wrong nonce) sees
  random check bytes and refuses *before* it commits — what rollback and the
  WAL's one-epoch window rely on.  A flipped label bit passes them and is
  caught by the proxy's §5.4 candidate check in ``finalize``.

:func:`seal_rows` takes keys and payloads in wire order, so its one
big-integer XOR output *is* the request's slab; :func:`open_rows` is the
server's side; :func:`seal_row` / :func:`open_row` are the scalar twins.
Rows are metered under the ``aead.*`` ledger ops: one row, one count.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.aead import _IPAD_TRANS, _OPAD_TRANS, _xor, key_schedule
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY

ROW_NONCE_LEN = 16
CHECK_LEN = 8
_DOMAIN = b"lbl-row\x00"
_CHECK = bytes(CHECK_LEN)
_BLOCK = 64


def _count(op: str, n: int) -> None:
    if _obs.enabled and n:
        REGISTRY.counter(f"crypto.aead.{op}").inc(n)
        _ledger.add_op(f"aead.{op}", n)


def seal_row(key: bytes, payload: bytes, nonce: bytes) -> bytes:
    """One row: ``(payload ‖ 0^8) ⊕ pad(key, nonce)`` — the scalar twin."""
    _count("encrypts", 1)
    ipad, opad = key_schedule(key)
    sha = hashlib.sha256
    plain = payload + _CHECK
    pad = b"".join(
        sha(opad + sha(ipad + _DOMAIN + nonce + ctr.to_bytes(4, "big")).digest()).digest()
        for ctr in range(-(-len(plain) // 32))
    )
    return _xor(plain, pad[: len(plain)])


def open_row(key: bytes, row: bytes, nonce: bytes) -> bytes | None:
    """The payload of ``row`` if ``key`` and ``nonce`` sealed it, else ``None``."""
    return open_rows([key], [row], [(nonce, 1)])[0]


def _pads(
    keys: "list[bytes] | tuple[bytes, ...]",
    nonce_runs: "list[tuple[bytes, int]]",
    length: int,
    schedules: "list[tuple[bytes, bytes]] | None" = None,
) -> bytes:
    """The concatenated ``length``-byte pads of ``keys`` — the hot loop.

    ``nonce_runs`` lists ``(nonce, count)``: consecutive keys share a
    nonce, one run per request.
    """
    sha = hashlib.sha256
    counters = [ctr.to_bytes(4, "big") for ctr in range(-(-length // 32))]
    one_block = len(counters) == 1
    key_len = len(keys[0]) if schedules is None else 0
    # Equal-width keys (labels), one block, no schedules in hand: the padded
    # key blocks' constant tails are built once per run and HMAC is four
    # one-shot compressions per row with no per-row schedule objects.
    fast = one_block and 16 <= key_len <= _BLOCK and set(map(len, keys)) == {key_len}
    head = b"\x36" * (_BLOCK - key_len) + _DOMAIN if fast else _DOMAIN
    tails: list = []  # per key: its HMAC message (one block) or messages
    for nonce, count in nonce_runs:
        blocks = [head + nonce + ctr for ctr in counters]
        tails += [blocks[0] if one_block else blocks] * count
    if fast:
        ipad, opad, fill = _IPAD_TRANS, _OPAD_TRANS, b"\x5c" * (_BLOCK - key_len)
        inner = [sha(k.translate(ipad) + t).digest() for k, t in zip(keys, tails)]
        return b"".join(
            [sha(k.translate(opad) + fill + d).digest()[:length] for k, d in zip(keys, inner)]
        )
    if schedules is None:
        schedules = [key_schedule(key) for key in keys]
    if one_block:
        inner = [sha(ipad + t).digest() for (ipad, _), t in zip(schedules, tails)]
        return b"".join(
            [sha(opad + d).digest()[:length] for (_, opad), d in zip(schedules, inner)]
        )
    return b"".join(
        [
            b"".join([sha(opad + sha(ipad + t).digest()).digest() for t in blocks])[:length]
            for (ipad, opad), blocks in zip(schedules, tails)
        ]
    )


def seal_rows(
    keys: "list[bytes] | tuple[bytes, ...]",
    payloads: "list[bytes] | tuple[bytes, ...]",
    nonce: bytes,
    *,
    schedules: "list[tuple[bytes, bytes]] | None" = None,
) -> bytes:
    """Seal equal-length ``payloads[i]`` under ``keys[i]`` (≥ 16 bytes each),
    all with the request's one ``nonce``; returns the slab.

    Row ``i`` of the result (``len(payloads[i]) + 8`` bytes) equals
    ``seal_row(keys[i], payloads[i], nonce)``.  ``schedules`` optionally
    holds each key's precomputed :func:`~repro.crypto.aead.key_schedule`
    (the proxy's label cache) and is then used *instead of* ``keys``, which
    may be ``None``.
    """
    n = len(payloads)
    if len(keys if schedules is None else schedules) != n:
        raise ConfigurationError(f"{n} payloads for another number of keys")
    if not n:
        return b""
    plain = _CHECK.join(payloads) + _CHECK
    length = len(plain) // n
    if set(map(len, payloads)) != {length - CHECK_LEN}:
        raise ConfigurationError("row payloads must have equal lengths")
    _count("encrypts", n)
    return _xor(plain, _pads(keys, [(nonce, n)], length, schedules))


def open_rows(
    keys: "list[bytes] | tuple[bytes, ...]",
    rows: "list[bytes] | tuple[bytes, ...]",
    nonce_runs: "list[tuple[bytes, int]]",
) -> "list[bytes | None]":
    """Open ``rows[i]`` under ``keys[i]``: the payload, or ``None`` where the
    check bytes are not zero (wrong key, wrong nonce, or a row too short to
    hold any).

    ``nonce_runs`` lists ``(nonce, count)`` for consecutive rows — one run
    per request, so a server opens a whole window of requests in one call.
    """
    n = len(keys)
    if len(rows) != n or sum(count for _nonce, count in nonce_runs) != n:
        raise ConfigurationError(f"{n} keys for {len(rows)} rows and their nonce runs")
    widths = set(map(len, rows))
    if len(widths) > 1 and len(nonce_runs) > 1:
        # Requests of different row widths share the window: open each run
        # alone, so an odd one cannot take its window-mates down with it.
        merged, at = [], 0
        for run in nonce_runs:
            merged += open_rows(keys[at : at + run[1]], rows[at : at + run[1]], [run])
            at += run[1]
        return merged
    out: "list[bytes | None]" = [None] * n
    length = max(widths, default=0)
    if len(widths) == 1 and length > CHECK_LEN:
        blob = b"".join(rows)
        opened = _xor(blob, _pads(keys, nonce_runs, length))
        compare = hmac.compare_digest
        split = length - CHECK_LEN
        for index, start in enumerate(range(0, len(blob), length)):
            if compare(opened[start + split : start + length], _CHECK):
                out[index] = opened[start : start + split]
    failures = out.count(None)
    _count("decrypt_failures", failures)
    _count("decrypts", n - failures)
    return out


__all__ = ["seal_row", "open_row", "seal_rows", "open_rows", "ROW_NONCE_LEN", "CHECK_LEN"]
