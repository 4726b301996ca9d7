"""One-pass point-and-permute table rows (paper §10.2).

Under point-and-permute the server is *told* which slot of each group table
to open, so an entry needs none of :mod:`repro.crypto.aead`'s "which of
``2^y`` decryptions succeeded" machinery.  A row is a pad under the old
label::

    row   = (new_label ‖ next_slot_byte ‖ 0^8) ⊕ (pad_0 ‖ pad_1 ‖ …)[:row_len]
    pad_j = π(π(x) ⊕ t_j) ⊕ π(x)        x = old_label[:16],  t_j = nonce ⊕ j

with one 16-byte random ``nonce`` per *request* and ``π`` AES-128 under one
public constant key — JustGarble's fixed-key hash in its tweakable form
(TMMO, Guo–Katz–Wang–Yu 2020).  Nothing is keyed per row, so all pads of a
request are **two** calls of one ECB context: π over the seeds, then π over
the tweaked blocks.  ``docs/security-model.md`` has the argument; in short:

* **The nonce is not optional.**  A refused or lost request is re-prepared
  under the *same* old labels (batch rollback, WAL recovery); a
  deterministic pad would be a two-time pad that reveals the operation type.
* **The 8 check bytes are wrong-key detection, not integrity.**  A server
  whose stored label is not the row's key (stale epoch, wrong nonce) sees
  random check bytes and refuses *before* it commits — what rollback and the
  WAL's one-epoch window rely on.  A flipped label bit passes them and is
  caught by the proxy's §5.4 candidate check in ``finalize``.

**Slab layout.**  A request's rows travel as two runs: every row's label, back
to back, then every row's 9-byte tail (slot byte, check bytes) — the blobs
both ends hold; :func:`split_rows` / :func:`join_rows` are the row-by-row
view.  One row alone is its own slab.

**Whole-slab work.**  No Python loop runs per row: XOR is big-integer XOR,
and bytes move between the runs and π's block planes by struct calls built
once per shape (``_layout``), one body for every label width.

**The context.**  An ECB context is a stream and is not shareable: a partial
block stays buffered and shifts every later call; two threads in it at once
raise.  So each thread has its own, only :func:`_permute` feeds it, and every
length of a run is validated before the run's first call.

Rows are metered under the ``aead.*`` ledger ops (one row, one count), the
blocks fed to π under ``aes.blocks``.
"""

from __future__ import annotations

import struct
import threading
from functools import lru_cache
from itertools import repeat
from operator import add, itemgetter
from typing import Callable

from repro.crypto.aead import _xor
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
except ImportError as exc:  # pragma: no cover - the image ships it
    raise ImportError(
        "repro.crypto.rows needs the 'cryptography' package: point-and-permute "
        "row pads are one fixed-key AES-128 pass (pip install cryptography)"
    ) from exc

ROW_NONCE_LEN = 16
SLOT_LEN = 1
CHECK_LEN = 8
_TAIL_LEN = SLOT_LEN + CHECK_LEN
#: Largest row (label + slot byte + check bytes): four blocks.
MAX_ROW_LEN = 64
#: Width of π, and of the seed a key contributes (its first bytes).
BLOCK = 16
#: π's key: the first 128 fractional bits of the number it is named after.
_PI_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")

_contexts = threading.local()


def _count(op: str, n: int) -> None:
    if _obs.enabled and n:
        REGISTRY.counter(f"crypto.aead.{op}").inc(n)
        _ledger.add_op(f"aead.{op}", n)


def _permute(blocks: bytes) -> bytes:
    """π over whole blocks, on the calling thread's own context."""
    if len(blocks) % BLOCK:
        raise ConfigurationError("the row permutation takes whole 16-byte blocks")
    try:
        update = _contexts.update
    except AttributeError:
        cipher = Cipher(algorithms.AES(_PI_KEY), modes.ECB())
        update = _contexts.update = cipher.encryptor().update
    if _obs.enabled:
        _ledger.add_op("aes.blocks", len(blocks) // BLOCK)
    return update(blocks)


def row_blocks(row_len: int) -> int:
    """Blocks of pad behind a row of ``row_len`` bytes."""
    return -(-row_len // BLOCK)


def split_rows(slab: bytes, row_len: int) -> list[bytes]:
    """The rows of ``slab``, each as its own ``row_len`` bytes."""
    tail = min(_TAIL_LEN, row_len)  # any width parses, as any slab must
    width, total = row_len - tail, len(slab) // row_len
    tails = range(total * width, len(slab), tail)
    return [
        slab[row * width : (row + 1) * width] + slab[at : at + tail]
        for row, at in enumerate(tails)
    ]


def join_rows(rows: "list[bytes] | tuple[bytes, ...]") -> bytes:
    """The slab of equal-length ``rows`` — inverse of :func:`split_rows`."""
    return b"".join([r[:-_TAIL_LEN] for r in rows] + [r[-_TAIL_LEN:] for r in rows])


def _regather(segments: "list[tuple[int, int, int]]", size: int) -> "Callable[[bytes], bytes]":
    """A function copying ``(source, target, length)`` segments of a buffer
    into ``size`` zero bytes: one struct unpack, at most one itemgetter, one
    struct pack.  Segments adjacent on both sides merge into one field."""
    merged: "list[list[int]]" = []
    for source, target, length in sorted(segments, key=itemgetter(1)):
        last = merged[-1] if merged else [0, 0, -1]
        if last[0] + last[2] == source and last[1] + last[2] == target:
            last[2] += length
        else:
            merged.append([source, target, length])

    def fields(spans: "list[list[int]]", end: int = 0) -> str:
        ends = [0] + [start + length for start, length in spans]
        parts = [f"{start - at}x{length}s" for (start, length), at in zip(spans, ends)]
        return "".join(parts) + (f"{end - ends[-1]}x" if end else "")

    sources = sorted(range(len(merged)), key=lambda k: merged[k][0])
    unpack = struct.Struct(fields([merged[k][::2] for k in sources])).unpack_from
    pack = struct.Struct(fields([m[1:] for m in merged], size)).pack
    back = sorted(range(len(merged)), key=sources.__getitem__)
    order = tuple if back == sorted(back) else itemgetter(*back)  # tuple(t) is t
    return lambda buffer: pack(*order(unpack(buffer)))


@lru_cache(maxsize=32)
def _layout(n: int, key_len: int, label_len: int) -> tuple:
    """``(seeds, payload, split, checks)`` of ``n`` rows.  Pads leave π as
    planes (block ``j`` of every row, rows back to back): ``seeds`` takes keys
    to their first blocks, ``payload`` labels to the planes holding them,
    ``split`` planes to the label and tail runs; ``checks`` masks check bytes."""
    plane, row_len = n * BLOCK, label_len + _TAIL_LEN

    def rows(first: int, last: int, to: int, width: int) -> "list[tuple[int, int, int]]":
        # Columns [first, last) of every row, cut per block, to ``to`` onwards.
        cuts = [first, *range(first // BLOCK * BLOCK + BLOCK, last, BLOCK), last]
        cut = [(a // BLOCK * plane + a % BLOCK, a - first, b - a) for a, b in zip(cuts, cuts[1:])]
        return [(at + r * BLOCK, to + r * width + c, w) for r in range(n) for at, c, w in cut]

    labels = rows(0, label_len, 0, label_len)
    tails = rows(label_len, row_len, n * label_len, _TAIL_LEN)
    return (
        _regather([(r * key_len, r * BLOCK, BLOCK) for r in range(n)], plane),
        _regather([(t, s, w) for s, t, w in labels], -(-label_len // BLOCK) * plane),
        _regather(labels + tails, n * row_len),
        int.from_bytes((bytes(SLOT_LEN) + b"\xff" * CHECK_LEN) * n, "big"),
    )


#: ``t_j = nonce ⊕ j`` differs from ``t_0`` in its last byte only: byte -> byte ⊕ j.
_LAST_BYTE_XOR = [bytes(b ^ j for b in range(256)) for j in range(MAX_ROW_LEN // BLOCK)]


def _mix(keys: bytes, nonce: bytes, labels: bytes, n: int) -> bytes:
    """The labels of ``n`` rows XORed with their pads under ``keys``, then the
    pads' tail run; every width is validated before π sees a byte.  π over
    the seeds is read once for all planes, plane ``j``'s π input is plane 0's
    with each block's last byte translated, and only label planes are read."""
    if n < 1 or not labels or len(labels) % n:
        raise ConfigurationError("row labels must be equal-width, one per row")
    key_len, label_len = len(keys) // n, len(labels) // n
    if len(keys) % n or key_len < BLOCK:
        raise ConfigurationError("row keys must be equal-width, 16 bytes or more")
    if label_len + _TAIL_LEN > MAX_ROW_LEN:
        raise ConfigurationError(f"a row holds at most {MAX_ROW_LEN} bytes")
    if len(nonce) != ROW_NONCE_LEN:
        raise ConfigurationError(f"the row nonce is {ROW_NONCE_LEN} bytes")
    seeds, payload, split, _ = _layout(n, key_len, label_len)
    plane, blocks = n * BLOCK, row_blocks(label_len + _TAIL_LEN)
    hidden = int.from_bytes(_permute(seeds(keys)), "big")
    first = (hidden ^ int.from_bytes(nonce * n, "big")).to_bytes(plane, "big")
    tweaked = bytearray(first * blocks)
    last = first[BLOCK - 1 :: BLOCK]
    tweaked[BLOCK - 1 :: BLOCK] = b"".join([last.translate(t) for t in _LAST_BYTE_XOR[:blocks]])
    under = 0  # π(x) under every plane, the labels XORed into theirs
    for j in range(blocks):
        under = under << plane * 8 | hidden
        if j == (label_len - 1) // BLOCK:
            under ^= int.from_bytes(payload(labels), "big")
    mixed = int.from_bytes(_permute(tweaked), "big") ^ under
    return split(mixed.to_bytes(plane * blocks, "big"))


def seal_rows(keys: bytes, labels: bytes, slots: bytes, nonce: bytes) -> bytes:
    """Seal ``n = len(slots)`` rows under the request's one ``nonce``; returns
    their slab.

    Row ``i`` carries ``labels[i] ‖ slots[i]`` under ``keys[i]``; ``keys`` and
    ``labels`` are each ``n`` equal-width items back to back (a key is 16
    bytes or more, of which the first 16 seed the pad).
    """
    slab = bytearray(_mix(keys, nonce, labels, len(slots)))
    tails = slice(len(slab) - len(slots) * _TAIL_LEN, None, _TAIL_LEN)
    slab[tails] = _xor(slab[tails], slots)
    _count("encrypts", len(slots))
    return bytes(slab)


@lru_cache(maxsize=32)
def _rows(total: int, width: int) -> "Callable[[bytes], tuple[bytes, ...]]":
    """Cuts a slab of ``total`` rows into its labels, then its tails."""
    return struct.Struct(f"{width}s" * total + f"{_TAIL_LEN}s" * total).unpack


def open_rows(
    runs: "list[tuple[bytes, bytes, bytes, int, list[int]]]",
) -> "list[tuple[bytes, bytes, list[int]]]":
    """Open a window of requests in one call.

    Each run is one request's ``(nonce, keys, slab, row_len, picks)``: row
    ``picks[i]`` of ``slab`` (rows of ``row_len`` bytes) is opened under
    ``keys[i]`` (equal-width keys back to back).  Per run the result is
    ``(labels, slots, failed)``: the picked rows' labels back to back, their
    slot bytes, and the indices into ``picks`` of the rows whose check bytes
    are not zero (wrong key, wrong nonce) — every index, and nothing opened,
    when the run has not the shape of one :func:`seal_rows` built.  One
    itemgetter picks the rows and one mask checks them.
    """
    out = []
    decrypts = failures = 0
    for nonce, keys, slab, row_len, picks in runs:
        n, width = len(picks), row_len - _TAIL_LEN
        total, odd = divmod(len(slab), max(row_len, 1))
        try:
            if odd or width < 1 or not picks or not 0 <= min(picks) <= max(picks) < total:
                raise ConfigurationError("picked rows are not rows of the slab")
            sealed = _rows(total, width)(slab)
            picked = itemgetter(*picks, *map(add, picks, repeat(total)))(sealed)
            opened = _mix(keys, nonce, b"".join(picked[:n]), n)
        except ConfigurationError:
            labels, tails, failed = b"", b"", list(range(n))
        else:
            labels, tails = opened[: n * width], _xor(opened[n * width :], b"".join(picked[n:]))
            checked = int.from_bytes(tails, "big") & _layout(n, len(keys) // n, width)[3]
            rows = range(n) if checked else ()  # scanned only to name the failures
            failed = [r for r in rows if any(tails[r * _TAIL_LEN + SLOT_LEN :][:CHECK_LEN])]
        out.append((labels, tails[::_TAIL_LEN], failed))
        decrypts += n - len(failed)
        failures += len(failed)
    _count("decrypt_failures", failures)
    _count("decrypts", decrypts)
    return out


def open_row(key: bytes, row: bytes, nonce: bytes) -> bytes | None:
    """The payload of ``row`` if ``key`` and ``nonce`` sealed it, else ``None``."""
    ((label, slot, failed),) = open_rows([(nonce, key, row, len(row), [0])])
    return None if failed else label + slot


__all__ = [
    "open_row",
    "seal_rows",
    "open_rows",
    "split_rows",
    "join_rows",
    "row_blocks",
    "ROW_NONCE_LEN",
    "SLOT_LEN",
    "CHECK_LEN",
    "MAX_ROW_LEN",
]
