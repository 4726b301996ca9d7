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
both ends hold, so neither interleaves or splits one; :func:`split_rows` /
:func:`join_rows` are the row-by-row view.  One row alone is its own slab.

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
_CHECK_MASK = bytes(SLOT_LEN) + b"\xff" * CHECK_LEN
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


# The pads of ``n`` rows leave π as planes — block ``j`` of every row, rows back
# to back — so that is the form rows are sealed and opened in, the last plane
# zero-filled.  Byte ``column`` of the rows is a stride of it.


def _column(column: int, n: int) -> slice:
    plane, at = divmod(column, BLOCK)
    return slice(plane * n * BLOCK + at, (plane + 1) * n * BLOCK, BLOCK)


def _scatter(planes: bytearray, first: int, items: bytes, width: int, n: int) -> None:
    """Write ``n`` items of ``width`` bytes into columns ``[first, first + width)``."""
    if width == BLOCK and not first % BLOCK:  # exactly one plane
        planes[first * n : (first + BLOCK) * n] = items
        return
    for at in range(width):
        planes[_column(first + at, n)] = items[at::width]


def _gather(planes: bytes, first: int, width: int, n: int) -> bytes:
    """Columns ``[first, first + width)`` as ``n`` items back to back."""
    if width == BLOCK and not first % BLOCK:
        return planes[first * n : (first + BLOCK) * n]
    items = bytearray(n * width)
    for at in range(width):
        items[at::width] = planes[_column(first + at, n)]
    return bytes(items)


def _pads(keys: bytes, key_len: int, nonce: bytes, blocks: int) -> int:
    """``blocks`` whole planes of pad for the rows of ``keys``, as one integer
    — two passes of π, the hot path."""
    seeds = keys
    if key_len != BLOCK:
        seeds = b"".join([keys[at : at + BLOCK] for at in range(0, len(keys), key_len)])
    n = len(seeds) // BLOCK
    hidden = int.from_bytes(_permute(seeds) * blocks, "big")
    tweak = int.from_bytes(nonce, "big")
    tweaks = b"".join([(tweak ^ j).to_bytes(BLOCK, "big") * n for j in range(blocks)])
    tweaked = hidden ^ int.from_bytes(tweaks, "big")
    return int.from_bytes(_permute(tweaked.to_bytes(len(tweaks), "big")), "big") ^ hidden


def _mix(keys: bytes, nonce: bytes, labels: bytes, tails: bytes) -> tuple[bytes, bytes]:
    """Both runs of ``n`` rows — their labels, their 9-byte tails — XORed with
    the rows' pads under ``keys``.  Every width is validated before π sees a
    byte of the run."""
    n, odd = divmod(len(tails), _TAIL_LEN)
    if odd or not n or len(labels) % n or not labels:
        raise ConfigurationError("row labels must be equal-width, one per tail")
    key_len, label_len = len(keys) // n, len(labels) // n
    if len(keys) % n or key_len < BLOCK:
        raise ConfigurationError("row keys must be equal-width, 16 bytes or more")
    if label_len + _TAIL_LEN > MAX_ROW_LEN:
        raise ConfigurationError(f"a row holds at most {MAX_ROW_LEN} bytes")
    if len(nonce) != ROW_NONCE_LEN:
        raise ConfigurationError(f"the row nonce is {ROW_NONCE_LEN} bytes")
    blocks = row_blocks(label_len + _TAIL_LEN)
    planes = bytearray(blocks * n * BLOCK)
    _scatter(planes, 0, labels, label_len, n)
    _scatter(planes, label_len, tails, _TAIL_LEN, n)
    mixed = int.from_bytes(planes, "big") ^ _pads(keys, key_len, nonce, blocks)
    planes = mixed.to_bytes(len(planes), "big")
    return _gather(planes, 0, label_len, n), _gather(planes, label_len, _TAIL_LEN, n)


def seal_rows(keys: bytes, labels: bytes, slots: bytes, nonce: bytes) -> bytes:
    """Seal ``n = len(slots)`` rows under the request's one ``nonce``; returns
    their slab.

    Row ``i`` carries ``labels[i] ‖ slots[i]`` under ``keys[i]``; ``keys`` and
    ``labels`` are each ``n`` equal-width items back to back (a key is 16
    bytes or more, of which the first 16 seed the pad).
    """
    tails = bytearray(len(slots) * _TAIL_LEN)
    tails[::_TAIL_LEN] = slots
    slab = b"".join(_mix(keys, nonce, labels, tails))
    _count("encrypts", len(slots))
    return slab


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
    when the run has not the shape of one :func:`seal_rows` built.  The check
    is one mask over the run; rows are scanned only to name the failures.
    """
    out = []
    decrypts = failures = 0
    for nonce, keys, slab, row_len, picks in runs:
        n, width = len(picks), row_len - _TAIL_LEN
        total, odd = divmod(len(slab), max(row_len, 1))
        try:
            if odd or width < 1 or (picks and not 0 <= min(picks) <= max(picks) < total):
                raise ConfigurationError("picked rows are not rows of the slab")
            sealed_labels = struct.unpack_from(f"{width}s" * total, slab)
            sealed_tails = struct.unpack_from(f"{_TAIL_LEN}s" * total, slab, width * total)
            labels, tails = _mix(
                keys,
                nonce,
                b"".join([sealed_labels[row] for row in picks]),
                b"".join([sealed_tails[row] for row in picks]),
            )
        except ConfigurationError:
            labels, tails, failed = b"", b"", list(range(n))
        else:
            failed = []
            if int.from_bytes(tails, "big") & int.from_bytes(_CHECK_MASK * n, "big"):
                failed = [
                    row for row in range(n) if any(tails[row * _TAIL_LEN + SLOT_LEN :][:CHECK_LEN])
                ]
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
