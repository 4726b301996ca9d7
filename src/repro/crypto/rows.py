"""One-pass point-and-permute table rows (paper §10.2).

Under point-and-permute the server is *told* which slot of each group table
to open, so an entry needs none of :mod:`repro.crypto.aead`'s "which of
``2^y`` decryptions succeeded" machinery.  A row is a pad under the old
label::

    row   = (new_label ‖ next_slot_byte ‖ 0^15) ⊕ (pad_0 ‖ pad_1 ‖ …)[:row_len]
    pad_j = π(π(x) ⊕ t_j) ⊕ π(x)        x = old_label[:16],  t_j = nonce ⊕ j

with one 16-byte random ``nonce`` per *request* and ``π`` AES-128 under one
public constant key — JustGarble's fixed-key hash in its tweakable form
(TMMO, Guo–Katz–Wang–Yu 2020).  Nothing is keyed per row, so all pads of a
request are **two** calls of one ECB context: π over the seeds, then π over
the tweaked blocks.  ``docs/security-model.md`` has the argument; in short:

* **The nonce is not optional.**  A refused or lost request is re-prepared
  under the *same* old labels (batch rollback, WAL recovery); a
  deterministic pad would be a two-time pad that reveals the operation type.
* **The 15 check bytes are wrong-key detection, not integrity.**  A stale
  epoch, a rolled-back server or a wrong nonce is a wrong key for the whole
  record, so only the *head* rows (group 0's ``2^y``) carry them: refused
  *before* commit, as rollback and the WAL's one-epoch window need.  A
  flipped label or slot bit is committed and caught by §5.4 in ``finalize``.

**Slab layout.**  Three runs — every row's label, every row's slot byte, the
head rows' check bytes — the blobs both ends hold (:func:`split_rows` /
:func:`join_rows` are the row-by-row view; one row is a slab, a head row).
Every row's pad is ``row_blocks(L + 16)`` blocks, check bytes or not.

**Whole-slab work.**  No Python loop runs per row: only the bytes a slab
keeps are XORed, as big integers (through :func:`to_int` / :func:`to_bytes`),
moved by struct calls and strided slices built once per shape (``_layout``).

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
from operator import itemgetter
from typing import Callable

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
SLOT_LEN = 1  # the paper's y-bit slot index, as a byte (y <= 8)
#: Zero bytes after a head row's slot byte: at 128-bit labels, the rest of
#: its second pad block.
CHECK_LEN = 15
#: Largest head row (label + slot byte + check bytes): five blocks.
MAX_ROW_LEN = 80
#: Width of π, and of the seed a key contributes (its first bytes).
BLOCK = 16
#: π's key: the first 128 fractional bits of the number it is named after.
_PI_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")

_contexts = threading.local()


def to_int(data: bytes) -> int:
    """``data`` as a big-endian integer: the kernel's one way in."""
    return int.from_bytes(data, "big")


def to_bytes(value: int, length: int) -> bytes:
    """``value`` as ``length`` big-endian bytes: the kernel's one way out."""
    return value.to_bytes(length, "big")


def xor(data: bytes, *others: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of each of ``others``."""
    n, value = len(data), to_int(data)
    for other in others:
        value ^= to_int(other[:n])
    return to_bytes(value, n)


#: ``XOR_TABLES[w]`` is the ``translate`` table of ``b -> b ⊕ w``.
XOR_TABLES = tuple(xor(bytes(range(256)), bytes([w]) * 256) for w in range(256))


def _count(op: str, n: int) -> None:
    if n and _obs.enabled:
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
    return update(blocks)


def row_blocks(row_len: int) -> int:
    """Blocks of pad behind a row of ``row_len`` bytes."""
    return -(-row_len // BLOCK)


def split_rows(slab: bytes, row_len: int, head: int) -> list[bytes]:
    """The rows of ``slab`` (rows of ``row_len`` bytes, the first ``head`` of
    them head rows, with their check bytes), each as its own bytes."""
    width, total = row_len - SLOT_LEN, (len(slab) - head * CHECK_LEN) // max(row_len, 1)
    checks = [slab[total * row_len + i * CHECK_LEN :][:CHECK_LEN] for i in range(head)]
    slots = slab[total * width : total * row_len]
    rows = [slab[i * width : (i + 1) * width] + slots[i : i + 1] for i in range(total)]
    return [row + check for row, check in zip(rows, checks)] + rows[head:]


def join_rows(rows: "list[bytes] | tuple[bytes, ...]", head: int) -> bytes:
    """The slab of ``rows``, the first ``head`` of them head rows — inverse
    of :func:`split_rows`."""
    width = len(rows[0]) - SLOT_LEN - CHECK_LEN
    runs = [r[:width] for r in rows] + [r[width : width + SLOT_LEN] for r in rows]
    return b"".join(runs + [r[width + SLOT_LEN :] for r in rows[:head]])


def regather(segments: "list[tuple[int, int, int]]", size: int) -> "Callable[[bytes], bytes]":
    """A function copying ``(source, target, length)`` segments of a buffer
    into ``size`` zero bytes: one struct unpack, at most one itemgetter, one
    struct pack — or, when that is one prefix, a slice.  Segments adjacent on
    both sides merge into one field."""
    merged: "list[list[int]]" = []
    for source, target, length in sorted(segments, key=itemgetter(1)):
        last = merged[-1] if merged else [0, 0, -1]
        if last[0] + last[2] == source and last[1] + last[2] == target:
            last[2] += length
        else:
            merged.append([source, target, length])

    if len(merged) == 1 and merged[0][:2] == [0, 0]:  # a prefix: no copy to make
        length = merged[0][2]
        return lambda buffer: bytes(buffer[:length]).ljust(size, b"\0")

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
def _layout(n: int, key_len: int, label_len: int, head: int) -> tuple:
    """``(seeds, planes, load, unload, slot, checks, hidden)`` of ``n`` rows,
    the first ``head`` of them head rows, π's output being planes (block
    ``j`` of every row, rows back to back): keys to their first blocks, the
    label run to and from the ``planes`` label planes, where the slot column
    starts, the head rows' check columns out of π's output and out of π(x)."""
    plane, row_len = n * BLOCK, label_len + SLOT_LEN

    def rows(first: int, last: int, count: int, stride: int = plane) -> "list[tuple]":
        # Columns [first, last) of ``count`` rows, planes ``stride`` apart, to a run.
        cuts = [first, *range(first // BLOCK * BLOCK + BLOCK, last, BLOCK), last]
        cut = [(a // BLOCK * stride + a % BLOCK, a - first, b - a) for a, b in zip(cuts, cuts[1:])]
        width = last - first
        return [(at + r * BLOCK, r * width + c, w) for r in range(count) for at, c, w in cut]

    planes, labels = row_blocks(label_len), rows(0, label_len, n)
    checks = (row_len, row_len + CHECK_LEN, head)
    return (
        regather([(r * key_len, r * BLOCK, BLOCK) for r in range(n)], plane),
        planes,
        regather([(t, s, w) for s, t, w in labels], planes * plane),
        regather(labels, n * label_len),
        label_len // BLOCK * plane + label_len % BLOCK,
        regather(rows(*checks), head * CHECK_LEN),
        regather(rows(*checks, stride=0), head * CHECK_LEN),
    )


def _mix(keys: bytes, nonce: bytes, labels: bytes, slots: bytes, head: int) -> bytes:
    """The slab of ``n = len(slots)`` rows under ``keys``: ``labels`` and
    ``slots`` XORed with their pads, then the first ``head`` rows' check
    pads; every width is validated before π sees a byte.  Plane ``j``'s π
    input is plane 0's with each block's last byte XOR ``j`` (``t_j = nonce ⊕ j``)."""
    n = len(slots)
    if n < 1 or not labels or len(labels) % n:
        raise ConfigurationError("row labels must be equal-width, one per row")
    key_len, label_len = len(keys) // n, len(labels) // n
    if len(keys) % n or key_len < BLOCK:
        raise ConfigurationError("row keys must be equal-width, 16 bytes or more")
    if label_len + SLOT_LEN + CHECK_LEN > MAX_ROW_LEN:
        raise ConfigurationError(f"a row holds at most {MAX_ROW_LEN} bytes")
    if len(nonce) != ROW_NONCE_LEN:
        raise ConfigurationError(f"the row nonce is {ROW_NONCE_LEN} bytes")
    if not 1 <= head <= n:
        raise ConfigurationError("a slab has from one head row to all of them")
    seeds, planes, load, unload, at, checks, hidden_checks = _layout(n, key_len, label_len, head)
    plane, blocks = n * BLOCK, row_blocks(label_len + SLOT_LEN + CHECK_LEN)
    span = planes * plane
    hidden = _permute(seeds(keys))
    under = to_int(hidden * planes)  # π(x) under every label plane
    first = to_bytes(under >> 8 * (span - plane) ^ to_int(nonce * n), plane)
    tweaked = bytearray(first * blocks)
    last = first[BLOCK - 1 :: BLOCK]
    tweaked[BLOCK - 1 :: BLOCK] = b"".join([last.translate(XOR_TABLES[j]) for j in range(blocks)])
    pads = _permute(tweaked)
    if _obs.enabled:
        _ledger.add_op("aes.blocks", (len(hidden) + len(pads)) // BLOCK)
    mixed = to_int(memoryview(pads)[:span]) ^ under ^ to_int(load(labels))
    tail = pads[at : at + plane : BLOCK] + checks(pads)  # the slot column, then the checks
    under_tail = hidden[label_len % BLOCK :: BLOCK] + hidden_checks(hidden)
    return unload(to_bytes(mixed, span)) + xor(tail, under_tail, slots.ljust(len(tail), b"\0"))


def seal_rows(keys: bytes, labels: bytes, slots: bytes, nonce: bytes, head: int) -> bytes:
    """Seal ``n = len(slots)`` rows under the request's one ``nonce``, the
    first ``head`` of them with check bytes; returns their slab.

    Row ``i`` carries ``labels[i] ‖ slots[i]`` under ``keys[i]``; ``keys`` and
    ``labels`` are each ``n`` equal-width items back to back (a key is 16
    bytes or more, of which the first 16 seed the pad).
    """
    slab = _mix(keys, nonce, labels, slots, head)
    _count("encrypts", len(slots))
    return slab


@lru_cache(maxsize=32)
def _labels(total: int, width: int) -> "Callable[[bytes], tuple[bytes, ...]]":
    """Cuts the label run of a slab of ``total`` rows into its labels."""
    return struct.Struct(f"{width}s" * total).unpack_from


def open_rows(
    runs: "list[tuple[bytes, bytes, bytes, int, int, list[int]]]",
) -> "list[tuple[bytes, bytes] | None]":
    """Open a window of requests in one call.

    Each run is one request's ``(nonce, keys, slab, row_len, head, picks)``:
    row ``picks[i]`` of ``slab`` (rows of ``row_len`` bytes, the first
    ``head`` of them head rows) is opened under ``keys[i]`` (equal-width keys
    back to back).  The leading picks that are head rows are *checked*; a
    run must lead with one.  Per run the result is ``(labels, slots)``, the
    picked rows' labels back to back and their slot bytes — or ``None``, the
    whole run refused, when a checked row's check bytes are not zero (wrong
    key, wrong nonce) or the run has not the shape of one :func:`seal_rows`
    built.
    """
    out = []
    decrypts = failures = 0
    for nonce, keys, slab, row_len, head, picks in runs:
        n, width = len(picks), row_len - SLOT_LEN
        total, odd = divmod(len(slab) - head * CHECK_LEN, max(row_len, 1))
        checked = next((i for i, p in enumerate(picks) if not 0 <= p < head), n)
        try:
            if odd or width < 1 or not checked or not 0 <= min(picks) <= max(picks) < total:
                raise ConfigurationError("picked rows are not rows of the slab")
            get, at = itemgetter(*picks, 0), total * row_len  # a tuple, whatever n
            labels, slots = get(_labels(total, width)(slab)), get(slab[total * width : at])
            opened = _mix(keys, nonce, b"".join(labels[:n]), bytes(slots[:n]), checked)
            if opened[n * row_len :] != b"".join(
                [slab[at + p * CHECK_LEN :][:CHECK_LEN] for p in picks[:checked]]
            ):
                raise ConfigurationError("a checked row's check bytes are not zero")
        except ConfigurationError:
            out.append(None)
            failures += n
        else:
            out.append((opened[: n * width], opened[n * width : n * row_len]))
            decrypts += n
    _count("decrypt_failures", failures)
    _count("decrypts", decrypts)
    return out


def open_row(key: bytes, row: bytes, nonce: bytes) -> bytes | None:
    """The payload of the head row ``row`` if ``key`` and ``nonce`` sealed it,
    else ``None``."""
    (opened,) = open_rows([(nonce, key, row, len(row) - CHECK_LEN, 1, [0])])
    return None if opened is None else b"".join(opened)


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
