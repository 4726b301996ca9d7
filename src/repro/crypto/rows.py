"""Point-and-permute table rows in three OpenSSL passes (paper §10.2).

Under point-and-permute the server is *told* which row of each group table
to open, so an entry needs none of :mod:`repro.crypto.aead`'s "which of
``2^y`` decryptions succeeded" machinery.  A row is the label it carries
under a pad of its key ``x``, the first 16 bytes of the old label::

    row   = label ⊕ (p_0(x) ‖ p_1(x) ‖ …)[:L]      p_j(x) = π⁻¹(x ⊕ N_j) ⊕ π⁻¹(x)
    check = p_b(x)                                  N_j = π⁻¹(C ⊕ j),  b = ⌈L/16⌉

with one 16-byte random nonce ``C`` per *request* and ``π`` AES-128 under
one public constant key.  Only group 0's ``2^y`` rows (the *head* rows)
carry the check block, the pad of zeros: a stale epoch, a rolled-back
server or a wrong nonce is a wrong key for the whole record, refused
*before* commit.  The slot a row leads to rides in the low bits of its
label (:class:`~repro.crypto.labels.LabelCodec`), so a row is the label
alone.  ``docs/security-model.md`` has the argument, the nonce's included.

**One stream.**  Lay every row block out as the triple ``[L_j, x, C ⊕ j]``
(:func:`tweaks`) and every head row's check as ``[0, x, C ⊕ b]``.  CBC
decryption under π maps block ``k`` to ``π⁻¹(c_k) ⊕ c_{k-1}``, so one pass
leaves ``[·, π⁻¹(x) ⊕ L_j, x ⊕ N_j]`` and a second leaves ``π⁻¹(x ⊕ N_j) ⊕
π⁻¹(x) ⊕ L_j`` — the sealed block — in the third lane.  The proxy's one ECB
call under the label key emits that stream as it stands
(:meth:`LabelCodec.table_stream
<repro.crypto.labels.LabelCodec.table_stream>`); :func:`seal` runs the two
passes and gathers the third lanes by strided slices.  Opening is sealing
again: the shard lays its picked rows out as ``[row_j, x, C ⊕ j]`` and
reads back the labels, and zeros where the check block was
(:func:`open_rows`).

**The context.**  A cipher context is a stream and is not shareable: a
partial block stays buffered and shifts every later call; two threads in it
at once raise.  So each thread has its own, every length is validated
before the first call, and the chaining value a context carries from call
to call reaches only the first triple's junk lanes.  Rows are metered
under the ``aead.*`` ledger ops (one row, one count), the blocks fed to π
under ``aes.blocks``, once per :func:`seal` or :func:`open_rows` call.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger

try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
except ImportError as exc:  # pragma: no cover - the image ships it
    raise ImportError(
        "repro.crypto.rows needs the 'cryptography' package: point-and-permute "
        "rows are fixed-key AES-128 passes (pip install cryptography)"
    ) from exc

ROW_NONCE_LEN = 16
#: Width of π, of a key's seed (its first bytes) and of a head row's check block.
BLOCK = 16
CHECK_LEN = BLOCK
#: One triple of the stream: a payload block, the key, the tweak block.
TRIPLE = 3 * BLOCK
#: π's key: the first 128 fractional bits of the number it is named after.
_PI_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")
#: memoryview formats by element width, for strided slices.
_FORMATS = {8: "Q", 4: "I", 2: "H", 1: "B"}

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


def _meter(blocks: int, **rows: int) -> None:
    """One guard per kernel call: the AES blocks it put through π, and its
    rows under ``aead.*`` (one row, one count)."""
    if _obs.enabled:
        _ledger.add_op("aes.blocks", blocks)
        for op, n in rows.items():
            if n:
                _ledger.add_op(f"aead.{op}", n)


def _unchain(stream: bytes) -> bytes:
    """Two CBC decryptions under π of whole triples, on this thread's own context."""
    if len(stream) % TRIPLE:
        raise ConfigurationError("the row stream takes whole 48-byte triples")
    try:
        update = _contexts.unchain
    except AttributeError:
        cipher = Cipher(algorithms.AES(_PI_KEY), modes.CBC(bytes(BLOCK)))
        update = _contexts.unchain = cipher.decryptor().update
    return update(update(stream))


#: ``π(0)``: the one tweak block whose ``N_j`` is zero, making pad ``j`` zero.
_ZERO_PAD = Cipher(algorithms.AES(_PI_KEY), modes.ECB()).encryptor().update(bytes(BLOCK))


def tweaks(nonce: bytes, count: int) -> bytes:
    """``C_j = C ⊕ j`` for ``j < count``, ``C`` the request's nonce: the third
    block of every triple of its stream (``label_blocks`` of them, then the
    checks').  A nonce one of whose ``C_j`` is ``π(0)`` — odds 2^-124 for a
    random one — is refused: its ``N_j`` is zero, and so is pad ``j``."""
    if len(nonce) != ROW_NONCE_LEN:
        raise ConfigurationError(f"the row nonce is {ROW_NONCE_LEN} bytes")
    if not 0 < count <= 256:
        raise ConfigurationError("a row is one to 255 blocks")
    if nonce[:-1] == _ZERO_PAD[:-1] and nonce[-1] ^ _ZERO_PAD[-1] < count:
        raise ConfigurationError("a nonce with N_j = 0 makes pad j zero")
    run = bytearray(nonce * count)
    run[BLOCK - 1 :: BLOCK] = bytes(range(count)).translate(XOR_TABLES[nonce[-1]])
    return bytes(run)


@lru_cache(maxsize=64)
def plan(width: int, take: int, count: int, at: int, step: int, spread: int = TRIPLE) -> tuple:
    """Strided slices between ``count`` items ``width`` bytes apart and a
    stream: byte ``c < take`` of item ``i`` is stream byte ``at + i·step +
    spread·⌊c/16⌋ + c mod 16``.  ``(format, pairs)``: one ``(item slice,
    stream slice)`` pair per column of elements, each the widest of 8, 4,
    2, 1 bytes that keeps every column aligned — a 128-bit label is two
    columns, a 440-bit one 55."""
    unit = next(u for u in (8, 4, 2, 1) if not (width % u or take % u or at % u or step % u))
    pairs = []
    for c in range(0, take, unit):
        start = at + c // BLOCK * spread + c % BLOCK
        item = slice(c // unit, (c + count * width) // unit, width // unit)
        pairs.append((item, slice(start // unit, (start + count * step) // unit, step // unit)))
    return _FORMATS[unit], tuple(pairs)


def _scatter(stream: bytearray, items: bytes, moves: tuple) -> None:
    """Copy ``items`` into ``stream`` along a :func:`plan`."""
    fmt, pairs = moves
    target, source = memoryview(stream).cast(fmt), memoryview(items).cast(fmt)
    for item, at in pairs:
        target[at] = source[item]


def gather(stream: bytes, size: int, moves: tuple) -> bytearray:
    """``size`` bytes of items copied out of ``stream`` along a :func:`plan`."""
    fmt, pairs = moves
    out = bytearray(size)
    target, source = memoryview(out).cast(fmt), memoryview(stream).cast(fmt)
    for item, at in pairs:
        target[item] = source[at]
    return out


@lru_cache(maxsize=32)
def _cuts(rows: int, label_len: int, head: int) -> tuple:
    """``(plan, size)`` per region of a slab — labels, then checks — out of
    the stream's third lanes; one region when labels are one block."""
    blocks = -(-label_len // BLOCK)
    if label_len == BLOCK:
        return ((plan(BLOCK, BLOCK, rows + head, 2 * BLOCK, TRIPLE), (rows + head) * BLOCK),)
    checks = rows * blocks * TRIPLE + 2 * BLOCK
    return (
        (plan(label_len, label_len, rows, 2 * BLOCK, blocks * TRIPLE), rows * label_len),
        (plan(BLOCK, BLOCK, head, checks, TRIPLE), head * BLOCK),
    )


def _pads(stream: bytes, rows: int, label_len: int, head: int) -> bytes:
    """The third lanes of ``stream`` after both passes: each block XOR its pad."""
    out = _unchain(stream)
    return b"".join([gather(out, size, moves) for moves, size in _cuts(rows, label_len, head)])


def seal(stream: bytes, label_len: int, head: int) -> bytes:
    """The slab of one request's stream: ``⌈label_len/16⌉`` triples per row,
    then ``head`` check triples (module docstring), as the rows' sealed
    labels back to back and then the head rows' check blocks."""
    blocks = -(-label_len // BLOCK)
    triples, odd = divmod(len(stream), TRIPLE)
    rows, ragged = divmod(triples - head, blocks) if label_len > 0 else (0, 1)
    if odd or ragged or not 1 <= head <= rows:
        raise ConfigurationError("a row stream is whole rows, then one to all of their checks")
    slab = _pads(stream, rows, label_len, head)
    _meter(2 * len(stream) // BLOCK, encrypts=rows)
    return slab


@lru_cache(maxsize=32)
def _layout(rows: int, label_len: int, key_len: int, head: int) -> tuple:
    """``(source, plan)`` per copy :func:`_stream` makes: values (0), keys (1), checks (2)."""
    blocks = -(-label_len // BLOCK)
    step, base = blocks * TRIPLE, rows * blocks * TRIPLE
    keys = [(1, plan(key_len, BLOCK, rows, j * TRIPLE + BLOCK, step)) for j in range(blocks)]
    return (
        (0, plan(label_len, label_len, rows, 0, step)),
        *keys,
        (1, plan(key_len, BLOCK, head, base + BLOCK, TRIPLE)),
        (2, plan(BLOCK, BLOCK, head, base, TRIPLE)),
    )


def _stream(values: bytes, keys: bytes, checks: bytes, nonce: bytes, label_len: int) -> bytearray:
    """The stream of ``len(values) // label_len`` rows carrying ``values``
    under ``keys`` (equal widths, 16 bytes or more, the first 16 used), then
    one check triple per block of ``checks`` under the first keys."""
    rows, head = len(values) // label_len, len(checks) // BLOCK
    blocks = -(-label_len // BLOCK)
    tweak = tweaks(nonce, blocks + 1)
    lanes = b"".join([bytes(2 * BLOCK) + tweak[j * BLOCK :][:BLOCK] for j in range(blocks)])
    stream = bytearray(lanes) * rows + (bytes(2 * BLOCK) + tweak[-BLOCK:]) * head
    sources = (values, keys, checks)
    for source, moves in _layout(rows, label_len, len(keys) // rows, head):
        _scatter(stream, sources[source], moves)
    return stream


def seal_rows(keys: bytes, labels: bytes, label_len: int, nonce: bytes, head: int) -> bytes:
    """The slab of one row per ``label_len`` bytes of ``labels``, row ``i``
    under key ``i`` of ``keys`` (equal widths of 16 bytes or more), the
    first ``head`` with check blocks: :func:`seal` on a stream built from runs."""
    rows, ragged = divmod(len(labels), label_len) if label_len > 0 else (0, 1)
    key_len, odd = divmod(len(keys), rows) if rows else (0, 1)
    if ragged or odd or key_len < BLOCK or not 1 <= head <= rows:
        raise ConfigurationError(
            "rows need equal-width labels and keys of 16 bytes or more, one to all of them checked"
        )
    return seal(_stream(labels, keys, bytes(head * BLOCK), nonce, label_len), label_len, head)


@lru_cache(maxsize=8)
def _slices(rows: int, label_len: int) -> tuple:
    """The slice of every row of a slab of ``rows`` rows."""
    return tuple(slice(at, at + label_len) for at in range(0, rows * label_len, label_len))


@lru_cache(maxsize=None)
def _one_hot(size: int) -> tuple:
    """Per slot ``s < size``, the ``translate`` table of a label byte to 1
    where its low bits are ``s``, else 0."""
    return tuple(bytes(int(b % size == s) for b in range(256)) for s in range(size))


def _open(nonce: bytes, labels: bytes, slab: bytes, label_len: int, size: int) -> tuple:
    """``(labels, blocks)``: the labels a stored record's picked rows carry,
    ``None`` when the check block is not zero, and the AES blocks spent (see
    :func:`open_rows`); a run of the wrong shape raises before any."""
    groups, ragged = divmod(len(labels), label_len) if label_len >= BLOCK else (0, 1)
    rows = groups * size
    shape = rows * label_len + size * BLOCK
    if ragged or not groups or not 0 < size <= 256 or size & size - 1 or len(slab) != shape:
        raise ConfigurationError("the slab is not one table per stored label")
    column, chosen = labels[BLOCK - 1 :: label_len], bytearray(rows)
    for slot, table in enumerate(_one_hot(size)):
        chosen[slot::size] = column.translate(table)
    # One row object per group, none for the others; the empty slice keeps
    # itemgetter's result a tuple at one group.
    picked = b"".join(itemgetter(*compress(_slices(rows, label_len), chosen), slice(0))(slab))
    check = rows * label_len + (column[0] % size) * BLOCK
    stream = _stream(picked, labels, slab[check : check + BLOCK], nonce, label_len)
    opened = _pads(stream, groups, label_len, 1)
    return (opened[:-BLOCK] if opened[-BLOCK:] == bytes(BLOCK) else None), 2 * len(stream) // BLOCK


def open_rows(runs: "list[tuple[bytes, bytes, bytes, int, int]]") -> "list[bytes | None]":
    """Open a window of requests in one call.

    Each run is one request's ``(nonce, labels, slab, label_len, table_size)``,
    ``labels`` the stored record.  Group ``g`` opens the row at the slot in
    its label's low bits, group 0's *checked*.  Per run the result is the
    opened labels back to back — the new record — or ``None``, the whole run
    refused: the check block is not zero, or the run has not a seal's shape.
    """
    out: "list[bytes | None]" = []
    decrypts = failures = blocks = 0
    for nonce, labels, slab, label_len, size in runs:
        groups = len(labels) // max(label_len, 1)
        try:
            opened, spent = _open(nonce, labels, slab, label_len, size)
        except ConfigurationError:
            opened, spent = None, 0
        out.append(opened)
        blocks += spent
        if opened is None:
            failures += groups
        else:
            decrypts += groups
    _meter(blocks, decrypts=decrypts, decrypt_failures=failures)
    return out


__all__ = ["seal", "seal_rows", "open_rows", "tweaks", "plan", "gather",
           "ROW_NONCE_LEN", "CHECK_LEN", "BLOCK", "TRIPLE"]
