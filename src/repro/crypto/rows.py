"""One-call point-and-permute table rows (paper §10.2).

Under point-and-permute the server is *told* which slot of each group table
to open, so an entry needs none of :mod:`repro.crypto.aead`'s "which of
``2^y`` decryptions succeeded" machinery.  A row is a pad keyed by the old
label::

    row = (payload ‖ 0^8) ⊕ BLAKE2b(key=old_label, digest_size=len)("lbl-row\\0" ‖ nonce)

with ``payload = new_label ‖ next_slot_byte`` and one 16-byte random
``nonce`` per *request*.  Keyed BLAKE2 (RFC 7693) is a PRF by construction
and the digest size is part of its parameter block, so one call pads any row
up to :data:`MAX_ROW_LEN` bytes — wider labels are rejected at configuration.
``docs/security-model.md`` has the argument; in short:

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
server's side; :func:`seal_row` / :func:`open_row` are one-row calls of them.
Rows are metered under the ``aead.*`` ledger ops: one row, one count.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.crypto.aead import _xor
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY

ROW_NONCE_LEN = 16
CHECK_LEN = 8
#: BLAKE2b's largest digest: payload + check bytes of one row.
MAX_ROW_LEN = 64
_DOMAIN = b"lbl-row\x00"
_CHECK = bytes(CHECK_LEN)
_KEY_LENS = frozenset(range(16, 65))  # a label; BLAKE2b takes at most 64 bytes


def _count(op: str, n: int) -> None:
    if _obs.enabled and n:
        REGISTRY.counter(f"crypto.aead.{op}").inc(n)
        _ledger.add_op(f"aead.{op}", n)


def _pads(keys, nonce: bytes, length: int) -> bytes:
    """The concatenated ``length``-byte pads of ``keys`` — the hot loop."""
    blake2b = hashlib.blake2b
    message = _DOMAIN + nonce
    return b"".join(
        [blake2b(message, key=key, digest_size=length).digest() for key in keys]
    )


def seal_rows(keys, payloads, nonce: bytes) -> bytes:
    """Seal equal-length ``payloads[i]`` under ``keys[i]`` (16–64 bytes
    each), all with the request's one ``nonce``; returns the slab.

    Row ``i`` of the result is ``len(payloads[i]) + 8`` bytes.
    """
    n = len(payloads)
    if len(keys) != n:
        raise ConfigurationError(f"{n} payloads for {len(keys)} keys")
    if not n:
        return b""
    plain = _CHECK.join(payloads) + _CHECK
    length = len(plain) // n
    if set(map(len, payloads)) != {length - CHECK_LEN}:
        raise ConfigurationError("row payloads must have equal lengths")
    if length > MAX_ROW_LEN:
        raise ConfigurationError(f"a row holds at most {MAX_ROW_LEN} bytes")
    if not set(map(len, keys)) <= _KEY_LENS:
        raise ConfigurationError("row keys must be 16 to 64 bytes")
    _count("encrypts", n)
    return _xor(plain, _pads(keys, nonce, length))


def seal_row(key: bytes, payload: bytes, nonce: bytes) -> bytes:
    """One row: ``(payload ‖ 0^8) ⊕ pad(key, nonce)``."""
    return seal_rows([key], [payload], nonce)


@lru_cache(maxsize=8)
def _check_mask(rows: int, length: int) -> int:
    """``rows`` rows of ``length`` bytes with ones over their check bytes."""
    return int.from_bytes((bytes(length - CHECK_LEN) + b"\xff" * CHECK_LEN) * rows, "big")


def open_rows(
    runs: "list[tuple[bytes, tuple[bytes, ...] | list[bytes], bytes]]",
) -> "list[tuple[bytes, list[int]]]":
    """Open a window of requests in one call.

    Each run is one request's ``(nonce, keys, rows)``: ``rows`` packs its
    ``len(keys)`` equal-width rows back to back, row ``i`` sealed under
    ``keys[i]``.  Per run the result is ``(opened, failed)``: every row with
    its pad removed (payload then check bytes, packed as ``rows`` was), and
    the indices of the rows whose check bytes are not zero (wrong key, wrong
    nonce — or every index, when ``rows`` is no whole number of rows that
    could hold check bytes).  The check is one mask over the run; rows are
    scanned one by one only to name the failures.
    """
    out = []
    decrypts = failures = 0
    for nonce, keys, rows in runs:
        n = len(keys)
        length = len(rows) // n if n else 0
        if CHECK_LEN < length <= MAX_ROW_LEN and length * n == len(rows):
            plain = int.from_bytes(rows, "big") ^ int.from_bytes(
                _pads(keys, nonce, length), "big"
            )
            opened = plain.to_bytes(len(rows), "big")
            failed = []
            if plain & _check_mask(n, length):
                failed = [
                    index
                    for index, end in enumerate(range(length, len(rows) + 1, length))
                    if opened[end - CHECK_LEN : end] != _CHECK
                ]
        else:
            opened, failed = rows, list(range(n))
        out.append((opened, failed))
        decrypts += n - len(failed)
        failures += len(failed)
    _count("decrypt_failures", failures)
    _count("decrypts", decrypts)
    return out


def open_row(key: bytes, row: bytes, nonce: bytes) -> bytes | None:
    """The payload of ``row`` if ``key`` and ``nonce`` sealed it, else ``None``."""
    ((opened, failed),) = open_rows([(nonce, [key], row)])
    return None if failed else opened[:-CHECK_LEN]


__all__ = [
    "seal_row",
    "open_row",
    "seal_rows",
    "open_rows",
    "ROW_NONCE_LEN",
    "CHECK_LEN",
    "MAX_ROW_LEN",
]
