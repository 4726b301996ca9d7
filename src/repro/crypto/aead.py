"""Authenticated encryption with detectable decryption failure.

The value encryption of the baseline, TEE-ORTOA and the ORAMs, and the
primitive of LBL-ORTOA's §5.2 base tables ("LBL-ORTOA uses authenticated
encryption to ensure the server identifies successful decryptions"), which
``tests/lbl_reference.py`` builds and opens:

* encrypt-then-MAC under a single key with domain-separated HMAC-SHA256
  invocations — keystream blocks are ``HMAC(key, "aead-enc" || nonce || ctr)``
  and the tag is ``HMAC(key, "aead-mac" || nonce || body)``.  The two domains
  are distinct fixed-length prefixes, so the PRF inputs can never collide and
  the keystream/tag outputs are computationally independent (standard PRF
  domain separation); one HMAC key schedule serves both directions, which is
  what makes the per-table-entry cost two HMAC invocations instead of four.
* a keystream built from HMAC-SHA256 in counter mode (a PRF in CTR mode is a
  standard stream cipher construction),
* :func:`decrypt` raising :class:`~repro.errors.DecryptionError` on a wrong
  key or tampered ciphertext.

The ciphertext layout is ``nonce(NONCE_LEN) || body(len(pt)) || tag(TAG_LEN)``.
For ORTOA's label encryption the key (a fresh PRF label) is used at most once
per direction, but a random nonce is included anyway so the primitive is safe
under key reuse by other callers (e.g. the TEE variant's value encryption).

The batch entry points :func:`encrypt_many` and :func:`open_many` build and
open many entries in one call, byte-compatible with the scalar functions
(golden-vector pinned).  The §10.2 tables LBL-ORTOA serves are the
one-permutation rows of :mod:`repro.crypto.rows`, not AEAD ciphertexts, so
nothing in the program calls these two; ``bench/micro.py`` times them.

HMAC is evaluated in its explicit RFC 2104 form — ``sha256(k_opad ||
sha256(k_ipad || msg))`` with the padded keys produced by a C-speed
``bytes.translate`` — because driving raw ``hashlib`` one-shots is
measurably faster than the ``hmac`` module's object machinery while
producing identical bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.crypto.rows import xor as _xor
from repro.errors import ConfigurationError, DecryptionError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger

NONCE_LEN = 12
TAG_LEN = 16
_DIGEST = hashlib.sha256
_DIGEST_BYTES = 32
_BLOCK = 64

# HMAC ipad/opad as byte-translation tables (see module docstring).
_IPAD_TRANS = bytes(b ^ 0x36 for b in range(256))
_OPAD_TRANS = bytes(b ^ 0x5C for b in range(256))

# Fixed-length, distinct domain prefixes keeping keystream and tag inputs
# disjoint under the shared key.
_ENC_DOMAIN = b"aead-enc"
_MAC_DOMAIN = b"aead-mac"
_ZERO_CTR = b"\x00\x00\x00\x00"


def ciphertext_len(plaintext_len: int) -> int:
    """Length in bytes of a ciphertext for a plaintext of ``plaintext_len``."""
    return NONCE_LEN + plaintext_len + TAG_LEN


def key_schedule(key: bytes) -> tuple[bytes, bytes]:
    """The ``(ipad_block, opad_block)`` HMAC-SHA256 key schedule of ``key``.

    ``HMAC(key, msg) == sha256(opad_block || sha256(ipad_block || msg))`` —
    the RFC 2104 definition.

    Raises:
        ConfigurationError: if the key is shorter than 16 bytes.
    """
    if len(key) < 16:
        raise ConfigurationError("AEAD key must be at least 16 bytes")
    if len(key) > _BLOCK:
        key = _DIGEST(key).digest()
    padded = key.ljust(_BLOCK, b"\x00")
    return padded.translate(_IPAD_TRANS), padded.translate(_OPAD_TRANS)


def _keystream(ipad: bytes, opad: bytes, nonce: bytes, length: int) -> bytes:
    sha = _DIGEST
    head = ipad + _ENC_DOMAIN + nonce
    if length <= _DIGEST_BYTES:
        # One-block fast path — every LBL label payload lands here.
        return sha(opad + sha(head + _ZERO_CTR).digest()).digest()[:length]
    blocks = []
    for counter in range((length + _DIGEST_BYTES - 1) // _DIGEST_BYTES):
        blocks.append(
            sha(opad + sha(head + counter.to_bytes(4, "big")).digest()).digest()
        )
    return b"".join(blocks)[:length]


def encrypt(key: bytes, plaintext: bytes, *, nonce: bytes | None = None) -> bytes:
    """Encrypt ``plaintext`` under ``key`` with integrity protection.

    Args:
        key: Symmetric key, at least 16 bytes.
        plaintext: Message to protect (may be empty).
        nonce: Optional explicit nonce (exactly ``NONCE_LEN`` bytes); omit to
            draw a fresh random one.  Deterministic tests use this hook.

    Returns:
        ``nonce || ciphertext-body || tag``.
    """
    ipad, opad = key_schedule(key)
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_LEN)
    elif len(nonce) != NONCE_LEN:
        raise ConfigurationError(f"nonce must be exactly {NONCE_LEN} bytes")
    body = _xor(plaintext, _keystream(ipad, opad, nonce, len(plaintext)))
    sha = _DIGEST
    tag = sha(opad + sha(ipad + _MAC_DOMAIN + nonce + body).digest()).digest()[:TAG_LEN]
    if _obs.enabled:
        _ledger.add_op("aead.encrypts")
    return nonce + body + tag


def encrypt_many(
    keys: "list[bytes] | tuple[bytes, ...]",
    payloads: "list[bytes] | tuple[bytes, ...]",
    *,
    nonces: "list[bytes] | None" = None,
) -> list[bytes]:
    """Encrypt ``payloads[i]`` under ``keys[i]`` for every ``i``, batched.

    Nonce generation (one ``secrets`` draw for the whole batch) and
    per-entry setup are hoisted out of the loop; each output is
    byte-compatible with :func:`encrypt` and opens with :func:`decrypt`.

    Args:
        keys: One symmetric key (≥ 16 bytes) per payload.
        payloads: Plaintexts to protect.
        nonces: Optional explicit nonces (deterministic tests); defaults to
            fresh random nonces.

    Returns:
        One ``nonce || body || tag`` ciphertext per input, in order.
    """
    n = len(keys)
    if len(payloads) != n:
        raise ConfigurationError(f"{n} keys for {len(payloads)} payloads")
    if nonces is None:
        # One entropy draw for the whole batch; the slices are NONCE_LEN by
        # construction, so the per-entry length check is skipped below.
        pool = secrets.token_bytes(NONCE_LEN * n)
        nonces = [pool[i * NONCE_LEN : (i + 1) * NONCE_LEN] for i in range(n)]
    else:
        if len(nonces) != n:
            raise ConfigurationError(f"{n} keys for {len(nonces)} nonces")
        for nonce in nonces:
            if len(nonce) != NONCE_LEN:
                raise ConfigurationError(f"nonce must be exactly {NONCE_LEN} bytes")
    sha = _DIGEST
    out: list[bytes] = []
    # The loop below is key_schedule + _keystream + tag inlined into
    # straight-line hashlib one-shots — byte-identical to the scalar path
    # (golden-pinned), but without per-entry function overhead.
    for key, plaintext, nonce in zip(keys, payloads, nonces):
        if len(key) < 16:
            raise ConfigurationError("AEAD key must be at least 16 bytes")
        padded = (key if len(key) <= _BLOCK else sha(key).digest()).ljust(_BLOCK, b"\x00")
        ipad, opad = padded.translate(_IPAD_TRANS), padded.translate(_OPAD_TRANS)
        plen = len(plaintext)
        if 0 < plen <= _DIGEST_BYTES:
            keystream = sha(opad + sha(ipad + _ENC_DOMAIN + nonce + _ZERO_CTR).digest()).digest()
            body = _xor(plaintext, keystream)
        else:
            body = _xor(plaintext, _keystream(ipad, opad, nonce, plen))
        nonce_body = nonce + body
        mac = sha(opad + sha(ipad + _MAC_DOMAIN + nonce_body).digest()).digest()
        out.append(nonce_body + mac[:TAG_LEN])
    if _obs.enabled:
        _ledger.add_op("aead.encrypts", n)
    return out


def decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt and authenticate ``ciphertext`` under ``key``.

    Raises:
        DecryptionError: if the ciphertext is malformed, was produced under a
            different key, or was modified in transit.  This is the signal
            LBL-ORTOA's server uses to discard the wrong table entry.
    """
    ipad, opad = key_schedule(key)
    if len(ciphertext) < NONCE_LEN + TAG_LEN:
        if _obs.enabled:
            _ledger.add_op("aead.decrypt_failures")
        raise DecryptionError("ciphertext too short")
    nonce = ciphertext[:NONCE_LEN]
    body = ciphertext[NONCE_LEN:-TAG_LEN]
    tag = ciphertext[-TAG_LEN:]
    sha = _DIGEST
    expected = sha(opad + sha(ipad + _MAC_DOMAIN + nonce + body).digest()).digest()[
        :TAG_LEN
    ]
    if not hmac.compare_digest(tag, expected):
        if _obs.enabled:
            _ledger.add_op("aead.decrypt_failures")
        raise DecryptionError("authentication tag mismatch")
    if _obs.enabled:
        _ledger.add_op("aead.decrypts")
    return _xor(body, _keystream(ipad, opad, nonce, len(body)))


def try_decrypt(key: bytes, ciphertext: bytes) -> bytes | None:
    """Like :func:`decrypt` but returns ``None`` instead of raising.

    Convenience for a try-every-entry scan (the §5.2 base protocol's server
    step, kept as the test reference).
    """
    try:
        return decrypt(key, ciphertext)
    except DecryptionError:
        return None


def open_many(
    keys: "list[bytes] | tuple[bytes, ...]",
    ciphertexts: "list[bytes] | tuple[bytes, ...]",
) -> "list[bytes | None]":
    """Open ``ciphertexts[i]`` under ``keys[i]`` for every ``i``: ``None``
    exactly where :func:`try_decrypt` returns it, same failure counts.

    This was the point-and-permute server's fused open until
    :mod:`repro.crypto.rows` replaced the §10.2 entry; nothing in the program
    calls it now.  It stays — as the plain loop it was always held equal to —
    because ``bench/micro.py`` still times it (ROADMAP item 3(e)).
    """
    if len(ciphertexts) != len(keys):
        raise ConfigurationError(f"{len(keys)} keys for {len(ciphertexts)} ciphertexts")
    return [try_decrypt(key, ct) for key, ct in zip(keys, ciphertexts)]


__all__ = [
    "encrypt",
    "encrypt_many",
    "decrypt",
    "try_decrypt",
    "open_many",
    "key_schedule",
    "ciphertext_len",
    "NONCE_LEN",
    "TAG_LEN",
]
