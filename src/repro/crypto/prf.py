"""Pseudo-random functions for key encoding and label generation.

The paper's data model (§2.2) stores ``<PRF(k), Enc(v)>``; LBL-ORTOA (§5)
additionally derives per-bit secret labels ``PRF(k, index, bit, counter)``.
Two keyed primitives serve them, each chosen for the shape of its work:

* :class:`Prf` — a thin, domain-separated wrapper over HMAC-SHA256, the
  textbook PRF instantiation, for the short outputs: datastore key encoding
  and subkey derivation.  The keyed HMAC state is computed once per
  :class:`Prf` and ``.copy()``-ed per evaluation.
* :func:`keyed_xof` — SHAKE-256 with the key absorbed as one full rate block
  (the prefix-keyed sponge of KMAC, NIST SP 800-185), for each label
  epoch's 16-byte whitening (:meth:`repro.crypto.labels.LabelCodec.epochs`).

Determinism — same inputs, same output, forever — is exactly the property
the protocols lean on.  Inputs are encoded injectively by
:func:`encode_components` for both.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger

_DIGEST_BYTES = hashlib.sha256().digest_size
_BLOCK_BYTES = 64


def hmac_compressions(message_len: int, out_bytes: int = _DIGEST_BYTES) -> int:
    """SHA-256 compression-function applications of one :class:`Prf` call.

    ``message_len`` is the full hashed message including the 4-byte counter
    head.  With the keyed inner/outer states precomputed (their key blocks
    are paid once per :class:`Prf`), a single-digest HMAC costs
    ``(message_len + 8) // 64`` extra inner compressions beyond the one that
    absorbs the final padding, plus one inner-final and one outer
    compression; outputs wider than a digest repeat that per 32-byte block.
    This closed form is what the ledger hooks meter and what
    :mod:`repro.analysis.costmodel` predicts — the model-vs-ledger tests
    keep the two in lockstep.
    """
    per_digest = (message_len + 8) // _BLOCK_BYTES + 2
    blocks = (out_bytes + _DIGEST_BYTES - 1) // _DIGEST_BYTES
    return blocks * per_digest

# HMAC ipad/opad as byte-translation tables: ``key.translate(_IPAD_TRANS)``
# XORs every byte with 0x36 at C speed, which makes the explicit
# inner/outer-hash form of HMAC (RFC 2104) cheaper than the ``hmac`` module's
# object machinery while producing identical bytes.
_IPAD_TRANS = bytes(b ^ 0x36 for b in range(256))
_OPAD_TRANS = bytes(b ^ 0x5C for b in range(256))


def hmac_sha256_pair(key: bytes) -> "tuple[hashlib._Hash, hashlib._Hash]":
    """The keyed inner/outer SHA-256 states of ``HMAC-SHA256(key, ·)``.

    ``HMAC(key, msg)`` equals ``outer(inner(msg))`` where ``inner`` starts
    from ``sha256(key ⊕ ipad)`` and ``outer`` from ``sha256(key ⊕ opad)`` —
    the RFC 2104 definition.  Callers ``copy()`` the returned states per
    message, paying the key schedule exactly once.
    """
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    padded = key.ljust(_BLOCK_BYTES, b"\x00")
    return (
        hashlib.sha256(padded.translate(_IPAD_TRANS)),
        hashlib.sha256(padded.translate(_OPAD_TRANS)),
    )

#: SHAKE-256's rate: bytes absorbed or squeezed per Keccak-f permutation.
XOF_RATE_BYTES = 136


def keyed_xof(key: bytes) -> "hashlib._Hash":
    """SHAKE-256 keyed by prefix: ``key`` zero-padded to one full rate block.

    Padding the key to the rate is what KMAC's ``bytepad`` does (NIST SP
    800-185): the key is absorbed by a permutation of its own, so no message
    byte shares a block with it and the keyed state can be computed once.
    Callers ``copy()`` the returned object per message, ``update`` it with
    the message and squeeze as many bytes as they need.
    """
    if not 16 <= len(key) <= XOF_RATE_BYTES:
        raise ConfigurationError(
            f"XOF key must be between 16 and {XOF_RATE_BYTES} bytes"
        )
    return hashlib.shake_256(key.ljust(XOF_RATE_BYTES, b"\x00"))


def xof_blocks(message_len: int, out_bytes: int) -> int:
    """Rate blocks one :func:`keyed_xof` call absorbs and squeezes.

    The key block is excluded (paid once per key); the message and its
    padding fill ``message_len // 136 + 1`` blocks and the output
    ``ceil(out_bytes / 136)``.  The closed form the ledger meters as
    ``shake256.blocks`` and :mod:`repro.analysis.costmodel` predicts.
    """
    return message_len // XOF_RATE_BYTES + 1 + -(-out_bytes // XOF_RATE_BYTES)


#: Memo of encoded small non-negative integers.  Group values, group indices,
#: and access counters dominate PRF inputs and repeat endlessly; encoding is
#: pure, so a process-wide cache is safe.  Bounded by only admitting small
#: ints (the set of distinct small ints is finite).
_INT_ENCODING_CACHE: dict[int, bytes] = {}
_INT_CACHE_LIMIT = 1 << 16


def _encode_component(component: bytes | str | int) -> bytes:
    """Encode one PRF input component with an unambiguous type prefix.

    A length-prefixed, type-tagged encoding guarantees that distinct input
    tuples can never collide after concatenation (e.g. ``("ab", "c")`` vs
    ``("a", "bc")``), which would otherwise silently break label uniqueness.
    """
    if isinstance(component, bytes):
        payload = component
        tag = b"B"
    elif isinstance(component, str):
        payload = component.encode("utf-8")
        tag = b"S"
    elif isinstance(component, int):
        cached = _INT_ENCODING_CACHE.get(component)
        if cached is not None:
            return cached
        if component < 0:
            raise ConfigurationError("PRF integer inputs must be non-negative")
        payload = component.to_bytes((component.bit_length() + 7) // 8 or 1, "big")
        encoded = b"I" + len(payload).to_bytes(4, "big") + payload
        if component < _INT_CACHE_LIMIT:
            _INT_ENCODING_CACHE[component] = encoded
        return encoded
    else:
        raise ConfigurationError(f"unsupported PRF input type: {type(component)!r}")
    return tag + len(payload).to_bytes(4, "big") + payload


def encode_components(*components: bytes | str | int) -> bytes:
    """The injective byte encoding :class:`Prf` applies to an input tuple.

    Exposed so :class:`~repro.crypto.labels.LabelCodec` can feed the same
    encoding to its XOF, and so batch callers can pre-encode components that
    repeat and hand the concatenations to :meth:`PrfContext.evaluate_tails`.
    """
    return b"".join([_encode_component(c) for c in components])


_ZERO_COUNTER = (0).to_bytes(4, "big")


class Prf:
    """A keyed, deterministic PRF with arbitrary-length output.

    Outputs longer than one SHA-256 block are produced in counter mode over
    the inner HMAC, so a single ``Prf`` can serve both 128-bit labels and the
    wider outputs needed by the stream cipher in :mod:`repro.crypto.aead`.

    Args:
        key: Secret PRF key; at least 16 bytes.
        out_bytes: Default output length of :meth:`evaluate`.
    """

    __slots__ = ("out_bytes", "_inner0", "_outer0")

    def __init__(self, key: bytes, out_bytes: int = 16) -> None:
        if len(key) < 16:
            raise ConfigurationError("PRF key must be at least 16 bytes")
        if out_bytes <= 0:
            raise ConfigurationError("PRF output length must be positive")
        self.out_bytes = out_bytes
        # The HMAC key schedule (two compression-function applications plus
        # object setup) is identical for every evaluation; pay it once here
        # and ``.copy()`` the keyed states per call.
        self._inner0, self._outer0 = hmac_sha256_pair(key)

    def _raw(self, message: bytes, n: int) -> bytes:
        """``n`` output bytes for an already-encoded ``message``."""
        if n <= _DIGEST_BYTES:
            inner = self._inner0.copy()
            inner.update(_ZERO_COUNTER + message)
            outer = self._outer0.copy()
            outer.update(inner.digest())
            return outer.digest()[:n]
        blocks = []
        for counter in range((n + _DIGEST_BYTES - 1) // _DIGEST_BYTES):
            inner = self._inner0.copy()
            inner.update(counter.to_bytes(4, "big") + message)
            outer = self._outer0.copy()
            outer.update(inner.digest())
            blocks.append(outer.digest())
        return b"".join(blocks)[:n]

    def evaluate(self, *components: bytes | str | int, out_bytes: int | None = None) -> bytes:
        """Evaluate the PRF on a tuple of components.

        Args:
            *components: Any mix of ``bytes``, ``str``, and non-negative
                ``int`` values; the tuple is injectively encoded before MACing.
            out_bytes: Override the instance's default output length.

        Returns:
            ``out_bytes`` bytes of deterministic pseudo-random output.
        """
        n = self.out_bytes if out_bytes is None else out_bytes
        if n <= 0:
            raise ConfigurationError("PRF output length must be positive")
        message = b"".join(_encode_component(c) for c in components)
        if _obs.enabled:
            _ledger.add_prf(1, hmac_compressions(4 + len(message), n))
        return self._raw(message, n)

    def context(
        self, *prefix_components: bytes | str | int, out_bytes: int | None = None
    ) -> "PrfContext":
        """A :class:`PrfContext` with ``prefix_components`` pre-encoded."""
        return PrfContext(self, prefix_components, out_bytes=out_bytes)

    def encode_key(self, key: str) -> bytes:
        """Encode a datastore key as it is stored at the server (``PRF(k)``)."""
        return self.evaluate("key-encoding", key)

    def derive_subkey(self, purpose: str) -> bytes:
        """Derive an independent 32-byte key for a named purpose."""
        return self.evaluate("subkey", purpose, out_bytes=32)


class PrfContext:
    """A PRF with a frozen, pre-encoded component prefix.

    Kept for ``bench/micro.py``, which times :meth:`evaluate_tails` as the
    per-call cost of the HMAC :class:`Prf`; nothing in the program derives
    labels this way any more.  Outputs are byte-identical to
    ``prf.evaluate(*prefix, *tail)``.

    Args:
        prf: The keyed PRF to evaluate under.
        prefix_components: Components shared by every later evaluation.
        out_bytes: Output length for all evaluations (defaults to the PRF's).
    """

    __slots__ = ("_prf", "_prefix", "out_bytes")

    def __init__(
        self,
        prf: Prf,
        prefix_components: Sequence[bytes | str | int],
        *,
        out_bytes: int | None = None,
    ) -> None:
        n = prf.out_bytes if out_bytes is None else out_bytes
        if n <= 0:
            raise ConfigurationError("PRF output length must be positive")
        self._prf = prf
        self._prefix = b"".join(_encode_component(c) for c in prefix_components)
        self.out_bytes = n

    def evaluate_tails(self, tails: Iterable[bytes]) -> list[bytes]:
        """One PRF output per already-encoded (:func:`encode_components`) tail."""
        n = self.out_bytes
        raw = self._prf._raw
        prefix = self._prefix
        head_len = 4 + len(prefix)
        out: list[bytes] = []
        for tail in tails:
            if _obs.enabled:
                _ledger.add_prf(1, hmac_compressions(head_len + len(tail), n))
            out.append(raw(prefix + tail, n))
        return out


__all__ = [
    "Prf",
    "PrfContext",
    "encode_components",
    "hmac_compressions",
    "hmac_sha256_pair",
    "keyed_xof",
    "xof_blocks",
    "XOF_RATE_BYTES",
]
