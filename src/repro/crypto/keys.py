"""Key management for ORTOA deployments.

A deployment owns a single master secret from which every other key is
derived with domain separation: the key-encoding PRF, the keyed label XOF
and the label-block AES key (:class:`~repro.crypto.labels.LabelCodec`), and
the symmetric data key used by the TEE and baseline variants.  Deriving
(rather than storing) keys keeps proxy state small — the paper's proxy
stores only access counters (§5.3.1) plus this one secret.
"""

from __future__ import annotations

import secrets

from repro.crypto.prf import Prf, keyed_xof
from repro.errors import ConfigurationError

MASTER_KEY_LEN = 32


class KeyChain:
    """Derives all protocol keys from one master secret.

    Args:
        master_key: 32-byte master secret; omit to generate a fresh one.
        label_bits: Width ``r`` of one label in bits.
    """

    def __init__(self, master_key: bytes | None = None, *, label_bits: int = 128) -> None:
        if master_key is None:
            master_key = secrets.token_bytes(MASTER_KEY_LEN)
        if len(master_key) < 16:
            raise ConfigurationError("master key must be at least 16 bytes")
        if label_bits % 8 != 0 or label_bits <= 0:
            raise ConfigurationError("label_bits must be a positive multiple of 8")
        self._master = Prf(master_key, out_bytes=32)
        self.label_bits = label_bits
        self.key_encoding_prf = Prf(self._master.derive_subkey("key-encoding"), out_bytes=16)
        #: The label subkey, absorbed once; copied per epoch to squeeze ``W``.
        self.label_xof = keyed_xof(self._master.derive_subkey("labels"))
        #: ``K_L``: the AES-128 key of every label and offset block.
        self.label_block_key = self._master.derive_subkey("label-blocks")[:16]
        self.data_key = self._master.derive_subkey("data-encryption")

    def encode_key(self, key: str) -> bytes:
        """Server-side identifier for datastore key ``k`` (``PRF(k)``, §2.2)."""
        return self.key_encoding_prf.encode_key(key)


__all__ = ["KeyChain", "MASTER_KEY_LEN"]
