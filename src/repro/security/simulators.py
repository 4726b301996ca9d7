"""Ideal-world simulators for the ROR-RW game (paper Figure 7 and §11.1).

Each simulator is stateful and, per the security definition, receives only
the *key* of each access — never the operation type or any value.  Its job
is to emit messages with the same distribution as the real protocol's
server-visible output.
"""

from __future__ import annotations

import random
import secrets

from repro.core.lbl.proxy import DECRYPT_INDEX_BYTES
from repro.core.messages import (
    FheAccessRequest,
    LblAccessRequest,
    TeeAccessRequest,
)
from repro.crypto import aead, rows
from repro.crypto.fhe import FheParams, FheScheme
from repro.types import StoreConfig


class LblSimulator:
    """Figure 7's Simulator, generalized to ``y``-bit groups.

    Keeps one random "old label" per (key, group).  Per access it samples a
    fresh random new label and fills each group table with one entry sealed
    under the stored old label and ``2^y - 1`` entries the server cannot
    open (their content is irrelevant), shuffles, and rotates its stored
    label.  The entries are :mod:`repro.crypto.rows` rows — one under the
    stored label, the rest uniformly random, behind a fresh request nonce.
    """

    def __init__(self, config: StoreConfig, rng: random.Random | None = None) -> None:
        self.config = config
        self.label_len = config.label_bits // 8
        self._rng = rng or random.Random()
        self._state: dict[str, list[bytes]] = {}
        self._encoded: dict[str, bytes] = {}

    def _ensure_key(self, key: str) -> None:
        if key not in self._state:
            num_groups = self.config.num_groups
            self._state[key] = [secrets.token_bytes(self.label_len) for _ in range(num_groups)]
            self._encoded[key] = secrets.token_bytes(16)

    def simulate(self, key: str) -> LblAccessRequest:
        """Produce one simulated server-bound message for an access to ``key``."""
        self._ensure_key(key)
        table_size = 1 << self.config.group_bits
        nonce = secrets.token_bytes(rows.ROW_NONCE_LEN)
        tables = []
        for index in range(self.config.num_groups):
            old_label = self._state[key][index]
            new_label = secrets.token_bytes(self.label_len)
            slot = secrets.token_bytes(DECRYPT_INDEX_BYTES)
            entries = [rows.seal_rows(old_label, new_label, slot, nonce)]
            entries += [secrets.token_bytes(len(entries[0])) for _ in range(table_size - 1)]
            self._rng.shuffle(entries)
            tables.append(entries)
            self._state[key][index] = new_label
        return LblAccessRequest.from_tables(self._encoded[key], tables, nonce)


class TeeSimulator:
    """Simulator for TEE-ORTOA: dummy selector and dummy value encryptions.

    Security reduces to IND-CPA of the symmetric scheme (§11.1): the
    simulator encrypts fixed dummies under its own key; a distinguisher
    between this and the real requests breaks the encryption.
    """

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self._key = secrets.token_bytes(32)
        self._encoded: dict[str, bytes] = {}

    def simulate(self, key: str) -> TeeAccessRequest:
        """One simulated server-bound message for an access to ``key``."""
        encoded = self._encoded.setdefault(key, secrets.token_bytes(16))
        return TeeAccessRequest(
            encoded_key=encoded,
            selector_ct=aead.encrypt(self._key, b"\x00"),
            new_value_ct=aead.encrypt(self._key, bytes(self.config.value_len)),
        )


class FheSimulator:
    """Simulator for FHE-ORTOA: three fresh encryptions of dummy plaintexts."""

    def __init__(self, config: StoreConfig, fhe_params: FheParams | None = None) -> None:
        self.config = config
        self._scheme = FheScheme(fhe_params or FheParams())
        self._encoded: dict[str, bytes] = {}

    def simulate(self, key: str) -> FheAccessRequest:
        """One simulated server-bound message for an access to ``key``."""
        encoded = self._encoded.setdefault(key, secrets.token_bytes(16))
        return FheAccessRequest(
            encoded_key=encoded,
            c_r_ct=self._scheme.encrypt_scalar(0).to_bytes(),
            c_w_ct=self._scheme.encrypt_scalar(0).to_bytes(),
            new_value_ct=self._scheme.encrypt_bytes(bytes(self.config.value_len)).to_bytes(),
        )


__all__ = ["LblSimulator", "TeeSimulator", "FheSimulator"]
