"""The IND-CPA game for the library's symmetric encryption.

The TEE argument (§11.1: "Assuming that the encryption scheme is IND-CPA
..."), the 2RTT baseline and the PathORAM / linear-scan ORAMs lean on the
AEAD's chosen-plaintext indistinguishability; no LBL path calls it.  This
module runs the textbook left-or-right game against :mod:`repro.crypto.aead`:

1. the challenger picks a random bit ``b``;
2. the adversary submits message pairs ``(m0, m1)`` and receives
   ``Enc(m_b)`` for each;
3. the adversary guesses ``b``; advantage = |P[win] − 1/2| · 2.

As with the ROR-RW experiment, this bounds the adversaries we actually run
— it is a regression harness against implementation bugs (nonce reuse, a
keystream that echoes plaintext structure), not a proof.
"""

from __future__ import annotations

import random
import secrets
from typing import Callable, Sequence

from repro.crypto import aead
from repro.errors import ConfigurationError

#: An IND-CPA adversary: sees the challenge ciphertexts for its submitted
#: pairs and outputs a guess for b (0 = left messages were encrypted).
CpaAdversary = Callable[[Sequence[bytes]], int]


class IndCpaGame:
    """The left-or-right chosen-plaintext game over the AEAD.

    Args:
        rng: Challenger coin randomness (seed for reproducible runs).
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self._rng = rng or random.Random()

    def play_round(
        self,
        pairs: Sequence[tuple[bytes, bytes]],
        adversary: CpaAdversary,
    ) -> bool:
        """One game round; returns whether the adversary guessed ``b``."""
        for m0, m1 in pairs:
            if len(m0) != len(m1):
                raise ConfigurationError(
                    "IND-CPA message pairs must have equal length"
                )
        b = self._rng.randrange(2)
        key = secrets.token_bytes(32)
        challenge = [aead.encrypt(key, pair[b]) for pair in pairs]
        return adversary(challenge) == b

    def advantage(
        self,
        pairs: Sequence[tuple[bytes, bytes]],
        adversary: CpaAdversary,
        rounds: int = 100,
    ) -> float:
        """Empirical advantage over ``rounds`` independent games."""
        if rounds < 2:
            raise ConfigurationError("need at least 2 rounds")
        wins = sum(self.play_round(pairs, adversary) for _ in range(rounds))
        return abs(wins / rounds - 0.5) * 2.0


def byte_bias_adversary(challenge: Sequence[bytes]) -> int:
    """Guess from ciphertext byte bias (defeats e.g. plaintext XOR'd with a
    short repeating pad; blind against a proper keystream)."""
    data = b"".join(challenge)
    if not data:
        return 0
    return 1 if (sum(data) / len(data)) > 127.5 else 0


def length_adversary(challenge: Sequence[bytes]) -> int:
    """Guess from total ciphertext length (defeats schemes whose ciphertext
    length depends on plaintext *content*; ours depends only on length)."""
    return sum(len(ct) for ct in challenge) % 2


def prefix_equality_adversary(challenge: Sequence[bytes]) -> int:
    """Guess 0 when two challenge ciphertexts share a prefix (defeats
    deterministic or nonce-reusing encryption of repeated plaintexts)."""
    prefixes = [ct[:16] for ct in challenge]
    return 0 if len(set(prefixes)) < len(prefixes) else 1


__all__ = [
    "IndCpaGame",
    "CpaAdversary",
    "byte_bias_adversary",
    "length_adversary",
    "prefix_equality_adversary",
]
