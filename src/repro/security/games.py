"""The ROR-RW security game of the paper's Figure 5, run empirically.

``Real`` feeds an access sequence through the actual protocol and collects
the server-visible messages; ``Ideal`` feeds only the keys to a simulator.
:class:`RorRwGame` flips a fair coin per round, shows the chosen output to a
caller-supplied adversary, and reports the measured advantage
``|P[guess=real | real] - P[guess=real | ideal]|``.

A secure implementation should leave any efficient adversary with advantage
statistically indistinguishable from zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.lbl import LblOrtoa
from repro.errors import ConfigurationError
from repro.security.simulators import LblSimulator
from repro.types import Operation, Request, StoreConfig


@dataclass(frozen=True, slots=True)
class Access:
    """One entry of the access sequence A (op, key, value) of §7."""

    op: Operation
    key: str
    value: bytes | None = None

    def to_request(self) -> Request:
        """Convert this access into a protocol Request."""
        if self.op.is_read:
            return Request.read(self.key)
        return Request.write(self.key, self.value or b"")


#: An adversary receives the (serialized) output sequence and guesses
#: ``True`` for "real".
Adversary = Callable[[list[bytes]], bool]


def real_lbl_output(config: StoreConfig, accesses: Sequence[Access]) -> list[bytes]:
    """``Out_Real`` for LBL-ORTOA: the serialized server-bound messages."""
    protocol = LblOrtoa(config)
    protocol.initialize({a.key: b"" for a in accesses})
    output = []
    for access in accesses:
        request = access.to_request()
        if request.op.is_write:
            request = Request.write(request.key, config.pad(request.value or b""))
        lbl_request, _ = protocol.proxy.prepare(request)
        # Keep proxy and server state consistent for subsequent accesses.
        protocol.server.process(lbl_request)
        output.append(lbl_request.to_bytes())
    return output


def ideal_lbl_output(
    config: StoreConfig,
    accesses: Sequence[Access],
    rng: random.Random | None = None,
) -> list[bytes]:
    """``Out_Sim`` for LBL-ORTOA: the simulator sees keys only (Figure 7)."""
    simulator = LblSimulator(config, rng=rng)
    return [simulator.simulate(access.key).to_bytes() for access in accesses]


class RorRwGame:
    """Play the Figure 5 game ``rounds`` times and measure an adversary.

    Args:
        real: Callable producing ``Out_Real`` for an access sequence.
        ideal: Callable producing ``Out_Sim`` for the same sequence.
        rng: Coin-flip randomness (seed for reproducible experiments).
    """

    def __init__(
        self,
        real: Callable[[Sequence[Access]], list[bytes]],
        ideal: Callable[[Sequence[Access]], list[bytes]],
        rng: random.Random | None = None,
    ) -> None:
        self._real = real
        self._ideal = ideal
        self._rng = rng or random.Random()

    def advantage(
        self,
        adversary: Adversary,
        accesses: Sequence[Access],
        rounds: int = 40,
    ) -> float:
        """Empirical advantage of ``adversary`` over ``rounds`` coin flips."""
        if rounds < 2:
            raise ConfigurationError("need at least 2 rounds to measure advantage")
        guesses_real_when_real = 0
        guesses_real_when_ideal = 0
        reals = 0
        ideals = 0
        for _ in range(rounds):
            if self._rng.random() < 0.5:
                reals += 1
                if adversary(self._real(accesses)):
                    guesses_real_when_real += 1
            else:
                ideals += 1
                if adversary(self._ideal(accesses)):
                    guesses_real_when_ideal += 1
        p_real = guesses_real_when_real / reals if reals else 0.0
        p_ideal = guesses_real_when_ideal / ideals if ideals else 0.0
        return abs(p_real - p_ideal)


def uniform_random_accesses(
    keys: Sequence[str],
    count: int,
    value_len: int,
    rng: random.Random,
) -> list[Access]:
    """The workload of §6: uniform keys, uniform read/write coin."""
    accesses = []
    for _ in range(count):
        key = rng.choice(list(keys))
        if rng.random() < 0.5:
            accesses.append(Access(Operation.READ, key))
        else:
            accesses.append(Access(Operation.WRITE, key, rng.randbytes(value_len)))
    return accesses


__all__ = [
    "Access",
    "Adversary",
    "RorRwGame",
    "real_lbl_output",
    "ideal_lbl_output",
    "uniform_random_accesses",
]
