"""Synthetic workloads matching the paper's experimental setup (§6).

Default parameters mirror the paper: each client thread picks keys uniformly
at random and flips a fair coin between GET and PUT; most experiments use
160-byte values.  The write fraction and the key distribution (uniform or
Zipfian) are sweepable because Figures 2c and 2d sweep them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.types import Request


def synthetic_records(num_objects: int, value_len: int, seed: int = 0) -> dict[str, bytes]:
    """Deterministic plaintext records ``obj-0 .. obj-(n-1)``."""
    if num_objects < 1:
        raise ConfigurationError("num_objects must be >= 1")
    rng = random.Random(seed)
    return {
        f"obj-{i}": rng.randbytes(value_len) for i in range(num_objects)
    }


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of a request stream.

    Attributes:
        keys: Population of keys to draw from.
        value_len: Bytes per written value.
        write_fraction: P(PUT) per request — Figure 2c sweeps 0.0 → 1.0.
        zipf_s: If > 0, keys are drawn Zipf(s) by rank instead of uniformly.
        seed: RNG seed; streams are fully deterministic given the spec.
    """

    keys: tuple[str, ...]
    value_len: int
    write_fraction: float = 0.5
    zipf_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.keys:
            raise ConfigurationError("workload needs at least one key")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        if self.zipf_s < 0:
            raise ConfigurationError("zipf_s must be non-negative")


class RequestStream:
    """An infinite deterministic request generator for one workload spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._weights = self._key_weights()

    def _key_weights(self) -> list[float] | None:
        if self.spec.zipf_s == 0.0:
            return None
        ranks = np.arange(1, len(self.spec.keys) + 1, dtype=float)
        weights = ranks ** (-self.spec.zipf_s)
        return list(weights / weights.sum())

    def _pick_key(self) -> str:
        if self._weights is None:
            return self._rng.choice(self.spec.keys)
        return self._rng.choices(self.spec.keys, weights=self._weights, k=1)[0]

    def next_request(self) -> Request:
        """The next request in the deterministic stream."""
        key = self._pick_key()
        if self._rng.random() < self.spec.write_fraction:
            return Request.write(key, self._rng.randbytes(self.spec.value_len))
        return Request.read(key)

    def take(self, count: int) -> list[Request]:
        """The next ``count`` requests as a list."""
        return [self.next_request() for _ in range(count)]

    def __iter__(self) -> Iterator[Request]:
        while True:
            yield self.next_request()


__all__ = ["WorkloadSpec", "RequestStream", "synthetic_records"]
