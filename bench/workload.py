"""Declarative workloads and the seeded request generator.

One ``random.Random(seed)`` drives everything the program sees: initial
values, key choice, operation mix, written values and burst membership.
The program under test receives only the generated ``Request`` objects.
"""

from __future__ import annotations

import bisect
import itertools
import random
import tomllib
from dataclasses import dataclass, fields
from pathlib import Path

from repro.types import Request

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS_TOML = BENCH_DIR / "workloads.toml"

CALL_KINDS = ("access", "access_pipelined", "access_batch")


@dataclass(frozen=True)
class Spec:
    """One workload, exactly as ``workloads.toml`` describes it."""

    name: str
    why: str
    value_len: int
    warmup_calls: int
    traced_calls: int
    keys: int
    group_bits: int
    point_and_permute: bool
    read_share: float
    key_dist: str
    zipf_theta: float
    label_cache: bool
    call: str
    accesses_per_call: int
    depth: int
    slices: int
    setup_repeats: int

    def __post_init__(self) -> None:
        if self.call not in CALL_KINDS:
            raise ValueError(f"{self.name}: unknown call kind {self.call!r}")
        if self.key_dist not in ("uniform", "zipf"):
            raise ValueError(f"{self.name}: unknown key distribution {self.key_dist!r}")
        if self.call == "access" and self.accesses_per_call != 1:
            raise ValueError(f"{self.name}: access() serves one access per call")
        if self.warmup_calls < 1 or self.traced_calls < 1 or self.slices < 1:
            raise ValueError(f"{self.name}: warm-up, traced pass and slices need >= 1")
        if not 1 <= self.accesses_per_call <= self.keys:
            raise ValueError(f"{self.name}: a call needs 1..keys distinct keys")

    @property
    def staged_per_access(self) -> bool:
        """Whether the traced pass stages single accesses (else whole batches)."""
        return self.call != "access_batch"


def load_specs(path: Path = WORKLOADS_TOML) -> dict[str, Spec]:
    """Parse ``workloads.toml`` into specs, in file order."""
    with open(path, "rb") as handle:
        document = tomllib.load(handle)
    defaults = document.get("defaults", {})
    known = {field.name for field in fields(Spec)}
    specs = {}
    for name, table in document["workload"].items():
        merged = {**defaults, **table, "name": name}
        unknown = set(merged) - known
        if unknown:
            raise ValueError(f"{name}: unknown workload keys {sorted(unknown)}")
        specs[name] = Spec(**merged)
    return specs


class ZipfSampler:
    """Ranks ``0..n-1`` with probability proportional to ``1 / (rank + 1)^theta``."""

    def __init__(self, n: int, theta: float) -> None:
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        return bisect.bisect_right(self._cumulative, rng.random() * self._total)

    def mass(self, rank: int) -> float:
        """Probability of ``rank``."""
        lower = self._cumulative[rank - 1] if rank else 0.0
        return (self._cumulative[rank] - lower) / self._total


class RequestStream:
    """The seeded input of one run: initial records, then an endless call stream."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(seed)
        self.keys = [f"key-{index:04d}" for index in range(spec.keys)]
        self.initial = {key: self._rng.randbytes(spec.value_len) for key in self.keys}
        self._zipf = (
            ZipfSampler(spec.keys, spec.zipf_theta) if spec.key_dist == "zipf" else None
        )

    def _draw_key(self) -> str:
        if self._zipf is not None:
            return self.keys[self._zipf.sample(self._rng)]
        return self.keys[self._rng.randrange(len(self.keys))]

    def next_call(self) -> list[Request]:
        """The requests of the next call: ``accesses_per_call`` distinct keys."""
        chosen: dict[str, None] = {}
        while len(chosen) < self.spec.accesses_per_call:
            chosen[self._draw_key()] = None  # a repeated draw is simply redrawn
        requests = []
        for key in chosen:
            if self._rng.random() < self.spec.read_share:
                requests.append(Request.read(key))
            else:
                requests.append(
                    Request.write(key, self._rng.randbytes(self.spec.value_len))
                )
        return requests
