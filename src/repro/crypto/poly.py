"""Negacyclic polynomial ring arithmetic for the BFV-style FHE scheme.

Elements live in ``R_q = Z_q[x] / (x^n + 1)`` with ``n`` a power of two.
Coefficients are plain Python integers so the modulus ``q`` can be hundreds of
bits without overflow; multiplication is the schoolbook negacyclic convolution
(O(n^2)), which is plenty for the paper-scale experiments (§3 needs only a
handful of accesses before noise exhausts the scheme anyway).

Two views of an element are used by the FHE layer:

* reduced mod ``q`` into ``[0, q)`` — the canonical stored form,
* *centered lift* into ``(-q/2, q/2]`` — required by BFV's scale-and-round
  multiplication and by noise measurement.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True, slots=True)
class RingParams:
    """Parameters of ``R_q``: degree ``n`` (power of two) and modulus ``q``."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.n):
            raise ConfigurationError("ring degree n must be a power of two")
        if self.q < 2:
            raise ConfigurationError("modulus q must be >= 2")


class Poly:
    """An element of ``R_q``, immutable once constructed.

    Args:
        params: Ring parameters.
        coeffs: At most ``n`` integer coefficients, low degree first; reduced
            mod ``q`` on construction.
    """

    __slots__ = ("params", "coeffs")

    def __init__(self, params: RingParams, coeffs: list[int] | tuple[int, ...]) -> None:
        if len(coeffs) > params.n:
            raise ConfigurationError(f"too many coefficients: {len(coeffs)} > n={params.n}")
        full = list(coeffs) + [0] * (params.n - len(coeffs))
        q = params.q
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", tuple(c % q for c in full))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def zero(params: RingParams) -> "Poly":
        """The additive identity of the ring."""
        return Poly(params, [])

    @staticmethod
    def constant(params: RingParams, value: int) -> "Poly":
        """The constant polynomial ``value``."""
        return Poly(params, [value])

    @staticmethod
    def random_uniform(params: RingParams) -> "Poly":
        """Uniformly random element of ``R_q`` (the mask ``a`` in encryption)."""
        return Poly(params, [secrets.randbelow(params.q) for _ in range(params.n)])

    @staticmethod
    def random_ternary(params: RingParams) -> "Poly":
        """Random polynomial with coefficients in {-1, 0, 1} (secret keys)."""
        return Poly(params, [secrets.randbelow(3) - 1 for _ in range(params.n)])

    @staticmethod
    def random_error(params: RingParams, bound: int) -> "Poly":
        """Small-noise polynomial with coefficients uniform in [-bound, bound]."""
        if bound < 0:
            raise ConfigurationError("error bound must be non-negative")
        width = 2 * bound + 1
        return Poly(params, [secrets.randbelow(width) - bound for _ in range(params.n)])

    # ------------------------------------------------------------------ #
    # Ring operations
    # ------------------------------------------------------------------ #

    def _check_same_ring(self, other: "Poly") -> None:
        if self.params != other.params:
            raise ConfigurationError("polynomials belong to different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        return Poly(self.params, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        return Poly(self.params, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Poly":
        return Poly(self.params, [-a for a in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        return Poly(self.params, negacyclic_convolve(list(self.coeffs), list(other.coeffs)))

    def scale(self, factor: int) -> "Poly":
        """Multiply every coefficient by an integer ``factor``."""
        return Poly(self.params, [a * factor for a in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.params, self.coeffs))

    def __repr__(self) -> str:
        nonzero = sum(1 for c in self.coeffs if c)
        return f"Poly(n={self.params.n}, nonzero={nonzero})"

    # ------------------------------------------------------------------ #
    # Lifts
    # ------------------------------------------------------------------ #

    def centered(self) -> list[int]:
        """Coefficients lifted to the centered interval ``(-q/2, q/2]``."""
        q = self.params.q
        half = q // 2
        return [c - q if c > half else c for c in self.coeffs]

    def inf_norm(self) -> int:
        """Infinity norm of the centered lift — the noise magnitude measure."""
        return max(abs(c) for c in self.centered())


def negacyclic_convolve(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of ``a`` and ``b`` reduced mod ``x^n + 1``.

    Inputs must have equal length ``n``; the reduction folds coefficient
    ``n + k`` back onto ``k`` with a sign flip.  Works over plain integers
    (no modulus) so the FHE layer can convolve centered lifts exactly.
    """
    n = len(a)
    if len(b) != n:
        raise ConfigurationError("operands must have equal length")
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    return out


__all__ = ["RingParams", "Poly", "negacyclic_convolve"]
