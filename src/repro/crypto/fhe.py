"""A BFV-style somewhat-homomorphic encryption scheme with noise tracking.

This is the substrate for FHE-ORTOA (paper §3).  The paper prototyped that
variant on Microsoft SEAL's BFV and found it impractical: the multiplication
in ``Proc(ct_old, ct_new, [c_r, c_w]) = ct_old*c_r + ct_new*c_w`` amplifies
noise so fast that "within about 10 accesses ... the noise value grew too
large for the FHE decryption to succeed".  To reproduce that *finding* rather
than assume it, this module implements a real (if educational) RLWE scheme:

* secret-key BFV over ``R_q = Z_q[x]/(x^n + 1)`` with Δ-scaling,
* homomorphic addition,
* homomorphic multiplication via the tensor product with BFV's
  scale-and-round — and **no relinearization**, so ciphertexts grow by one
  component per multiplication, exactly the effect that makes repeated
  oblivious accesses balloon in both noise and size,
* an exact per-ciphertext noise measurement (:meth:`FheScheme.noise_budget`)
  and :meth:`FheScheme.decrypt_checked`, which raises
  :class:`~repro.errors.NoiseBudgetExhausted` once decryption can no longer
  be trusted.

Security caveat: parameters here are chosen for observable noise dynamics at
laptop scale, not for a production security level.  FHE-ORTOA is evaluated
for *feasibility*, matching the paper's treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.crypto.poly import Poly, RingParams, negacyclic_convolve
from repro.errors import ConfigurationError, NoiseBudgetExhausted


@dataclass(frozen=True, slots=True)
class FheParams:
    """Scheme parameters.

    Attributes:
        n: Ring degree (power of two).  Bounds the plaintext capacity: one
            byte per coefficient with the default ``t=256``.
        q_bits: Bit size of the ciphertext modulus ``q = 2**q_bits``
            (ignored when ``q_prime`` is given).
        t: Plaintext modulus; 256 packs one byte per coefficient.
        error_bound: Fresh-encryption noise coefficients are uniform in
            ``[-error_bound, error_bound]``.
        q_prime: Optional explicit prime modulus.  When it is NTT-friendly
            (``q ≡ 1 mod 2n`` — use :meth:`ntt_friendly`), all mod-q ring
            multiplications (encrypt, decrypt, relinearize) run through the
            O(n log n) NTT instead of the schoolbook convolution.
    """

    n: int = 256
    q_bits: int = 120
    t: int = 256
    error_bound: int = 3
    q_prime: int | None = None

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ConfigurationError("plaintext modulus t must be >= 2")
        if self.q.bit_length() < 2 * math.ceil(math.log2(self.t)):
            raise ConfigurationError("q must be much larger than t")
        if self.error_bound < 1:
            raise ConfigurationError("error_bound must be >= 1")

    @classmethod
    def ntt_friendly(cls, n: int = 256, q_bits: int = 120, t: int = 256,
                     error_bound: int = 3) -> "FheParams":
        """Parameters with a prime modulus enabling NTT multiplication."""
        from repro.crypto.ntt import find_ntt_prime

        return cls(n=n, q_bits=q_bits, t=t, error_bound=error_bound,
                   q_prime=find_ntt_prime(n, q_bits))

    @property
    def q(self) -> int:
        """The ciphertext modulus."""
        return self.q_prime if self.q_prime is not None else 1 << self.q_bits

    @property
    def q_bit_width(self) -> int:
        """Actual bit length of the modulus (drives serialization width)."""
        return self.q.bit_length()

    @property
    def delta(self) -> int:
        """The Δ = floor(q / t) message scaling factor."""
        return self.q // self.t

    @property
    def ring(self) -> RingParams:
        """Ring parameters for ciphertext components."""
        return RingParams(self.n, self.q)

    @property
    def component_bytes(self) -> int:
        """Serialized size of one ciphertext component."""
        return self.n * ((self.q_bit_width + 7) // 8)


@dataclass(frozen=True, slots=True)
class FheCiphertext:
    """A ciphertext: a tuple of ring elements decrypted against (1, s, s², …).

    ``mul_depth`` records how many homomorphic multiplications contributed to
    this ciphertext — the quantity the §3.3 experiment sweeps.
    ``noise_log2`` is an analytically tracked upper bound (in bits) on the
    infinity norm of the ciphertext noise; like SEAL's invariant noise budget
    it is maintained through every homomorphic operation so exhaustion can be
    detected without (and before) a failed decryption.
    """

    components: tuple[Poly, ...]
    params: FheParams
    mul_depth: int = 0
    noise_log2: float = 0.0

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ConfigurationError("a ciphertext needs at least 2 components")

    @property
    def size(self) -> int:
        """Number of ring components (2 when fresh, grows with each multiply)."""
        return len(self.components)

    @property
    def size_bytes(self) -> int:
        """Serialized byte size — drives the communication model of §3.2.2."""
        return self.size * self.params.component_bytes

    def to_bytes(self) -> bytes:
        """Serialize: 2-byte component count, 4-byte depth, 8-byte noise
        bound, then each component's coefficients at fixed width."""
        import struct

        header = struct.pack(">HId", self.size, self.mul_depth, self.noise_log2)
        width = (self.params.q_bit_width + 7) // 8
        body = b"".join(
            coeff.to_bytes(width, "big")
            for comp in self.components
            for coeff in comp.coeffs
        )
        return header + body

    @classmethod
    def from_bytes(cls, params: FheParams, data: bytes) -> "FheCiphertext":
        """Deserialize a ciphertext (inverse of :meth:`to_bytes`)."""
        import struct

        header_len = struct.calcsize(">HId")
        if len(data) < header_len:
            raise ConfigurationError("truncated FHE ciphertext header")
        size, depth, noise = struct.unpack(">HId", data[:header_len])
        width = (params.q_bit_width + 7) // 8
        expected = header_len + size * params.n * width
        if len(data) != expected:
            raise ConfigurationError(
                f"FHE ciphertext length mismatch: {len(data)} != {expected}"
            )
        pos = header_len
        components = []
        for _ in range(size):
            coeffs = []
            for _ in range(params.n):
                coeffs.append(int.from_bytes(data[pos:pos + width], "big"))
                pos += width
            components.append(Poly(params.ring, coeffs))
        return cls(tuple(components), params, depth, noise)


class FheSecretKey:
    """Holds the ternary secret ``s`` and caches its powers for decryption."""

    def __init__(self, params: FheParams) -> None:
        self.params = params
        self._s = Poly.random_ternary(params.ring)
        self._powers: list[Poly] = [Poly.constant(params.ring, 1), self._s]

    def power(self, i: int) -> Poly:
        """``s^i`` in ``R_q`` (cached)."""
        while len(self._powers) <= i:
            self._powers.append(self._powers[-1] * self._s)
        return self._powers[i]


class RelinearizationKey:
    """Key-switching material turning an ``s²`` component back into ``(1, s)``.

    This is the standard BFV relinearization key with digit decomposition:
    for base ``T = 2^decomp_bits`` and ``k = ceil(q_bits / decomp_bits)``
    digits, piece ``i`` is ``(b_i, a_i)`` with ``b_i = -a_i·s + e_i + T^i·s²``.
    The key reveals nothing about ``s`` beyond RLWE samples, so handing it to
    the untrusted server (which performs relinearization) is safe.

    Relinearization bounds ciphertexts at two components — fixing the *size*
    blow-up of repeated FHE-ORTOA accesses — but each application adds
    ``≈ k·n·T·e`` noise and does nothing about the multiplicative noise
    growth, which is why the §3.3 exhaustion persists (the ablation
    benchmark charts exactly this).
    """

    def __init__(self, sk: FheSecretKey, decomp_bits: int = 8) -> None:
        if not 1 <= decomp_bits <= 32:
            raise ConfigurationError("decomp_bits must be in [1, 32]")
        self.params = sk.params
        self.decomp_bits = decomp_bits
        self.num_digits = (self.params.q_bit_width + decomp_bits - 1) // decomp_bits
        ring = self.params.ring
        s2 = sk.power(2)
        self.pieces: list[tuple[Poly, Poly]] = []
        for i in range(self.num_digits):
            a = Poly.random_uniform(ring)
            e = Poly.random_error(ring, self.params.error_bound)
            b = s2.scale(1 << (decomp_bits * i)) + e - (a * sk.power(1))
            self.pieces.append((b, a))

    @property
    def noise_log2(self) -> float:
        """Upper bound (bits) on the noise one relinearization adds."""
        return (
            math.log2(self.num_digits)
            + math.log2(self.params.n)
            + self.decomp_bits
            + math.log2(self.params.error_bound)
        )


class FheScheme:
    """Encrypt/decrypt/evaluate interface used by FHE-ORTOA.

    One instance owns one secret key; in the paper's proxy-less deployment the
    clients (or a gateway) hold this object while the server only ever touches
    :class:`FheCiphertext` values via :meth:`add` and :meth:`multiply`, which
    need no key material.
    """

    def __init__(self, params: FheParams | None = None) -> None:
        self.params = params or FheParams()
        self._sk = FheSecretKey(self.params)

    # ------------------------------------------------------------------ #
    # Plaintext encoding
    # ------------------------------------------------------------------ #

    def encode_bytes(self, value: bytes) -> Poly:
        """Pack a byte string into a plaintext polynomial (one byte/coeff)."""
        if self.params.t != 256:
            raise ConfigurationError("byte packing requires t = 256")
        if len(value) > self.params.n:
            raise ConfigurationError(
                f"value of {len(value)} bytes exceeds ring capacity n={self.params.n}"
            )
        return Poly(self.params.ring, list(value))

    def decode_bytes(self, plaintext: Poly, length: int) -> bytes:
        """Unpack ``length`` bytes from a decrypted plaintext polynomial."""
        coeffs = plaintext.coeffs[:length]
        return bytes(c % self.params.t for c in coeffs)

    # ------------------------------------------------------------------ #
    # Core scheme
    # ------------------------------------------------------------------ #

    def encrypt_poly(self, message: Poly) -> FheCiphertext:
        """Fresh encryption: ``(Δ·m + e - a·s, a)``."""
        ring = self.params.ring
        a = Poly.random_uniform(ring)
        e = Poly.random_error(ring, self.params.error_bound)
        c0 = message.scale(self.params.delta) + e - (a * self._sk.power(1))
        return FheCiphertext(
            (c0, a), self.params, noise_log2=math.log2(self.params.error_bound)
        )

    def encrypt_bytes(self, value: bytes) -> FheCiphertext:
        """Encrypt a byte string (packs one byte per coefficient)."""
        return self.encrypt_poly(self.encode_bytes(value))

    def encrypt_scalar(self, value: int) -> FheCiphertext:
        """Encrypt a small integer as a constant polynomial (the ``c_r``/``c_w``
        selector bits of §3.1)."""
        return self.encrypt_poly(Poly.constant(self.params.ring, value % self.params.t))

    def _phase(self, ct: FheCiphertext) -> Poly:
        """``Σ c_i · s^i`` — the noisy scaled message ``Δm + e`` in ``R_q``."""
        acc = Poly.zero(self.params.ring)
        for i, comp in enumerate(ct.components):
            acc = acc + (comp * self._sk.power(i)) if i else comp
        return acc

    def decrypt_poly(self, ct: FheCiphertext) -> Poly:
        """Round each phase coefficient to the nearest multiple of Δ.

        Silently returns garbage once the noise exceeds Δ/2 — mirroring real
        BFV, where only a noise-budget check tells you the result is unusable.
        """
        q, t = self.params.q, self.params.t
        message = [(_round_div(t * v, q)) % t for v in self._phase(ct).centered()]
        return Poly(RingParams(self.params.n, t), message)

    def decrypt_bytes(self, ct: FheCiphertext, length: int) -> bytes:
        """Decrypt and unpack ``length`` bytes (unchecked; see decrypt_checked)."""
        return self.decode_bytes(self.decrypt_poly(ct), length)

    def decrypt_checked(self, ct: FheCiphertext, length: int) -> bytes:
        """Decrypt, raising if the noise budget is exhausted.

        Raises:
            NoiseBudgetExhausted: the ciphertext noise reached Δ/2, so the
                decryption result cannot be trusted (paper §3.3's failure).
        """
        if self.noise_budget(ct) <= 0:
            raise NoiseBudgetExhausted(
                f"noise budget exhausted after {ct.mul_depth} multiplications"
            )
        return self.decrypt_bytes(ct, length)

    def noise_budget(self, ct: FheCiphertext) -> float:
        """Remaining noise budget in bits: ``log2(Δ/2) - noise_log2``.

        Uses the analytically tracked noise *bound* carried by the ciphertext
        (so no key material is needed).  Positive budget ⇒ decryption is
        guaranteed correct; at or below zero the rounding in
        :meth:`decrypt_poly` may flip message coefficients.
        """
        return math.log2(self.params.delta / 2) - ct.noise_log2

    # ------------------------------------------------------------------ #
    # Homomorphic evaluation (server side — needs no key material)
    # ------------------------------------------------------------------ #

    @staticmethod
    def add(ct1: FheCiphertext, ct2: FheCiphertext) -> FheCiphertext:
        """Homomorphic addition; pads the shorter ciphertext with zeros."""
        if ct1.params != ct2.params:
            raise ConfigurationError("ciphertexts use different parameters")
        ring = ct1.params.ring
        size = max(ct1.size, ct2.size)
        zero = Poly.zero(ring)
        a = list(ct1.components) + [zero] * (size - ct1.size)
        b = list(ct2.components) + [zero] * (size - ct2.size)
        comps = tuple(x + y for x, y in zip(a, b))
        return FheCiphertext(
            comps,
            ct1.params,
            max(ct1.mul_depth, ct2.mul_depth),
            _log2_sum(ct1.noise_log2, ct2.noise_log2),
        )

    @staticmethod
    def multiply(ct1: FheCiphertext, ct2: FheCiphertext) -> FheCiphertext:
        """Homomorphic multiplication: tensor product with BFV scale-and-round.

        Output has ``size1 + size2 - 1`` components (no relinearization), and
        its noise is roughly the *product* of the operand noises scaled by the
        ring expansion — the super-linear growth behind §3.3.
        """
        if ct1.params != ct2.params:
            raise ConfigurationError("ciphertexts use different parameters")
        params = ct1.params
        q, t = params.q, params.t
        a = [c.centered() for c in ct1.components]
        b = [c.centered() for c in ct2.components]
        out_len = len(a) + len(b) - 1
        acc: list[list[int]] = [[0] * params.n for _ in range(out_len)]
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod = negacyclic_convolve(ai, bj)
                target = acc[i + j]
                for k, v in enumerate(prod):
                    target[k] += v
        comps = tuple(
            Poly(params.ring, [_round_div(t * c, q) for c in coeffs]) for coeffs in acc
        )
        # Standard BFV multiplication noise bound (all norms in log2 bits):
        #   N' <= n·t·(N1 + N2)  +  n·N1·N2/Δ  +  n·t²/2 (scale-and-round term)
        log_n = math.log2(params.n)
        log_t = math.log2(t)
        cross = log_n + log_t + _log2_sum(ct1.noise_log2, ct2.noise_log2)
        quadratic = log_n + ct1.noise_log2 + ct2.noise_log2 - math.log2(params.delta)
        rounding = log_n + 2 * log_t - 1
        noise = _log2_sum(_log2_sum(cross, quadratic), rounding)
        return FheCiphertext(comps, params, ct1.mul_depth + ct2.mul_depth + 1, noise)


    def make_relin_key(self, decomp_bits: int = 8) -> RelinearizationKey:
        """Produce a relinearization key for this scheme's secret."""
        return RelinearizationKey(self._sk, decomp_bits)

    @staticmethod
    def relinearize(ct: FheCiphertext, rlk: RelinearizationKey) -> FheCiphertext:
        """Reduce a 3-component ciphertext back to 2 components.

        Standard BFV key switching: decompose ``c2`` into base-``T`` digit
        polynomials ``d_i`` and fold ``Σ d_i·(b_i, a_i)`` into ``(c0, c1)``.
        Needs no secret material — the untrusted server runs this.
        """
        if ct.params != rlk.params:
            raise ConfigurationError("ciphertext and key use different parameters")
        if ct.size == 2:
            return ct
        if ct.size != 3:
            raise ConfigurationError(
                f"relinearization handles size-3 ciphertexts, got size {ct.size}"
            )
        c0, c1, c2 = ct.components
        mask = (1 << rlk.decomp_bits) - 1
        ring = ct.params.ring
        for i, (b_i, a_i) in enumerate(rlk.pieces):
            shift = rlk.decomp_bits * i
            digit = Poly(ring, [(coeff >> shift) & mask for coeff in c2.coeffs])
            c0 = c0 + digit * b_i
            c1 = c1 + digit * a_i
        noise = _log2_sum(ct.noise_log2, rlk.noise_log2)
        return FheCiphertext((c0, c1), ct.params, ct.mul_depth, noise)


def _round_div(a: int, b: int) -> int:
    """``round(a / b)`` for integer ``a`` and positive integer ``b``."""
    return (2 * a + b) // (2 * b)


def _log2_sum(a: float, b: float) -> float:
    """``log2(2^a + 2^b)`` computed stably in log space."""
    if a < b:
        a, b = b, a
    return a + math.log2(1.0 + 2.0 ** (b - a))


__all__ = [
    "FheParams",
    "FheCiphertext",
    "FheScheme",
    "FheSecretKey",
    "RelinearizationKey",
]
