"""Cost models: pricing cryptographic op counts into compute time.

The paper's testbed ran C++ crypto on AWS r5.xlarge / Azure DC48s_v3; this
reproduction runs the protocols functionally in Python and *prices* their op
counts into simulated time.  Two calibrations are provided:

* :meth:`CostModel.paper_like` — constants chosen so the derived phase times
  match the paper's reported compute costs (LBL label processing ≈ 2–3 ms
  for 160 B values, §6.3.1/§6.3.3; enclave call overhead in the tens of
  microseconds).  This is the default for figure reproduction.  ``prf_us``
  prices one PRF evaluation of the paper's proxy, which derives its labels
  one evaluation at a time — 2 601 per access at the paper point, 32 bytes
  of labels or of permute offsets each (:meth:`CostModel.priced_ops`)
  — so the constant is the one that keeps its label processing at the
  paper's ≈ 3 ms; this implementation's proxy makes three calls (two
  whole-epoch derivations and the key encoding), whose count no longer
  scales with the value size.
  It also keeps the simulated link carrying the paper's LBL messages
  (:meth:`CostModel.lbl_round_trip`): one authenticated ciphertext ``E_len``
  per table entry, where this implementation now ships a 16-byte
  row (group 0's carry a 16-byte check block more) — the figures
  reproduce the paper's protocol, not this repo's optimizations.
* :meth:`CostModel.measured` — times this library's own (pure-Python)
  primitives through the :mod:`repro.obs.clock` abstraction (wall clock by
  default, a fake clock under test), for machine-true what-if runs; it
  charges the bytes the implementation really serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.base import OpCounts, PhaseRecord, RoundTrip
from repro.crypto import aead
from repro.crypto.prf import Prf
from repro.errors import ConfigurationError
from repro.obs.clock import Clock, WallClock
from repro.types import StoreConfig

#: The paper's LBL table entry on the wire, beyond the label (+ slot byte) it
#: encrypts: a 12-byte nonce and a 16-byte tag (``E_len``) behind a 4-byte
#: length prefix — and the prefix again on each label the server returns.
PAPER_ENTRY_OVERHEAD_BYTES = 12 + 16 + 4
PAPER_LABEL_OVERHEAD_BYTES = 4
#: Tag, 1-byte table-size field and encoded-key field of that request.
PAPER_REQUEST_HEADER_BYTES = 1 + 5 + 20


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-operation compute costs in microseconds (FHE ops in ms)."""

    prf_us: float = 0.8613
    aead_enc_us: float = 0.30
    aead_dec_us: float = 0.25
    failed_dec_us: float = 0.25
    ecall_overhead_us: float = 40.0
    kv_op_us: float = 2.0
    fhe_enc_ms: float = 2.0
    fhe_dec_ms: float = 1.0
    fhe_add_ms: float = 0.2
    fhe_mul_ms: float = 30.0
    #: Charge LBL accesses as the paper's protocol — its entry format on the
    #: wire (:meth:`lbl_round_trip`), its per-label PRF evaluations
    #: (:meth:`priced_ops`) — instead of at what the implementation
    #: serialized and called.
    paper_wire: bool = True

    def lbl_round_trip(self, config: StoreConfig) -> RoundTrip | None:
        """The bytes one LBL access puts on the simulated link, or ``None``
        to charge what the implementation serialized.

        The paper's request is ``2^y`` authenticated ciphertexts per group
        (§5.3.2: ``2^y · E_len · t/y`` bits) and its reply one label per
        group, each a length-prefixed field — byte for byte the format this
        repo shipped until the one-HMAC row replaced the §10.2 entry.  The
        link bandwidth (:data:`repro.sim.network.DEFAULT_BANDWIDTH_MBPS`) was
        fitted against these sizes, so the Figure 3b crossover and every
        other reproduction stay where the paper has them.
        """
        if not self.paper_wire:
            return None
        label_len = config.label_bits // 8
        entry = label_len + 1 + PAPER_ENTRY_OVERHEAD_BYTES  # + the §10.2 slot byte
        groups = config.num_groups
        return RoundTrip(
            PAPER_REQUEST_HEADER_BYTES + groups * (1 << config.group_bits) * entry,
            1 + groups * (label_len + PAPER_LABEL_OVERHEAD_BYTES),
        )

    def priced_ops(self, config: StoreConfig, phase: PhaseRecord) -> OpCounts:
        """The op counts to price a phase at: its own, except for LBL's
        table build (the only phase named ``proxy-build-tables``).

        The implementation derives an epoch in one call, so its
        ``prf`` count (3 per access) says nothing about the label work the
        paper's proxy does.  Under ``paper_wire`` the table-building phase
        is charged that work in closed form, as :meth:`lbl_round_trip`
        charges the paper's bytes: per epoch one PRF evaluation per 32
        bytes of a group's ``2^y`` labels and per 32 permute offsets, twice
        (old and new epoch), plus the key encoding.
        """
        if not self.paper_wire or phase.name != "proxy-build-tables":
            return phase.ops
        label_len = config.label_bits // 8
        groups = config.num_groups
        per_epoch = groups * -(-(label_len << config.group_bits) // 32) + -(-groups // 32)
        return replace(phase.ops, prf=2 * per_epoch + 1)

    def phase_ms(self, ops: OpCounts) -> float:
        """Compute time of one phase given its op counts."""
        micro = (
            ops.prf * self.prf_us
            + ops.aead_enc * self.aead_enc_us
            + ops.aead_dec * self.aead_dec_us
            + ops.failed_dec * self.failed_dec_us
            + ops.ecalls * self.ecall_overhead_us
            + ops.kv_ops * self.kv_op_us
        )
        milli = (
            ops.fhe_enc * self.fhe_enc_ms
            + ops.fhe_dec * self.fhe_dec_ms
            + ops.fhe_add * self.fhe_add_ms
            + ops.fhe_mul * self.fhe_mul_ms
        )
        return micro / 1000.0 + milli

    @classmethod
    def paper_like(cls) -> "CostModel":
        """The default calibration (see module docstring)."""
        return cls()

    @classmethod
    def measured(
        cls,
        label_bytes: int = 16,
        samples: int = 2000,
        clock: Clock | None = None,
    ) -> "CostModel":
        """Calibrate symmetric-crypto costs by timing this library.

        FHE and ecall costs keep their paper-like defaults (the FHE scheme
        here is educational-grade and the enclave is simulated, so timing
        them would not model any real deployment).

        Args:
            label_bytes: Payload size the primitives are timed at.
            samples: Timed iterations per primitive.
            clock: Time source (defaults to a fresh
                :class:`~repro.obs.clock.WallClock`); tests inject a
                :class:`~repro.obs.clock.FakeClock` for deterministic
                calibration.
        """
        if samples < 10:
            raise ConfigurationError("need at least 10 samples to calibrate")
        clock = clock or WallClock()
        prf = Prf(b"calibration-key-0123456789abcdef", out_bytes=label_bytes)
        key = b"k" * 16
        payload = b"p" * label_bytes
        ciphertext = aead.encrypt(key, payload)
        wrong_key = b"w" * 16

        def time_us(fn) -> float:
            start = clock.now()
            for i in range(samples):
                fn(i)
            return (clock.now() - start) / samples * 1e6

        prf_us = time_us(lambda i: prf.evaluate("calib", i))
        enc_us = time_us(lambda i: aead.encrypt(key, payload))
        dec_us = time_us(lambda i: aead.decrypt(key, ciphertext))
        failed_us = time_us(lambda i: aead.try_decrypt(wrong_key, ciphertext))
        return replace(
            cls(),
            paper_wire=False,
            prf_us=prf_us,
            aead_enc_us=enc_us,
            aead_dec_us=dec_us,
            failed_dec_us=failed_us,
        )


__all__ = ["CostModel"]
