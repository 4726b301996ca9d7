"""Exception hierarchy for the ORTOA reproduction.

Every error raised by this library derives from :class:`OrtoaError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish protocol, cryptographic, storage, and simulation faults.
"""

from __future__ import annotations


class OrtoaError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(OrtoaError):
    """A component was constructed or invoked with invalid parameters."""


class CryptoError(OrtoaError):
    """Base class for cryptographic failures."""


class DecryptionError(CryptoError):
    """Authenticated decryption failed (wrong key or tampered ciphertext).

    In LBL-ORTOA the server *expects* one of the two ciphertexts per index to
    fail decryption; this exception is the signal it relies on.
    """


class NoiseBudgetExhausted(CryptoError):
    """An FHE ciphertext accumulated too much noise to decrypt correctly.

    Reproduces the failure mode of paper §3.3: after a small number of
    homomorphic multiplications the plaintext can no longer be recovered.
    """


class TamperDetectedError(CryptoError):
    """A label read back from the server matches neither the 0- nor 1-label.

    Raised by the malicious-adversary extension of LBL-ORTOA (paper §5.4).
    """


class ProtocolError(OrtoaError):
    """A protocol invariant was violated (malformed message, bad state)."""


class KeyNotFoundError(ProtocolError):
    """The requested key does not exist in the store."""


class RefusedError(ProtocolError):
    """The server answered that it did not apply this request.

    Raised for an error frame (or, as :class:`OverloadError`, an OVERLOAD
    frame): the reply itself proves the server refused before commit, so no
    label rotated.  The access paths roll the key's proxy counter back
    before re-raising, which is what makes a retry safe.  A timeout or a
    lost connection proves nothing and is *not* this error.
    """


class OverloadError(RefusedError):
    """The server shed this request instead of queueing it.

    Raised when a transport receives the one-byte OVERLOAD frame: the
    server's admission control found its in-flight window full (or the
    server draining for shutdown) and refused the request *before* looking
    at it.  The request was not processed — no label rotated — and the
    access paths have already taken the proxy counter back, so retrying
    after backoff is safe.
    """


class BatchPartialFailure(ProtocolError):
    """Some requests of a batch failed server-side; the rest completed.

    The successful requests *did* rotate their labels (server- and
    proxy-side state stays in sync for them), and the proxy rolled its
    counters back for the failed keys, so retrying just the failed requests
    is safe.

    Attributes:
        transcripts: ``original index -> AccessTranscript`` for the
            requests that completed.
        failures: ``original index -> server error message`` for the
            requests that did not.
    """

    def __init__(self, failures: dict, transcripts: dict) -> None:
        self.failures = dict(failures)
        self.transcripts = dict(transcripts)
        total = len(self.failures) + len(self.transcripts)
        indices = ", ".join(str(i) for i in sorted(self.failures))
        super().__init__(
            f"{len(self.failures)} of {total} batch requests failed "
            f"(indices {indices}); successful requests were applied"
        )


class StorageError(OrtoaError):
    """The storage engine rejected an operation."""


class EnclaveError(OrtoaError):
    """Base class for simulated-TEE failures."""


class AttestationError(EnclaveError):
    """Enclave attestation evidence failed verification."""


class EnclaveSealedError(EnclaveError):
    """Host code attempted to read enclave-private state."""


class SimulationError(OrtoaError):
    """The discrete-event simulator entered an invalid state."""
