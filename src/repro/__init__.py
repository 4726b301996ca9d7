"""ORTOA: one-round-trip protocols for operation-type obliviousness.

A faithful, self-contained reproduction of *ORTOA: A Family of One Round
Trip Protocols For Operation-Type Obliviousness* (EDBT 2024).  The library
provides:

* the protocol family — :class:`FheOrtoa`, :class:`TeeOrtoa`,
  :class:`LblOrtoa`, and the :class:`TwoRoundBaseline` they are evaluated
  against;
* every substrate they need, built from scratch: PRF/AEAD crypto, a
  BFV-style homomorphic scheme with noise tracking, a simulated SGX enclave
  with attestation, an in-memory KV store, and a discrete-event WAN
  simulator with the paper's datacenter RTTs;
* the ROR-RW experiment over the frames a deployment sent
  (:mod:`repro.security.audit`);
* the §8 extension — a one-round tree ORAM (:mod:`repro.oram`);
* an experiment harness regenerating every table and figure of the paper's
  evaluation (:mod:`repro.harness`, driven by ``benchmarks/``).

Quickstart::

    from repro import LblOrtoa, StoreConfig

    store = LblOrtoa(StoreConfig(value_len=160, group_bits=2))
    store.initialize({"alice": b"balance=100"})
    store.write("alice", b"balance=250")   # one round trip
    value = store.read("alice")            # one round trip, same wire shape
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Where each re-export lives.  Resolved on first use (PEP 562), so a proxy or
#: shard process that imports ``repro.core…`` / ``repro.transport…`` loads
#: neither the experiment harness nor numpy behind it.
_EXPORTS = {
    "OrtoaProtocol": "repro.core",
    "LblOrtoa": "repro.core",
    "TeeOrtoa": "repro.core",
    "FheOrtoa": "repro.core",
    "TwoRoundBaseline": "repro.core",
    "FreshnessGuard": "repro.core.freshness",
    "AccessTranscript": "repro.core",
    "KeyChain": "repro.crypto.keys",
    "StoreConfig": "repro.types",
    "Operation": "repro.types",
    "Request": "repro.types",
    "Response": "repro.types",
    "OrtoaError": "repro.errors",
    "CostModel": "repro.harness",
    "DeploymentSpec": "repro.harness",
    "RunResult": "repro.harness",
    "run_experiment": "repro.harness",
    "PathOram": "repro.oram",
    "OneRoundOram": "repro.oram",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
