"""LBL-ORTOA: the label-based one-round protocol (paper §5 and appendix §10).

The package splits the protocol along its trust boundary:

* :class:`~repro.core.lbl.proxy.LblProxy` — trusted; owns the PRF keys and
  per-object access counters, builds the encryption tables, and decodes the
  server's opened labels back to plaintext.
* :class:`~repro.core.lbl.server.LblServer` — untrusted; stores one label
  per group and applies the table it is sent, learning nothing about the
  operation type.
* :class:`LblOrtoa` — the deployment object wiring the two together behind
  the common :class:`~repro.core.base.OrtoaProtocol` interface.

Both optimizations of the appendix are supported via
:class:`~repro.types.StoreConfig`: ``group_bits`` (one label per ``y``
plaintext bits, §10.1) and ``point_and_permute`` (the server decrypts exactly
one table entry per group, §10.2).
"""

from __future__ import annotations

from repro.core.base import (
    AccessTranscript,
    OrtoaProtocol,
    PhaseRecord,
    RoundTrip,
)
from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.server import LblServer
from repro.crypto.keys import KeyChain
from repro.types import Request, Response, StoreConfig

import random


class LblOrtoa(OrtoaProtocol):
    """One-round oblivious GET/PUT via PRF-derived bit labels.

    Args:
        config: Store configuration; ``group_bits`` and ``point_and_permute``
            select the §10 optimizations.
        keychain: Key material (generated if omitted).
        rng: Randomness source for table shuffling; inject a seeded
            ``random.Random`` for deterministic tests.
    """

    name = "lbl-ortoa"
    rounds = 1

    def __init__(
        self,
        config: StoreConfig,
        keychain: KeyChain | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(config)
        self.keychain = keychain or KeyChain(label_bits=config.label_bits)
        self.proxy = LblProxy(config, self.keychain, rng=rng)
        self.server = LblServer(point_and_permute=config.point_and_permute)

    def initialize(self, records: dict[str, bytes]) -> None:
        for encoded_key, labels in self.proxy.initial_records(records):
            self.server.load(encoded_key, labels)

    def access(self, request: Request) -> AccessTranscript:
        from repro.obs import _state as _obs
        from repro.obs import ledger as _ledger
        from repro.obs.trace import TRACER

        with TRACER.span("lbl.access", op=request.op.value):
            req, proxy_ops = self.proxy.prepare(request)
            resp, server_ops = self.server.process(req)
            value, finalize_ops = self.proxy.finalize(request.key, resp)
        req_bytes = len(req.to_bytes())
        resp_bytes = len(resp.to_bytes())
        if _obs.enabled:
            # In-process deployments cross no socket; meter the logical
            # request/response under role="local" so the cost model has the
            # same frame-typed view as a remote run, and credit the ambient
            # row (if an access is being tracked) with the exact exchange.
            _ledger.count_wire("access", "sent", req_bytes, role="local")
            _ledger.count_wire("access", "received", resp_bytes, role="local")
            _ledger.credit_wire("access", "sent", req_bytes)
            _ledger.credit_wire("access", "received", resp_bytes)
        return AccessTranscript(
            op=request.op,
            phases=(
                PhaseRecord("proxy-build-tables", "proxy", proxy_ops),
                PhaseRecord("server-open-and-update", "server", server_ops),
                PhaseRecord("proxy-decode", "proxy", finalize_ops),
            ),
            round_trips=(RoundTrip(req_bytes, resp_bytes),),
            response=Response(request.key, value),
        )


__all__ = ["LblOrtoa", "LblProxy", "LblServer"]
