"""The trusted-side client: an LBL-ORTOA deployment over a remote server.

:class:`RemoteLblOrtoa` is API-compatible with the in-process
:class:`~repro.core.lbl.LblOrtoa` — same proxy, same messages, same
transcripts — but its round trip is a real TCP exchange.  Transcript byte
counts therefore equal what a packet capture would show (minus the 4-byte
frame header, which the transcript also reports).
"""

from __future__ import annotations

import random
import socket
import threading

from repro.core.base import (
    AccessTranscript,
    OpCounts,
    OrtoaProtocol,
    PhaseRecord,
    RoundTrip,
)
from repro.core.lbl.concurrent import finalize_batch_entries
from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessResponse, LblBatchRequest, LblBatchResponse
from repro.crypto.keys import KeyChain
from repro.errors import BatchPartialFailure, ProtocolError, RefusedError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.transport import framing
from repro.transport.server import ERROR_TAG, LOAD_ACK, pack_load
from repro.types import Request, Response, StoreConfig


class RemoteLblOrtoa(OrtoaProtocol):
    """LBL-ORTOA whose untrusted server lives across a TCP connection.

    Args:
        config: Store configuration (``point_and_permute`` must match the
            server's).
        address: ``(host, port)`` of a running
            :class:`~repro.transport.server.LblTcpServer`.
        keychain: Key material — never leaves this process.
        rng: Table-shuffle randomness.
    """

    name = "lbl-ortoa-remote"
    rounds = 1

    def __init__(
        self,
        config: StoreConfig,
        address: tuple[str, int],
        keychain: KeyChain | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(config)
        self.keychain = keychain or KeyChain(label_bits=config.label_bits)
        self.proxy = LblProxy(config, self.keychain, rng=rng)
        self._sock = socket.create_connection(address, timeout=30.0)
        self._io_lock = threading.Lock()

    def close(self) -> None:
        """Close the connection to the server."""
        self._sock.close()

    def __enter__(self) -> "RemoteLblOrtoa":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Wire helpers
    # ------------------------------------------------------------------ #

    def _exchange(self, payload: bytes) -> bytes:
        span = TRACER.start_span("transport.exchange") if _obs.enabled else None
        with self._io_lock:
            framing.send_frame(self._sock, payload)
            reply = framing.recv_frame(self._sock)
        if span is not None:
            span.set_attributes(request_bytes=len(payload), response_bytes=len(reply))
            TRACER.end(span)
        if reply[:1] == bytes([ERROR_TAG]):
            if _obs.enabled:
                REGISTRY.counter("transport.error_frames_received").inc()
            raise RefusedError(
                f"server error: {reply[1:].decode('utf-8', 'replace')}"
            )
        return reply

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #

    def initialize(self, records: dict[str, bytes]) -> None:
        for encoded_key, labels in self.proxy.initial_records(records):
            reply = self._exchange(pack_load(encoded_key, labels))
            if reply != LOAD_ACK:
                raise ProtocolError("server rejected a load record")

    def access(self, request: Request) -> AccessTranscript:
        """One oblivious access over the socket.

        An error frame (:class:`~repro.errors.RefusedError`) proves the
        server refused before commit: the key's counter is taken back, so
        the access can be retried.  A timeout or a lost connection leaves
        the outcome unknown — the counter stays advanced, and reconciling it
        is the write-ahead log's business (:mod:`repro.core.lbl.wal`).
        """
        lbl_request, proxy_ops = self.proxy.prepare(request)
        request_bytes = lbl_request.to_bytes()
        try:
            reply = self._exchange(request_bytes)
        except RefusedError:
            self.proxy.force_counter(
                request.key, self.proxy.counter(request.key) - 1
            )
            raise
        response = LblAccessResponse.from_bytes(reply)
        value, finalize_ops = self.proxy.finalize(request.key, response)
        return AccessTranscript(
            op=request.op,
            phases=(
                PhaseRecord("proxy-build-tables", "proxy", proxy_ops),
                # Server-side op counts are not observable across the wire
                # (nor should they be); kv_ops=2 is the known fetch+store.
                PhaseRecord("server-remote", "server", OpCounts(kv_ops=2)),
                PhaseRecord("proxy-decode", "proxy", finalize_ops),
            ),
            round_trips=(RoundTrip(len(request_bytes), len(reply)),),
            response=Response(request.key, value),
        )

    def access_batch(self, requests: list[Request]) -> list[AccessTranscript]:
        """Serve many requests in one *physical* round trip over the socket.

        All tables are prepared locally (epochs recorded per request, so
        repeated keys decode correctly), shipped as one
        :class:`~repro.core.messages.LblBatchRequest`, and finalized from
        the single batched reply.

        Raises:
            BatchPartialFailure: Some requests failed server-side.  The
                successful ones were applied (their transcripts ride on the
                exception) and the failed keys' counters were rolled back,
                so retrying just the failures is safe.
        """
        if not requests:
            raise ProtocolError("batch must contain at least one request")
        prepared = []
        for request in requests:
            epoch = self.proxy.counter(request.key) + 1
            lbl_request, proxy_ops = self.proxy.prepare(request)
            prepared.append((request, lbl_request, proxy_ops, epoch))

        wire = LblBatchRequest(tuple(p[1] for p in prepared)).to_bytes()
        reply = self._exchange(wire)
        batch_response = LblBatchResponse.from_bytes(reply)
        if len(batch_response.responses) != len(prepared):
            raise ProtocolError("batch response count mismatch")

        share = (len(wire) // len(prepared), len(reply) // len(prepared))
        transcripts, failures = finalize_batch_entries(
            self.proxy,
            [(request, proxy_ops, epoch) for request, _, proxy_ops, epoch in prepared],
            batch_response.responses,
            shares=[share] * len(prepared),
        )
        if failures:
            raise BatchPartialFailure(failures, transcripts)
        return [transcripts[i] for i in range(len(prepared))]


__all__ = ["RemoteLblOrtoa"]
