"""Real network transport: LBL-ORTOA over TCP sockets.

A threaded TCP server hosts the untrusted
:class:`~repro.core.lbl.server.LblServer`
(:class:`~repro.transport.server.LblTcpServer`); the trusted
:class:`~repro.core.sharded.ShardedLblDeployment` reaches it through a link
(:mod:`repro.transport.pipeline`) — over TCP, or in this process with the
same bytes.  The wire carries exactly the serialized messages of
:mod:`repro.core.messages`, so all security properties carry over verbatim.
:class:`~repro.transport.cluster.ShardCluster` boots a set of shard servers
(threads or separate processes) for loopback experiments.

The server bounds what it holds: multiplexed
requests over its in-flight windows are shed at once with a constant
one-byte OVERLOAD frame, ``close()`` drains what it admitted, and a peer
that stops reading loses its connection (``docs/scaling.md``, "Backpressure
and admission control").

Re-exports resolve on first use (PEP 562), so importing one transport module
does not load the others — nor the deployment that imports this package's
link modules while it is itself being imported.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "LblTcpServer": "repro.transport.server",
    "RemoteLblOrtoa": "repro.core.sharded",
    "LocalLink": "repro.transport.pipeline",
    "PipelinedLblClient": "repro.transport.pipeline",
    "ShardCluster": "repro.transport.cluster",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
