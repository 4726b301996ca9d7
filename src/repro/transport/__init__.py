"""Real network transport: LBL-ORTOA over TCP sockets.

Everything else in the repository exchanges messages by function call (with
byte-exact serialization) or on the simulated WAN.  This package closes the
last gap to a deployable system: a threaded TCP server hosting the
untrusted :class:`~repro.core.lbl.server.LblServer`, and a client-side
deployment whose proxy talks to it over a real socket with length-prefixed
frames.  The wire carries exactly the serialized messages of
:mod:`repro.core.messages` — nothing protocol-visible changes, so all
security properties carry over verbatim.

Use :class:`~repro.transport.server.LblTcpServer` on the storage host and
:class:`~repro.transport.client.RemoteLblOrtoa` wherever the trusted proxy
runs.  For high-throughput deployments,
:class:`~repro.transport.pipeline.PipelinedLblClient` multiplexes many
in-flight requests over pooled sockets (see :mod:`repro.core.sharded`),
and :class:`~repro.transport.cluster.ShardCluster` boots a set of shard
servers (threads or separate processes) for loopback experiments.

The server bounds what it holds: multiplexed
requests over its in-flight windows are shed at once with a constant
one-byte OVERLOAD frame, ``close()`` drains what it admitted, and a peer
that stops reading loses its connection (``docs/scaling.md``, "Backpressure
and admission control").
"""

from repro.transport.client import RemoteLblOrtoa
from repro.transport.cluster import ShardCluster
from repro.transport.pipeline import PipelinedLblClient
from repro.transport.server import LblTcpServer
from repro.transport.tee_client import RemoteTeeOrtoa
from repro.transport.tee_server import TeeTcpServer

__all__ = [
    "LblTcpServer",
    "RemoteLblOrtoa",
    "PipelinedLblClient",
    "ShardCluster",
    "TeeTcpServer",
    "RemoteTeeOrtoa",
]
