"""Boot a set of LBL storage shards on loopback.

Two backings:

* ``in_process=True`` — each shard is an
  :class:`~repro.transport.server.LblTcpServer` on a daemon thread of this
  process.  Cheap to start and lets tests observe server internals, but
  Python's GIL serializes the shards' compute.
* ``in_process=False`` — each shard runs in its own ``multiprocessing``
  process (spawn start method), so shard *compute* parallelizes across
  physical cores where the machine has them.

Either way a shard captures spans and metrics when this process has capture
on at :meth:`ShardCluster.start`: a thread-backed shard shares this
process's switch, and a process-backed shard turns its own on at boot and
answers the obs control frame with what it recorded.  Capture turned on
after the boot does not reach a process-backed shard.

The loopback measurements over a cluster are
:func:`repro.harness.experiments.sharded_scaling` and
:func:`~repro.harness.experiments.pipeline_depth_sweep`.
"""

from __future__ import annotations

import multiprocessing

from repro.errors import ConfigurationError, ProtocolError
from repro.obs import _state as _obs
from repro.transport.server import LblTcpServer


def _serve_shard(conn, response_delay_s: float, metrics: bool,
                 capture: bool) -> None:  # pragma: no cover - child process
    """Child-process entry point: bind, report the addresses, serve forever."""
    from repro import obs

    if capture:
        # The child records into its own tracer/registry; the trusted side
        # pulls the dump over an OBS_PULL control frame and merges it.
        obs.enable()
    server = LblTcpServer(
        response_delay_s=response_delay_s,
        metrics_port=0 if metrics else None,
    )
    conn.send({"address": server.address, "metrics": server.metrics_address})
    conn.close()
    server.serve_forever()


class ShardCluster:
    """``N`` loopback LBL shard servers, thread- or process-backed.

    Args:
        num_shards: Servers to boot.
        in_process: Daemon threads (True) or spawned processes (False).
        response_delay_s: Service time slept inside every admitted request.
        metrics: Give every shard a metrics endpoint answering its
            registry's JSON snapshot on an ephemeral port (read
            ``metrics_addresses``; ``repro doctor`` reads them).
    """

    def __init__(
        self,
        num_shards: int,
        in_process: bool = True,
        response_delay_s: float = 0.0,
        metrics: bool = False,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.in_process = in_process
        self.response_delay_s = response_delay_s
        self.metrics = metrics
        self.addresses: list[tuple[str, int]] = []
        self.metrics_addresses: list[tuple[str, int] | None] = []
        self.servers: list = []  # LblTcpServer when in_process
        self._processes: list[multiprocessing.Process] = []

    def start(self) -> list[tuple[str, int]]:
        """Boot every shard; returns their addresses."""
        if self.addresses:
            raise ConfigurationError("cluster already started")
        if self.in_process:
            for _ in range(self.num_shards):
                server = LblTcpServer(
                    response_delay_s=self.response_delay_s,
                    metrics_port=0 if self.metrics else None,
                )
                server.serve_in_background()
                self.servers.append(server)
                self.addresses.append(server.address)
                self.metrics_addresses.append(server.metrics_address)
        else:
            ctx = multiprocessing.get_context("spawn")
            for _ in range(self.num_shards):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_serve_shard,
                    args=(child_conn, self.response_delay_s, self.metrics, _obs.enabled),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                if not parent_conn.poll(30.0):
                    self.stop()
                    raise ProtocolError("shard process failed to report its address")
                try:
                    endpoints = parent_conn.recv()
                except EOFError:
                    self.stop()
                    raise ProtocolError(
                        "shard process died before binding (spawn re-imports "
                        "__main__, which must be importable)"
                    ) from None
                self.addresses.append(endpoints["address"])
                self.metrics_addresses.append(endpoints["metrics"])
                parent_conn.close()
                self._processes.append(process)
        return self.addresses

    def stop(self) -> None:
        """Shut every shard down (idempotent)."""
        for server in self.servers:
            server.close()
        self.servers = []
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        self._processes = []
        self.addresses = []
        self.metrics_addresses = []

    def __enter__(self) -> "ShardCluster":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


__all__ = ["ShardCluster"]
