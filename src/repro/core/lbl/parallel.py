"""Multi-core table preparation for LBL-ORTOA.

One LBL access touches exactly one key, and accesses to *different* keys
share no mutable proxy state beyond dictionaries guarded here — so a batch
of requests over distinct keys is embarrassingly parallel on the proxy side.
:class:`ParallelPrepareEngine` fans a batch's ``prepare`` calls across a
thread pool with the same striped-lock discipline as
:class:`~repro.core.lbl.concurrent.ConcurrentLblProxy`:

* requests for the **same key** are grouped and executed in submission order
  inside a single task (each access consumes epoch ``ct`` and installs
  ``ct + 1``; reordering would build tables against a stale epoch);
* each task holds its key's **lock stripe** while touching the proxy, so
  stripe collisions degrade parallelism but never correctness;
* the **shuffle lock** serializes draws from the shared table-shuffle RNG
  (base protocol only — point-and-permute deployments never shuffle).

On a free-threaded or multi-core interpreter the pool overlaps the PRF/AEAD
kernels of independent keys; under a GIL the crypto (tiny ``hashlib``
updates that do not release the GIL) stays serialized and ``workers=0`` is
the sensible default — which is why the benchmark gates measure the batched
kernels, not the pool.  The engine's contract is identical either way:
outputs match a sequential ``prepare`` loop exactly (modulo shuffle order
consumed from the shared RNG).

``backend="procpool"`` sidesteps the GIL entirely: label derivation — the
dominant cold-prepare cost — runs in a shared
:class:`~repro.core.lbl.procpool.ProcessCryptoPool` of worker *processes*,
and the engine's threads only wait on results and run the (cheap, cached,
or AEAD-bound) remainder of ``prepare``.  Outputs are byte-identical to the
thread backend: workers rebuild the same PRFs from the same keys, and a
proxy label-cache hit still wins over a shipped-in derivation.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.base import OpCounts
from repro.core.lbl.coalesce import DEFAULT_MAX_BATCH, PrepareCoalescer
from repro.core.lbl.procpool import ProcessCryptoPool
from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessRequest
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.clock import Clock
from repro.obs.metrics import REGISTRY
from repro.types import Request

#: Engine backends: ``"thread"`` runs ``prepare`` fully in-process;
#: ``"procpool"`` offloads label derivation to worker processes.
PREPARE_BACKENDS = ("thread", "procpool")


class ParallelPrepareEngine:
    """Prepare a batch of LBL accesses across a worker pool.

    Args:
        proxy: The trusted proxy whose ``prepare`` is fanned out.
        workers: Pool size.  ``0`` (default) prepares serially on the
            calling thread — correct everywhere, fastest under a GIL.
        num_stripes: Per-key lock stripes (bounded lock table).
        backend: ``"thread"`` (default) or ``"procpool"`` — the latter
            derives labels in a :class:`ProcessCryptoPool` of
            ``max(1, workers)`` worker processes, overlapping the PRF
            kernels of independent keys even under a GIL.
        coalesce_window: When ``> 0``, route every prepare through a
            :class:`~repro.core.lbl.coalesce.PrepareCoalescer` with this
            flush timer (seconds): concurrent prepares fuse into one
            dispatch per window, and serial ``prepare_batch`` calls fuse the
            whole batch.  ``0`` (default) keeps the per-request paths.
        coalesce_batch: Size flush threshold for the coalescing window.
        coalesce_clock: Injectable time source for the flush timer
            (deterministic timer tests); defaults to wall time.
    """

    def __init__(
        self,
        proxy: LblProxy,
        workers: int = 0,
        num_stripes: int = 64,
        backend: str = "thread",
        coalesce_window: float = 0.0,
        coalesce_batch: int = DEFAULT_MAX_BATCH,
        coalesce_clock: "Clock | None" = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if num_stripes < 1:
            raise ConfigurationError("num_stripes must be >= 1")
        if backend not in PREPARE_BACKENDS:
            raise ConfigurationError(
                f"unknown prepare backend {backend!r}; expected one of "
                f"{PREPARE_BACKENDS}"
            )
        self.proxy = proxy
        self.workers = workers
        self.backend = backend
        self._stripes = [threading.Lock() for _ in range(num_stripes)]
        self._shuffle_lock = threading.Lock()
        self._needs_shuffle_lock = not proxy.config.point_and_permute
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers else None
        self._procpool: ProcessCryptoPool | None = None
        if backend == "procpool":
            config = proxy.config
            self._procpool = ProcessCryptoPool(
                proxy.keychain,
                value_len=config.value_len,
                group_bits=config.group_bits,
                point_and_permute=config.point_and_permute,
                workers=max(1, workers),
                max_batch=max(coalesce_batch, 1),
            )
        self._coalescer: PrepareCoalescer | None = None
        if coalesce_window > 0:
            self._coalescer = PrepareCoalescer(
                proxy,
                window=coalesce_window,
                max_batch=coalesce_batch,
                procpool=self._procpool,
                clock=coalesce_clock,
            )

    def close(self) -> None:
        """Shut the worker pool(s) down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None

    def __enter__(self) -> "ParallelPrepareEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def coalescer(self) -> "PrepareCoalescer | None":
        """The coalescing stage, when enabled (``coalesce_window > 0``)."""
        return self._coalescer

    def prepare_one(
        self, request: Request, row: "_ledger.LedgerRow | None" = None
    ) -> tuple[LblAccessRequest, OpCounts, int]:
        """Prepare a single access through the engine's configured path.

        With coalescing enabled this joins the current window — concurrent
        callers (pipelined transports, multi-client deployments) fuse into
        one dispatch; otherwise it is a plain per-request prepare.
        Returns the same ``(wire_request, prepare_ops, epoch)`` triple as a
        :meth:`prepare_batch` entry.
        """
        return self._prepare_one(request, row)

    def _prepare_one(
        self, request: Request, row: "_ledger.LedgerRow | None" = None
    ) -> tuple[LblAccessRequest, OpCounts, int]:
        if self._coalescer is not None:
            return self._coalescer.prepare(request, row)
        # Contextvars do not follow work across the thread pool, so callers
        # that track per-request rows pass them explicitly; the row is made
        # ambient for exactly this request's crypto.
        token = _ledger.activate(row) if row is not None else None
        try:
            return self._prepare_one_inner(request)
        finally:
            if token is not None:
                _ledger.deactivate(token)

    def _prepare_one_inner(
        self, request: Request
    ) -> tuple[LblAccessRequest, OpCounts, int]:
        proxy = self.proxy
        ct = proxy.counter(request.key)
        label_sets = None
        if self._procpool is not None:
            # Skip the round trip to the worker when the proxy label cache
            # already holds this epoch — prepare would discard the shipped
            # derivation anyway (a cached epoch always wins).
            cached = (
                proxy.label_cache.peek(request.key, ct)
                if proxy.label_cache is not None
                else None
            )
            if cached is None:
                label_sets = self._procpool.derive(request.key, ct)
        if self._needs_shuffle_lock:
            with self._shuffle_lock:
                lbl_request, ops = proxy.prepare(request, label_sets)
        else:
            lbl_request, ops = proxy.prepare(request, label_sets)
        return lbl_request, ops, ct + 1

    def _prepare_key_group(
        self, indexed: "list[tuple[int, Request, _ledger.LedgerRow | None]]"
    ) -> "list[tuple[int, tuple[LblAccessRequest, OpCounts, int]]]":
        # All requests here share one key: take its stripe once, run the
        # group in submission order so epochs chain ct -> ct+1 -> ...
        stripe = self._stripes[hash(indexed[0][1].key) % len(self._stripes)]
        with stripe:
            return [
                (index, self._prepare_one(request, row))
                for index, request, row in indexed
            ]

    def prepare_batch(
        self,
        requests: "list[Request]",
        rows: "list[_ledger.LedgerRow | None] | None" = None,
    ) -> "list[tuple[LblAccessRequest, OpCounts, int]]":
        """Prepare every request; results are in request order.

        Returns one ``(wire_request, prepare_ops, epoch)`` triple per input,
        where ``epoch`` is the label counter the access installs — what
        ``finalize`` needs once the server response arrives.

        Args:
            requests: The batch, in submission order.
            rows: Optional per-request ledger rows (parallel positions);
                each request's crypto is attributed to its own row even when
                the batch fans out across pool threads.
        """
        if not requests:
            raise ConfigurationError("prepare batch must contain at least one request")
        if rows is not None and len(rows) != len(requests):
            raise ConfigurationError(
                f"{len(requests)} requests for {len(rows)} ledger rows"
            )
        if self._pool is None or len(requests) == 1:
            if self._coalescer is not None:
                # The whole batch is known up front: fuse it as one window
                # instead of paying the flush timer per request.
                return self._coalescer.prepare_all(requests, rows)
            return [
                self._prepare_one(request, rows[index] if rows else None)
                for index, request in enumerate(requests)
            ]
        # Group by key, preserving submission order within each group.
        groups: dict[str, list[tuple[int, Request, object]]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.key, []).append(
                (index, request, rows[index] if rows else None)
            )
        futures = [
            self._pool.submit(self._prepare_key_group, indexed)
            for indexed in groups.values()
        ]
        results: list = [None] * len(requests)
        for future in futures:
            for index, prepared in future.result():
                results[index] = prepared
        if _obs.enabled:
            REGISTRY.counter("lbl.parallel.prepared").inc(len(requests))
            REGISTRY.gauge("lbl.parallel.key_groups").set(len(groups))
        return results


__all__ = ["ParallelPrepareEngine"]
