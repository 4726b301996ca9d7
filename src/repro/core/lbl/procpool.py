"""Process-pool label derivation for LBL-ORTOA.

Under a GIL the :class:`~repro.core.lbl.parallel.ParallelPrepareEngine`
thread pool cannot overlap the PRF kernels of independent accesses — the
``hashlib`` calls are too small to release the GIL for.  This module moves
the label derivation itself into **worker processes**: each worker is handed
the raw label/permute PRF keys once (at pool start, via the initializer) and
rebuilds an identical :class:`~repro.crypto.labels.LabelCodec`.

Two wire formats carry results back to the parent:

* **Shared-memory rings** (default where available): each worker owns one
  ``multiprocessing.shared_memory`` segment laid out as a small ring of
  result slots — persistent worker↔segment affinity, claimed once at
  initializer time.  A worker derives a whole batch of accesses in one fused
  PRF dispatch (:meth:`~repro.crypto.labels.LabelCodec.labels_for_epochs`),
  writes the label/offset matrices straight into a free slot, and returns
  only a tiny ``(segment, slot, lengths)`` descriptor through the pickle
  channel.  The parent slices label sets directly out of the mapped buffer —
  no serialization of the label matrices in either direction.  One status
  byte per slot hands ownership back and forth: the worker publishes a slot
  by setting it, the parent frees it after consuming.
* **Flat blobs** (fallback): the label set joined group-major into one
  ``bytes`` plus one offsets ``bytes``, shipped through the pool's normal
  pickle channel.  Used when shared memory is unavailable (``REPRO_NO_SHM``,
  platform failure, or a batch larger than the ring slots were sized for).
  Byte-identical label sets either way — only the transport differs.

Security note: worker processes hold the label and permute PRF keys — the
pool extends the proxy's trust boundary to its own child processes, nothing
further.  Payload values, AEAD work, and access counters never leave the
parent; workers see only ``(key, counter)`` pairs, which the untrusted
server sees anyway (the key in PRF-encoded form).  Shared-memory segments
carry labels only, and live under the same boundary.

``fork`` is preferred where available (no re-import cost per worker);
``spawn`` is the fallback and works identically because all worker state is
rebuilt from the initializer arguments.

Failures surface as :class:`~repro.errors.CryptoPoolError` — a dead worker,
a malformed result, or a timed-out retrieval never leaks a bare
:mod:`multiprocessing` traceback to callers.  :meth:`ProcessCryptoPool.close`
drains gracefully: in-flight derivations finish (``close`` + ``join``) and
``terminate`` is reserved for workers that outlive the drain timeout.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

from repro.crypto.labels import LabelCodec
from repro.crypto.prf import Prf
from repro.errors import ConfigurationError, CryptoPoolError, OrtoaError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

_log = get_logger("lbl.procpool")

#: Environment variable pinning the blob fallback: set to any non-empty
#: value to disable shared memory.
NO_SHM_ENV = "REPRO_NO_SHM"

#: How long a worker waits for a free ring slot before giving up — only
#: reachable when the parent stops consuming results it asked for.
_SLOT_WAIT_SECONDS = 5.0

#: ``(old_labels, old_offsets, new_labels, new_offsets)`` in the nested-list
#: shape :meth:`~repro.core.lbl.proxy.LblProxy.prepare` accepts as
#: ``label_sets``.
LabelSets = "tuple[list[list[bytes]], list[int] | None, list[list[bytes]], list[int] | None]"


def shm_available() -> bool:
    """Whether the shared-memory result path is allowed in this process."""
    if os.environ.get(NO_SHM_ENV):
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib module
        return False
    return True


# Per-worker-process state, built once by _init_worker.
_WORKER_CODEC: LabelCodec | None = None
_WORKER_RING: "_WorkerRing | None" = None


class _WorkerRing:
    """Worker-side view of this worker's shared-memory result ring."""

    __slots__ = ("segment", "index", "slots", "slot_bytes", "next_slot")

    def __init__(self, segment, index: int, slots: int, slot_bytes: int) -> None:
        self.segment = segment
        self.index = index
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.next_slot = 0

    def write(self, payload: bytes) -> int:
        """Publish ``payload`` into a free slot; returns the slot index."""
        buf = self.segment.buf
        deadline = time.monotonic() + _SLOT_WAIT_SECONDS
        while True:
            for probe in range(self.slots):
                slot = (self.next_slot + probe) % self.slots
                if buf[slot] == 0:
                    base = self.slots + slot * self.slot_bytes
                    buf[base : base + len(payload)] = payload
                    buf[slot] = 1
                    self.next_slot = (slot + 1) % self.slots
                    return slot
            if time.monotonic() > deadline:  # pragma: no cover - parent bug
                raise CryptoPoolError(
                    "no free shared-memory result slot: the parent stopped "
                    "consuming derivations it requested"
                )
            time.sleep(0.0002)


class _ShmRings:
    """Parent-side owner of one shared-memory ring per worker.

    Segment layout: ``slots`` status bytes (0 = free, 1 = published) followed
    by ``slots`` payload areas of ``slot_bytes`` each.
    """

    def __init__(self, workers: int, slots: int, slot_bytes: int) -> None:
        from multiprocessing import shared_memory

        self.slots = slots
        self.slot_bytes = slot_bytes
        self.segments = []
        try:
            for _ in range(workers):
                segment = shared_memory.SharedMemory(
                    create=True, size=slots + slots * slot_bytes
                )
                segment.buf[:slots] = b"\x00" * slots
                self.segments.append(segment)
        except Exception:
            self.close()
            raise

    @property
    def names(self) -> list[str]:
        return [segment.name for segment in self.segments]

    def read(self, index: int, slot: int, nbytes: int) -> bytes:
        """Copy a published payload out and hand the slot back to its worker."""
        if not 0 <= index < len(self.segments) or not 0 <= slot < self.slots:
            raise CryptoPoolError(
                f"worker returned an out-of-range shm descriptor "
                f"(segment {index}, slot {slot})"
            )
        segment = self.segments[index]
        base = self.slots + slot * self.slot_bytes
        payload = bytes(segment.buf[base : base + nbytes])
        segment.buf[slot] = 0
        return payload

    def close(self) -> None:
        for segment in self.segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        self.segments = []


def _init_worker(
    label_key: bytes,
    label_out: int,
    permute_key: bytes,
    permute_out: int,
    value_len: int,
    group_bits: int,
    shm_names: "list[str] | None" = None,
    claim_counter=None,
    ring_slots: int = 0,
    slot_bytes: int = 0,
) -> None:
    """Rebuild the label codec (and claim a result ring) inside a worker.

    ``Prf`` objects carry live ``hashlib`` states and cannot be pickled, so
    the pool ships the raw key material instead and reconstructs equivalent
    PRFs here.  Each worker additionally claims one shared-memory segment —
    persistent affinity, so a worker always publishes into its own ring.
    Runs once per worker, at pool start.
    """
    global _WORKER_CODEC, _WORKER_RING
    _WORKER_CODEC = LabelCodec(
        Prf(label_key, out_bytes=label_out),
        Prf(permute_key, out_bytes=permute_out),
        value_len=value_len,
        group_bits=group_bits,
    )
    _WORKER_RING = None
    if shm_names and claim_counter is not None:
        with claim_counter.get_lock():
            index = claim_counter.value
            claim_counter.value += 1
        # A replacement worker spawned after a death can overrun the segment
        # list; it simply falls back to blob results.
        if index < len(shm_names):
            try:
                from multiprocessing import shared_memory

                # Attaching re-registers the segment with the (shared)
                # resource tracker; the tracker cache is a set, so this is a
                # no-op and the parent's ``unlink`` retires the single entry.
                segment = shared_memory.SharedMemory(name=shm_names[index])
                _WORKER_RING = _WorkerRing(segment, index, ring_slots, slot_bytes)
            except Exception:  # pragma: no cover - attach failure → fallback
                _WORKER_RING = None


def _derive_flat(
    task: "tuple[str, int, bool]",
) -> "tuple[bytes, bytes | None, bytes, bytes | None]":
    """Worker body: derive both epochs of one access as flat blobs."""
    key, counter, point_and_permute = task
    codec = _WORKER_CODEC
    if codec is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool used before initialization")
    old_blob = b"".join(
        [label for row in codec.labels_for_groups(key, counter) for label in row]
    )
    new_blob = b"".join(
        [label for row in codec.labels_for_groups(key, counter + 1) for label in row]
    )
    if point_and_permute:
        old_offsets = bytes(codec.permute_offsets(key, counter))
        new_offsets = bytes(codec.permute_offsets(key, counter + 1))
    else:
        old_offsets = new_offsets = None
    return old_blob, old_offsets, new_blob, new_offsets


def _derive_batch_parts(
    tasks: "list[tuple[str, int, bool]]",
) -> tuple[bytes, bytes]:
    """Worker body: derive a whole batch as ``(label_blob, offsets_blob)``.

    Both epochs of every access fuse into a single
    :meth:`~repro.crypto.labels.LabelCodec.labels_for_epochs` call
    (plus one for offsets) — the worker-side half of cross-request
    coalescing.  Blob layout: per access, the old epoch's labels then the
    new epoch's, group-major; offsets likewise, one byte per group.
    """
    codec = _WORKER_CODEC
    if codec is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool used before initialization")
    epochs: list[tuple[str, int]] = []
    for key, counter, _pnp in tasks:
        epochs.append((key, counter))
        epochs.append((key, counter + 1))
    tables = codec.labels_for_epochs(epochs)
    label_blob = b"".join(
        [label for table in tables for row in table for label in row]
    )
    if tasks[0][2]:
        offsets_blob = b"".join(
            [bytes(offsets) for offsets in codec.permute_offsets_for_epochs(epochs)]
        )
    else:
        offsets_blob = b""
    return label_blob, offsets_blob


def _derive_batch_blobs(tasks: "list[tuple[str, int, bool]]"):
    """Batch task on the pickled-blob fallback path."""
    return _derive_batch_parts(tasks)


def _derive_batch_shm(tasks: "list[tuple[str, int, bool]]"):
    """Batch task on the shared-memory path.

    Returns a small ``("shm", segment, slot, labels_len, offsets_len)``
    descriptor; the matrices travel through the ring.  Falls back to the
    blob return shape when this worker has no ring or the batch outgrew the
    slot size the parent provisioned.
    """
    label_blob, offsets_blob = _derive_batch_parts(tasks)
    ring = _WORKER_RING
    if ring is None or len(label_blob) + len(offsets_blob) > ring.slot_bytes:
        return label_blob, offsets_blob
    slot = ring.write(label_blob + offsets_blob)
    return "shm", ring.index, slot, len(label_blob), len(offsets_blob)


class ProcessCryptoPool:
    """Shared pool of worker processes deriving LBL label sets.

    Args:
        keychain: Key material; the label and permute PRF keys are exported
            to the workers (see the module security note).
        value_len: Fixed plaintext length in bytes (``config.value_len``).
        group_bits: ``y`` (``config.group_bits``).
        point_and_permute: Whether tasks must also derive permute offsets.
        workers: Worker process count (>= 1).
        start_method: ``multiprocessing`` start method; default prefers
            ``fork`` when the platform offers it, else ``spawn``.
        use_shm: Carry batch results through shared-memory rings.  ``None``
            (default) auto-detects: on unless :data:`NO_SHM_ENV` is set or
            segment creation fails.  Label sets are byte-identical either
            way.
        ring_slots: Result slots per worker ring.
        max_batch: Largest :meth:`derive_batch` the rings are sized for;
            bigger batches take the blob fallback.
    """

    def __init__(
        self,
        keychain,
        *,
        value_len: int,
        group_bits: int,
        point_and_permute: bool,
        workers: int = 2,
        start_method: str | None = None,
        use_shm: bool | None = None,
        ring_slots: int = 4,
        max_batch: int = 8,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("procpool needs at least 1 worker")
        if group_bits > 8:
            raise ConfigurationError(
                "procpool offset encoding supports group_bits <= 8"
            )
        if ring_slots < 1 or max_batch < 1:
            raise ConfigurationError("ring_slots and max_batch must be >= 1")
        label_prf = keychain.label_prf
        permute_prf = keychain.permute_prf
        self.workers = workers
        self.point_and_permute = point_and_permute
        self.max_batch = max_batch
        self.task_timeout = 60.0
        self._label_len = label_prf.out_bytes
        self._table_size = 1 << group_bits
        self._num_groups = (value_len * 8 + group_bits - 1) // group_bits
        # Parent-side twin of the worker codec, used only for its analytic
        # ``derivation_cost``: the in-PRF ledger meters fire in the worker
        # processes, whose registries die with them, so the parent credits
        # the exact same counts here at submission time.
        self._codec = LabelCodec(
            label_prf, permute_prf, value_len=value_len, group_bits=group_bits
        )
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self.start_method = start_method

        self._shm: _ShmRings | None = None
        claim_counter = None
        if use_shm is None:
            use_shm = shm_available()
        if use_shm:
            per_task = 2 * self._num_groups * self._table_size * self._label_len
            if point_and_permute:
                per_task += 2 * self._num_groups
            try:
                self._shm = _ShmRings(workers, ring_slots, max_batch * per_task)
                claim_counter = ctx.Value("i", 0)
            except Exception as exc:  # pragma: no cover - platform-dependent
                _log.warning(
                    "shared-memory rings unavailable (%s); "
                    "falling back to pickled blobs",
                    exc,
                )
                self._shm = None

        self._pool = ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(
                label_prf.export_key(),
                label_prf.out_bytes,
                permute_prf.export_key(),
                permute_prf.out_bytes,
                value_len,
                group_bits,
                self._shm.names if self._shm is not None else None,
                claim_counter,
                ring_slots,
                self._shm.slot_bytes if self._shm is not None else 0,
            ),
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        if _obs.enabled:
            RECORDER.record(
                "procpool.start",
                workers=workers,
                shm=self._shm is not None,
                start_method=start_method,
            )

    @property
    def shm_enabled(self) -> bool:
        """Whether batch results travel through shared-memory rings."""
        return self._shm is not None

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def _rows_from(self, blob: bytes, base: int) -> "list[list[bytes]]":
        """One epoch's nested label rows sliced out of a flat blob."""
        label_len = self._label_len
        table_size = self._table_size
        end = base + self._num_groups * table_size * label_len
        labels = iter([blob[i : i + label_len] for i in range(base, end, label_len)])
        return [list(row) for row in zip(*([labels] * table_size))]

    def _unflatten(
        self, flat: "tuple[bytes, bytes | None, bytes, bytes | None]"
    ) -> LabelSets:
        """Blob wire format back to the nested shape ``prepare`` consumes."""
        old_blob, old_offsets, new_blob, new_offsets = flat
        expected = self._num_groups * self._table_size * self._label_len
        if len(old_blob) != expected or len(new_blob) != expected:
            raise CryptoPoolError("procpool worker returned malformed label blob")
        return (
            self._rows_from(old_blob, 0),
            list(old_offsets) if old_offsets is not None else None,
            self._rows_from(new_blob, 0),
            list(new_offsets) if new_offsets is not None else None,
        )

    def _split_batch(
        self, label_blob: bytes, offsets_blob: bytes, n: int
    ) -> "list[LabelSets]":
        """Batch blob layout back into one ``LabelSets`` per access."""
        num_groups = self._num_groups
        epoch_bytes = num_groups * self._table_size * self._label_len
        pnp = self.point_and_permute
        if len(label_blob) != 2 * n * epoch_bytes or (
            pnp and len(offsets_blob) != 2 * n * num_groups
        ):
            raise CryptoPoolError("procpool worker returned malformed batch blob")
        out: "list[LabelSets]" = []
        for i in range(n):
            old = self._rows_from(label_blob, (2 * i) * epoch_bytes)
            new = self._rows_from(label_blob, (2 * i + 1) * epoch_bytes)
            if pnp:
                base = 2 * i * num_groups
                old_off = list(offsets_blob[base : base + num_groups])
                new_off = list(offsets_blob[base + num_groups : base + 2 * num_groups])
            else:
                old_off = new_off = None
            out.append((old, old_off, new, new_off))
        return out

    def _credit_derivations(
        self,
        pairs: "list[tuple[str, int]]",
        rows: "list[_ledger.LedgerRow | None] | None",
    ) -> None:
        """Analytic ledger credit for derivations that run out-of-process.

        The worker's in-PRF meters fire in its own registry, which dies with
        it; the parent credits the byte-exact closed form instead — per
        request when ``rows`` is given, so a fused batch still attributes
        every call and compression to the access that caused it.
        """
        pnp = self.point_and_permute
        cost = self._codec.derivation_cost
        for position, (key, counter) in enumerate(pairs):
            old_calls, old_comp = cost(key, counter, offsets=pnp)
            new_calls, new_comp = cost(key, counter + 1, offsets=pnp)
            row = rows[position] if rows is not None else None
            token = _ledger.activate(row) if row is not None else None
            try:
                _ledger.add_prf(old_calls + new_calls, old_comp + new_comp)
            finally:
                if token is not None:
                    _ledger.deactivate(token)

    def derive(self, key: str, counter: int) -> LabelSets:
        """Both epochs' label sets for access ``(key, counter)``, blocking.

        Routed through the shared-memory batch path when available (a batch
        of one), else through the blob path — identical bytes either way.
        """
        if self._shm is not None:
            return self.derive_batch([(key, counter)])[0]
        return self.derive_async(key, counter).get(self.task_timeout)

    def derive_async(self, key: str, counter: int) -> "_PendingLabels":
        """Submit a derivation; the returned handle's ``get()`` blocks."""
        if self._pool is None:
            raise ConfigurationError("procpool is closed")
        if _obs.enabled:
            self._credit_derivations([(key, counter)], None)
        task = (key, counter, self.point_and_permute)
        return _PendingLabels(
            self._pool.apply_async(_derive_flat, (task,)), self._unflatten
        )

    def derive_batch(
        self,
        pairs: "list[tuple[str, int]]",
        rows: "list[_ledger.LedgerRow | None] | None" = None,
    ) -> "list[LabelSets]":
        """Label sets for many accesses in **one** worker dispatch, blocking.

        The whole batch crosses the IPC channel once, the worker fuses every
        epoch into a single derivation call, and the result comes back
        through this worker's shared-memory ring (or one pickled blob on
        the fallback path).  Entry ``i`` is byte-identical to
        ``derive(*pairs[i])``.

        Args:
            pairs: ``(key, counter)`` per access.  Keys must be distinct —
                same-key accesses chain epochs and cannot share a batch.
            rows: Optional per-access ledger rows; each access's derivation
                cost is credited to its own row (see
                :meth:`_credit_derivations`).
        """
        if self._pool is None:
            raise ConfigurationError("procpool is closed")
        if not pairs:
            raise ConfigurationError("derive batch must contain at least one pair")
        if rows is not None and len(rows) != len(pairs):
            raise ConfigurationError(f"{len(pairs)} pairs for {len(rows)} rows")
        if _obs.enabled:
            self._credit_derivations(pairs, rows)
        tasks = [(key, counter, self.point_and_permute) for key, counter in pairs]
        fn = _derive_batch_shm if self._shm is not None else _derive_batch_blobs
        with self._inflight_lock:
            self._inflight += 1
            depth = self._inflight
        if _obs.enabled:
            REGISTRY.gauge("lbl.procpool.queue_depth").set(depth)
        try:
            handle = self._pool.apply_async(fn, (tasks,))
            try:
                result = handle.get(self.task_timeout)
            except OrtoaError:
                raise
            except mp.TimeoutError as exc:
                if _obs.enabled:
                    RECORDER.record(
                        "procpool.worker_fault",
                        cause="timeout",
                        timeout_s=self.task_timeout,
                        batch=len(pairs),
                    )
                    RECORDER.trigger("procpool-worker-fault")
                raise CryptoPoolError(
                    f"batch derivation not retrieved within {self.task_timeout}s "
                    "(worker dead or overloaded)"
                ) from exc
            except Exception as exc:
                if _obs.enabled:
                    RECORDER.record(
                        "procpool.worker_fault",
                        cause=type(exc).__name__,
                        batch=len(pairs),
                    )
                    RECORDER.trigger("procpool-worker-fault")
                raise CryptoPoolError(f"procpool worker failed: {exc}") from exc
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                depth = self._inflight
            if _obs.enabled:
                REGISTRY.gauge("lbl.procpool.queue_depth").set(depth)
        if isinstance(result, tuple) and len(result) == 5 and result[0] == "shm":
            _tag, index, slot, labels_len, offsets_len = result
            payload = self._shm.read(index, slot, labels_len + offsets_len)
            label_blob = payload[:labels_len]
            offsets_blob = payload[labels_len:]
        else:
            label_blob, offsets_blob = result
            if self._shm is not None and _obs.enabled:
                # The worker had a ring but answered with a blob: either its
                # ring attach failed or every slot was busy/undersized — the
                # parent-visible signature of a ring slot stall.
                REGISTRY.counter("lbl.procpool.shm_fallbacks").inc()
                RECORDER.record(
                    "procpool.shm_slot_fallback",
                    batch=len(pairs),
                    blob_bytes=len(label_blob) + len(offsets_blob),
                )
        return self._split_batch(label_blob, offsets_blob, len(pairs))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, timeout: float = 10.0) -> None:
        """Drain and shut the worker processes down (idempotent).

        In-flight derivations finish (``pool.close()`` + ``join()``);
        ``terminate()`` is a last resort for workers that outlive
        ``timeout`` seconds — the pre-drain behavior, now the exception
        instead of the rule.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            if _obs.enabled:
                RECORDER.record("procpool.close", workers=self.workers)
            pool.close()
            joiner = threading.Thread(target=pool.join, daemon=True)
            joiner.start()
            joiner.join(timeout)
            if joiner.is_alive():  # pragma: no cover - stuck-worker escape
                pool.terminate()
                pool.join()
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()

    def __enter__(self) -> "ProcessCryptoPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _PendingLabels:
    """Handle for an in-flight derivation; ``get()`` re-slices the blobs."""

    __slots__ = ("_result", "_unflatten")

    def __init__(self, result, unflatten) -> None:
        self._result = result
        self._unflatten = unflatten

    def get(self, timeout: float | None = None) -> LabelSets:
        try:
            flat = self._result.get(timeout)
        except OrtoaError:
            raise
        except mp.TimeoutError as exc:
            raise CryptoPoolError(
                f"derivation not retrieved within {timeout}s "
                "(worker dead or overloaded)"
            ) from exc
        except Exception as exc:
            raise CryptoPoolError(f"procpool worker failed: {exc}") from exc
        return self._unflatten(flat)


__all__ = ["ProcessCryptoPool", "NO_SHM_ENV", "shm_available"]
