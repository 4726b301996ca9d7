"""Proxy fault tolerance for LBL-ORTOA: a write-ahead counter log.

The paper (§5.5) notes that the stateful proxy "poses a fault tolerance
challenge since it stores information necessary to execute the protocol"
and leaves the mechanism to future work.  The state in question is tiny —
one access counter per key — which makes classic write-ahead logging a
perfect fit:

* **Log before send** — before a prepared request leaves the proxy, the
  key's new counter epoch is appended (and flushed) to the WAL.
* **Recover by replay** — a restarted proxy rebuilds its counter table from
  the latest snapshot plus the log suffix.
* **Resolve the uncertainty window** — a crash can land *between* the WAL
  append and the server applying the message, leaving the logged counter
  one epoch ahead of the server's labels.  The window is exactly one epoch
  wide (logging is synchronous), so the deployment resolves it lazily: if
  an access to a key is refused at the logged epoch, it rolls that key
  back one epoch further and retries once — one extra round trip, only for
  keys that were mid-flight at crash time.

:class:`CounterWal` is the log.  A
:class:`~repro.core.sharded.ShardedLblDeployment` built with ``wal_path=``
keeps its counters in it on every path and over every link; built again
over the surviving shards, it replays the log (recovery).  A refused
request's rollback is not logged — the resync covers it.

Assumed failure model: crash-stop with in-flight messages lost (a dying
proxy's TCP connections die with it); Byzantine servers are §5.4's topic.
"""

from __future__ import annotations

import os
import pathlib
import struct

_RECORD_HEADER = struct.Struct(">IQ")  # key length, counter value


class CounterWal:
    """Append-only durable log of per-key counter epochs, with snapshots.

    Record format: ``[u32 key_len][key utf-8][u64 counter]``.  A snapshot
    file (same prefix, ``.snap``) holds a compacted full table; recovery is
    snapshot ∪ log-suffix with last-writer-wins per key.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.snapshot_path = self.path.with_suffix(self.path.suffix + ".snap")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.path, "ab")

    def close(self) -> None:
        """Close the underlying log file handle."""
        self._log.close()

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append(self, key: str, counter: int) -> None:
        """Durably record that ``key`` is moving to epoch ``counter``."""
        encoded = key.encode("utf-8")
        # One write per record: a buffered file serializes whole writes, so
        # records appended from several threads never interleave.
        self._log.write(_RECORD_HEADER.pack(len(encoded), counter) + encoded)
        self._log.flush()
        os.fsync(self._log.fileno())

    def checkpoint(self, counters: dict[str, int]) -> None:
        """Write a snapshot and truncate the log (atomic via rename)."""
        tmp = self.snapshot_path.with_suffix(".tmp")
        with open(tmp, "wb") as snapshot:
            for key, counter in counters.items():
                encoded = key.encode("utf-8")
                snapshot.write(_RECORD_HEADER.pack(len(encoded), counter))
                snapshot.write(encoded)
            snapshot.flush()
            os.fsync(snapshot.fileno())
        tmp.replace(self.snapshot_path)
        self._log.close()
        self._log = open(self.path, "wb")
        self._log.flush()

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    @staticmethod
    def _read_records(path: pathlib.Path) -> dict[str, int]:
        counters: dict[str, int] = {}
        if not path.exists():
            return counters
        data = path.read_bytes()
        pos = 0
        while pos + _RECORD_HEADER.size <= len(data):
            key_len, counter = _RECORD_HEADER.unpack_from(data, pos)
            pos += _RECORD_HEADER.size
            if pos + key_len > len(data):
                break  # torn tail record from a mid-write crash: discard
            key = data[pos:pos + key_len].decode("utf-8")
            pos += key_len
            counters[key] = counter
        return counters

    def replay(self) -> dict[str, int]:
        """Rebuild the counter table: snapshot, then the log suffix."""
        counters = self._read_records(self.snapshot_path)
        counters.update(self._read_records(self.path))
        return counters


__all__ = ["CounterWal"]
