"""LBL-ORTOA: the label-based one-round protocol (paper §5 and appendix §10).

The package splits the protocol along its trust boundary:

* :class:`~repro.core.lbl.proxy.LblProxy` — trusted; owns the PRF keys and
  per-object access counters, builds the encryption tables, and decodes the
  server's opened labels back to plaintext.
* :class:`~repro.core.lbl.server.LblServer` — untrusted; stores one label
  per group and applies the table it is sent, learning nothing about the
  operation type.
* :class:`LblOrtoa` — the two in one process behind the common
  :class:`~repro.core.base.OrtoaProtocol` interface: a
  :class:`~repro.core.sharded.ShardedLblDeployment` of one shard reached
  through a :class:`~repro.transport.pipeline.LocalLink`, so it runs the
  same access paths, byte for byte, as a deployment over TCP.  (Defined
  there, resolved here on first use: the transport server imports
  :mod:`repro.core.lbl.server`.)

Both optimizations of the appendix are always on: ``group_bits`` in
:class:`~repro.types.StoreConfig` sets §10.1's ``y`` plaintext bits per
label, and the tables are §10.2's point-and-permute rows (the server opens
exactly one per group).  The §5.2 base tables, whose server tries up to
``2^y`` entries per group, live only in ``tests/lbl_reference.py``.
"""

from __future__ import annotations

from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.server import LblServer


def __getattr__(name: str):
    if name != "LblOrtoa":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.core.sharded import LblOrtoa

    globals()[name] = LblOrtoa
    return LblOrtoa


__all__ = ["LblOrtoa", "LblProxy", "LblServer"]
