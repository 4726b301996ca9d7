"""The declared metric vocabulary: ``BENCHMARK.json`` is the single source."""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Metrics that are counts, not timings: the same seed and window length
#: must reproduce them bit for bit.
EXACT = (
    "wire_bytes_per_op",
    "proxy.prf_per_op",
    "proxy.aead_enc_per_op",
    "cache.hit_rate",
    "cache.evictions_per_op",
    "cache.entries",
    "messages.request_bytes",
    "messages.reply_bytes",
    "server.aead_dec_per_op",
    "server.failed_dec_per_op",
    "server.kv_ops_per_op",
    "storage.gets_per_op",
    "storage.puts_per_op",
    "storage.stored_bytes_per_user_byte",
)


def declared() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def check_names(metrics: dict[str, tuple[float, str]], section: str) -> None:
    """Raise unless ``metrics`` has exactly the names and units ``section`` declares."""
    wanted = {entry["name"]: entry["unit"] for entry in declared()[section]}
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(wanted) & set(got) if wanted[n] != got[n])
        raise AssertionError(
            f"{section} metrics disagree with BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}, unit mismatch {units}"
        )
