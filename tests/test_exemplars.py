"""``repro trace --exemplars N``: the slowest requests as a view of the spans.

The view sorts the merged span list's ``sharded.access`` roots by duration,
so it is exact over the whole run: the trees it prints are the N longest
roots, slowest first, each with its request's bytes, its prepare and the
shard's span nested under it.
"""

import re

import pytest

from repro import obs
from repro.cli import main

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def test_exemplars_view_prints_the_slowest_roots_with_server_spans_nested(capsys):
    assert main(["trace", "--shards", "2", "--keys", "24", "--exemplars", "3"]) == 0
    out = capsys.readouterr().out
    # In-process shards share this process's tracer: its spans are the run's.
    roots = sorted(
        (
            span
            for span in obs.TRACER.export()
            if span["parent_id"] is None and span["name"] == "sharded.access"
        ),
        key=lambda span: -span["duration"],
    )
    assert len(roots) == 24
    view = out.split("3 slowest sharded.access root(s), slowest first:\n", 1)[1]
    blocks = re.split(r"^#\d+  trace ", view, flags=re.M)[1:]
    assert [int(block.split("\n", 1)[0]) for block in blocks] == [
        root["trace_id"] for root in roots[:3]
    ]
    shown = []
    for block, root in zip(blocks, roots):
        lines = block.splitlines()[1:]
        assert lines[0] == f"  {root['attributes']['request_bytes']} request bytes"
        (access,) = [line for line in lines if "sharded.access" in line]
        (prepare,) = [line for line in lines if "lbl.proxy.prepare" in line]
        (request,) = [line for line in lines if "transport.server.request" in line]
        assert _indent(access) < _indent(prepare) == _indent(request)
        shown.append(float(access.split()[1]))
    assert shown == sorted(shown, reverse=True)
    assert shown[-1] >= round(roots[3]["duration"] * 1e3, 2)
