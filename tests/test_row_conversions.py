"""The bytes↔int conversions of the row kernel are weighed, not guessed.

The rows' XORs run inside OpenSSL's CBC passes; what is left as big-integer
XOR — the slot bits a label call sets, the proxy's per-group offsets — goes
through one pair of helpers, :func:`repro.crypto.rows.to_int` and
:func:`repro.crypto.rows.to_bytes`.  This test swaps the pair for counting
wrappers and pins the bytes they convert at the paper point (160 B values,
y = 2: 2,560 rows, 640 groups), so a layout change that adds a 40 KB
conversion shows here before it shows in the benchmark.
"""

import ast
import os
import pathlib

import pytest

from repro.core.lbl.proxy import LblProxy
from repro.crypto import labels, rows
from repro.crypto.keys import KeyChain
from repro.types import StoreConfig

SRC = pathlib.Path(rows.__file__).resolve().parents[1]

N, GROUPS, HEAD = 2560, 640, 4


@pytest.fixture
def converted(monkeypatch):
    """A list that collects the length of every buffer the pair converts."""
    seen: list[int] = []
    to_int, to_bytes = rows.to_int, rows.to_bytes

    def counting_int(data):
        seen.append(len(data))
        return to_int(data)

    def counting_bytes(value, length):
        seen.append(length)
        return to_bytes(value, length)

    for module in (rows, labels):
        monkeypatch.setattr(module, "to_int", counting_int)
        monkeypatch.setattr(module, "to_bytes", counting_bytes)
    return seen


def _proxy():
    proxy = LblProxy(StoreConfig(value_len=160, group_bits=2), KeyChain(b"\x0c" * 32))
    return proxy, *proxy.codec.epochs("k", 0, 1)


def test_a_paper_point_seal_converts_15_kb(converted):
    """The label call sets the slot bits of two byte-15 columns — the new
    labels' (one per row) and the keys' (one per triple, the checks'
    included) — each one XOR, two in and one out; the kernel's passes and
    its gather of the third lanes convert nothing."""
    proxy, old, new = _proxy()
    next_slots = proxy._next_slots(old, new, None)
    converted.clear()
    stream = proxy.codec.table_stream(old[0], new[0], next_slots, rows.tweaks(b"n" * 16, 2))
    rows.seal(stream, 16, HEAD)
    assert sum(converted) == 3 * N + 3 * (N + HEAD) == 15_372
    assert max(converted) == N + HEAD


def test_a_640_pick_open_converts_nothing(converted):
    """The server's open reads its picks off the stored labels by
    ``translate``, copies by strided slices and XORs in OpenSSL: no
    conversion at all."""
    proxy, old, new = _proxy()
    nonce = os.urandom(rows.ROW_NONCE_LEN)
    stream = proxy.codec.table_stream(
        old[0], new[0], proxy._next_slots(old, new, None), rows.tweaks(nonce, 2)
    )
    slab = rows.seal(stream, 16, HEAD)
    stored = proxy.codec.record(old, [i % 4 for i in range(GROUPS)])
    converted.clear()
    (opened,) = rows.open_rows([(nonce, stored, slab, 16, HEAD)])
    assert opened is not None and len(opened) == GROUPS * 16
    assert sum(converted) == 0


def test_the_row_inputs_convert_2_kb(converted):
    """Per access, before the label call: one XOR of per-group offsets.  The
    per-row slots are one ``translate`` per slot, so they do not convert."""
    proxy, old, new = _proxy()
    for new_value in (None, bytes(GROUPS)):
        converted.clear()
        proxy._next_slots(old, new, new_value)
        assert sum(converted) == 3 * GROUPS == 1_920


@pytest.mark.parametrize(
    "path", ["crypto/rows.py", "crypto/labels.py", "core/lbl/proxy.py"]
)
def test_no_conversion_bypasses_the_pair(path):
    """Outside the pair's own bodies, no ``int.from_bytes`` or ``.to_bytes``
    call appears in the kernel, the codec or the proxy."""
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    pair = {"to_int", "to_bytes"}
    bodies = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in pair
    ]
    inside = {id(n) for body in bodies for n in ast.walk(body)}
    calls = [
        ast.unparse(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and id(node) not in inside
        and (node.func.attr == "to_bytes" or ast.unparse(node.func) == "int.from_bytes")
    ]
    assert calls == []
