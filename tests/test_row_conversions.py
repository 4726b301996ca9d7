"""The bytes↔int conversions of the row kernel are weighed, not guessed.

Every XOR in :mod:`repro.crypto.rows` and in the proxy's row inputs is
big-integer XOR, and every conversion on the way in and out goes through
one pair of helpers, :func:`repro.crypto.rows.to_int` and
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

N, GROUPS, HEAD, PLANE = 2560, 640, 4, 2560 * 16


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


def _sealed():
    keys, labels_run, slots = os.urandom(16 * N), os.urandom(16 * N), os.urandom(N)
    nonce = os.urandom(rows.ROW_NONCE_LEN)
    return keys, labels_run, slots, nonce, rows.seal_rows(keys, labels_run, slots, nonce, HEAD)


def test_a_paper_point_seal_converts_256_kb(converted):
    """π's seed plane and the nonce run in and its tweaked input out, the
    label plane of π's output, the labels and the result: six 40,960-byte
    conversions; and the slot and check columns together, three in and one
    out."""
    keys, labels_run, slots, nonce, _slab = _sealed()
    converted.clear()
    rows.seal_rows(keys, labels_run, slots, nonce, HEAD)
    assert sum(converted) == 6 * PLANE + 4 * (N + 4 * 15) == 256_240
    assert max(converted) == PLANE


def test_a_640_pick_open_converts_64_kb(converted):
    """The same conversions over the 640 picked rows, one of them checked."""
    keys, _labels, _slots, nonce, slab = _sealed()
    picks = [i * 4 + i % 4 for i in range(GROUPS)]
    picked = b"".join(keys[p * 16 : (p + 1) * 16] for p in picks)
    converted.clear()
    (opened,) = rows.open_rows([(nonce, picked, slab, 17, HEAD, picks)])
    assert opened is not None
    assert sum(converted) == 6 * GROUPS * 16 + 4 * (GROUPS + 15) == 64_060


def test_the_row_inputs_convert_2_kb(converted):
    """Per access, before the seal: one XOR of per-group offsets.  The
    per-row slots are one ``translate`` per slot and the labels' positions
    one per column, so neither converts."""
    config = StoreConfig(value_len=160, group_bits=2)
    proxy = LblProxy(config, KeyChain(b"\x0c" * 32))
    old, new = proxy.codec.epochs("k", 0, 1)
    for new_value in (None, bytes(GROUPS)):
        converted.clear()
        proxy._row_inputs(old, new, new_value)
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
