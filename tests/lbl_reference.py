"""A row-at-a-time reference for LBL-ORTOA requests, written from the paper.

The test oracle for :meth:`repro.core.lbl.proxy.LblProxy.prepare`, built
one table entry at a time from the constructions alone — none of the epoch
views, gathers or plane layout behind ``prepare``:

* **labels** (§5.2, §10.1) — an epoch is one keyed SHAKE-256 output of
  ``G·2^y·L + G`` bytes: label ``v`` of group ``i`` is bytes
  ``[(i·2^y + v)·L, +L)``, offset ``r_i`` is byte ``G·2^y·L + i`` mod ``2^y``;
* **§10.2 rows** — the row at slot ``v ⊕ r_i`` is keyed by old label ``v``
  and carries new label ``t = v`` (GET) or ``t = w_i`` (PUT) and ``t``'s
  next slot ``t ⊕ r'_i``: ``(label ‖ slot ‖ 0^8) ⊕ pad``, pad block ``j``
  ``π(π(x) ⊕ t_j) ⊕ π(x)`` with ``x`` the key's first 16 bytes,
  ``t_j = nonce ⊕ j``, ``π`` AES-128 under a public constant key; the slab
  is every row's label, then every row's 9-byte tail;
* **§5.2 base tables** — old label ``v`` encrypts new label ``t`` under
  :func:`repro.crypto.aead.encrypt`, and each table is shuffled;
* **groups** (§10.1) — a value's big-endian bit string cut into ``y``-bit
  groups, the last zero-filled, by one integer shifted per group
  (:func:`value_to_groups`, :func:`groups_to_value`);
* **read-back** (§5.4) — each returned label found in its own group's window
  of the epoch, at candidate boundaries only (:func:`decode`).
"""

from __future__ import annotations

import random
import secrets

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.core.messages import LblAccessRequest
from repro.crypto import aead
from repro.crypto.prf import encode_components
from repro.errors import TamperDetectedError

#: π's key: the first 128 fractional bits of π (0x243F6A88…).
PI_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")
CHECK_LEN, NONCE_LEN = 8, 16


def _pi(block: bytes) -> bytes:
    """AES-128 under the public constant key, from a bare context."""
    encryptor = Cipher(algorithms.AES(PI_KEY), modes.ECB()).encryptor()
    return encryptor.update(block) + encryptor.finalize()


def xor(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, to the shorter operand."""
    return bytes(p ^ q for p, q in zip(a, b))


def seal_row(key: bytes, payload: bytes, nonce: bytes) -> bytes:
    """One §10.2 row: ``(payload ‖ 0^8) ⊕ pad`` under ``key`` and ``nonce``."""
    plain = payload + bytes(CHECK_LEN)
    hidden = _pi(key[:16])
    pad = b""
    for j in range(-(-len(plain) // 16)):
        tweak = (int.from_bytes(nonce, "big") ^ j).to_bytes(16, "big")
        pad += xor(_pi(xor(hidden, tweak)), hidden)
    return xor(plain, pad)


def slab(rows: "list[bytes]") -> bytes:
    """Rows as they travel: every label, then every slot byte and check bytes."""
    tail = 1 + CHECK_LEN
    return b"".join(row[:-tail] for row in rows) + b"".join(row[-tail:] for row in rows)


def value_to_groups(value: bytes, group_bits: int) -> "list[int]":
    """``value`` as big-endian ``group_bits``-bit groups, the last one
    zero-padded on the right: one integer, shifted once per group."""
    total_bits = len(value) * 8
    num_groups = -(-total_bits // group_bits)
    padded_bits = num_groups * group_bits
    as_int = int.from_bytes(value, "big") << (padded_bits - total_bits)
    mask = (1 << group_bits) - 1
    return [(as_int >> (padded_bits - (i + 1) * group_bits)) & mask for i in range(num_groups)]


def groups_to_value(groups: "list[int]", group_bits: int, value_len: int) -> bytes:
    """The ``value_len``-byte value ``groups`` spell — :func:`value_to_groups`
    inverted, the pad bits dropped."""
    as_int = 0
    for group in groups:
        as_int = (as_int << group_bits) | group
    return (as_int >> (len(groups) * group_bits - value_len * 8)).to_bytes(value_len, "big")


def decode(blob: bytes, labels: bytes, *, label_len: int, group_bits: int, value_len: int) -> bytes:
    """The value one returned label per group selects in the epoch ``blob``:
    each label is looked up in its own group's ``2^y · label_len`` window, and
    counts only where it starts on a candidate boundary — a match straddling
    two candidates, or none at all, is tampering (§5.4)."""
    window = (1 << group_bits) * label_len
    groups = []
    for group, at in enumerate(range(0, len(labels), label_len)):
        label, start = labels[at : at + label_len], group * window
        found = blob.find(label, start, start + window)
        while found >= 0 and (found - start) % label_len:  # straddles two candidates
            found = blob.find(label, found + 1, start + window)
        if found < 0:
            raise TamperDetectedError(f"label at group {group} matches no candidate")
        groups.append((found - start) // label_len)
    return groups_to_value(groups, group_bits, value_len)


def epoch(keychain, config, key: str, counter: int):
    """``(labels, offsets)`` of ``key`` at ``counter``: ``labels[i][v]`` is
    label ``v`` of group ``i``, ``offsets[i]`` is ``r_i``."""
    groups, size, width = config.num_groups, 1 << config.group_bits, config.label_bits // 8
    xof = keychain.label_xof.copy()
    xof.update(encode_components(groups, size, width) + encode_components(key, counter))
    blob = xof.digest(groups * size * width + groups)
    labels = [
        [blob[(i * size + v) * width :][:width] for v in range(size)] for i in range(groups)
    ]
    return labels, [b % size for b in blob[groups * size * width :]]


def build_request(
    keychain, config, key: str, counter: int, value: bytes | None = None, *, nonce=None, rng=None
) -> LblAccessRequest:
    """The request taking ``key`` from epoch ``counter`` to ``counter + 1``:
    a GET when ``value`` is ``None``, else a PUT of ``value``.  ``nonce``
    defaults to 16 fresh random bytes (§10.2); ``rng`` shuffles base tables."""
    old, old_offsets = epoch(keychain, config, key, counter)
    new, new_offsets = epoch(keychain, config, key, counter + 1)
    size, pnp = 1 << config.group_bits, config.point_and_permute
    written = None if value is None else value_to_groups(config.pad(value), config.group_bits)
    nonce = (secrets.token_bytes(NONCE_LEN) if nonce is None else nonce) if pnp else b""
    rng = rng or random.Random()
    entries = []
    for i in range(config.num_groups):
        table = [b""] * size
        for v in range(size):
            t = v if written is None else written[i]
            if pnp:
                payload = new[i][t] + bytes([t ^ new_offsets[i]])
                table[v ^ old_offsets[i]] = seal_row(old[i][v], payload, nonce)
            else:
                table[v] = aead.encrypt(old[i][v], new[i][t])
        if not pnp:
            rng.shuffle(table)
        entries += table
    body = slab(entries) if pnp else b"".join(entries)
    return LblAccessRequest(keychain.encode_key(key), body, size, len(entries[0]), nonce)


def prepare(proxy, request, **options) -> LblAccessRequest:
    """What ``proxy.prepare(request)[0]`` returns, built by the reference at
    the key's counter; the counter advances as ``prepare`` advances it."""
    counter = proxy.counter(request.key)
    value = request.value if request.op.is_write else None
    built = build_request(proxy.keychain, proxy.config, request.key, counter, value, **options)
    proxy.force_counter(request.key, counter + 1)
    return built
