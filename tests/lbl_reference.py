"""A row-at-a-time reference for LBL-ORTOA requests, written from the paper.

The test oracle for :meth:`repro.core.lbl.proxy.LblProxy.prepare`, the
server's open and ``finalize``, built one table entry and one block at a
time from the constructions alone — none of the streams, strided slices or
passes behind them — and the only home of the §5.2 base protocol, which the
program does not serve:

* **labels** (§5.2, §10.1) — an epoch's whitening ``W`` is the 16 bytes the
  keyed SHAKE-256 squeezes for ``(shape, key, ct)``; every block is
  ``AES_{K_L}(W ⊕ ⟨domain, index, slot, part⟩)`` under the key chain's
  label-block key, the encoding one domain byte (0 labels, 1 offsets), the
  index as four big-endian bytes, one slot byte, one part byte and nine
  zeros, derived here one block at a time: offset ``r_i`` is byte ``i mod
  16`` of offset block ``⌊i/16⌋`` mod ``2^y``, entry ``(i, t)`` is the first
  ``L`` bytes of its label blocks ``part = 0, 1, …`` with the low ``y`` bits
  of its byte 15 set to ``t``, and label ``v`` of group ``i`` is entry
  ``(i, v ⊕ r_i)`` — slot order;
* **§10.2 rows** — the row at slot ``v ⊕ r_i`` is keyed by old label ``v``
  and carries new label ``t = v`` (GET) or ``t = w_i`` (PUT), which names
  its next slot ``t ⊕ r'_i`` itself: ``label ⊕ (p_0 ‖ p_1 ‖ …)[:L]``, pad
  block ``p_j = π⁻¹(x ⊕ N_j) ⊕ π⁻¹(x)`` with ``x`` the key's first 16
  bytes, ``N_j = π⁻¹(nonce ⊕ j)``, ``π`` AES-128 under a public constant key;
  group 0's rows also carry the check block ``p_b`` (``b = ⌈L/16⌉``), the
  pad of 16 zero bytes; the slab is every row, then group 0's checks;
* **the server's open** — per group the row at the slot in the low bits of
  its stored label, opened under that label, group 0's check block required
  to open to zeros (:func:`open_request`);
* **§5.2 base tables** — old label ``v`` encrypts new label ``t`` under
  :func:`repro.crypto.aead.encrypt`, and each table is shuffled; the server
  step 2.1 is a trial :func:`repro.crypto.aead.try_decrypt` of each entry
  in order until one opens (:func:`open_base`);
* **groups** (§10.1) — a value's big-endian bit string cut into ``y``-bit
  groups, the last zero-filled, by one integer shifted per group
  (:func:`value_to_groups`, :func:`groups_to_value`);
* **reply** — the new record's slots packed at ``y`` bits each, most
  significant first and zero-padded, and SHA-256 of its labels cut to 16
  bytes (:func:`reply`), read back by XOR-ing each slot with ``r'_i`` and
  comparing the digest of the labels those values select (:func:`finalize`);
* **base read-back** (§5.4) — each label a §5.2 server returns found among
  its own group's candidates, whose value it is (:func:`decode`).
"""

from __future__ import annotations

import hashlib
import random
import secrets

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.core.messages import LblAccessRequest
from repro.crypto import aead
from repro.crypto.prf import encode_components
from repro.errors import ProtocolError, TamperDetectedError

#: π's key: the first 128 fractional bits of π (0x243F6A88…).
PI_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")
CHECK_LEN, NONCE_LEN = 16, 16


#: π and π⁻¹: bare ECB contexts of their own, fed one whole block at a time.
_PI = Cipher(algorithms.AES(PI_KEY), modes.ECB())
_PI_CONTEXTS = (_PI.encryptor().update, _PI.decryptor().update)


def _pi(block: bytes, inverse: bool = False) -> bytes:
    """AES-128 (or its inverse) under the public constant key, one block."""
    assert len(block) == 16
    return _PI_CONTEXTS[inverse](block)


def xor(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, to the shorter operand."""
    n = min(len(a), len(b))
    return (int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


def pad_block(key: bytes, nonce: bytes, j: int) -> bytes:
    """Pad block ``j`` under ``key`` and ``nonce``: ``π⁻¹(x ⊕ N_j) ⊕ π⁻¹(x)``,
    ``N_j = π⁻¹(nonce ⊕ j)``."""
    x = key[:16]
    n_j = _pi((int.from_bytes(nonce, "big") ^ j).to_bytes(16, "big"), inverse=True)
    return xor(_pi(xor(x, n_j), inverse=True), _pi(x, inverse=True))


def seal_row(key: bytes, label: bytes, nonce: bytes, head: bool = True) -> bytes:
    """One §10.2 row, ``label ⊕ pad``, under ``key`` and ``nonce``; a head
    row then its check block, the next pad block."""
    blocks = -(-len(label) // 16)
    pad = b"".join(pad_block(key, nonce, j) for j in range(blocks))
    return xor(label, pad) + (pad_block(key, nonce, blocks) if head else b"")


def open_row(key: bytes, row: bytes, nonce: bytes, label_len: int) -> "bytes | None":
    """The label a head row (``label_len`` bytes and a check block) carries
    under ``key`` and ``nonce``, or ``None`` when its check is not zero."""
    if len(row) != label_len + CHECK_LEN:
        return None
    label = xor(row, seal_row(key, bytes(label_len), nonce))
    return label[:label_len] if label[label_len:] == bytes(CHECK_LEN) else None


def slab(rows: "list[bytes]", head: int, label_len: int) -> bytes:
    """``rows``, the first ``head`` of them with check blocks, as they
    travel: every row's label, then the check blocks."""
    checks = b"".join(row[label_len:] for row in rows[:head])
    return b"".join(row[:label_len] for row in rows) + checks


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


def decode(epoch_labels, labels: bytes, *, label_len: int, group_bits: int, value_len: int) -> bytes:
    """The value one returned label per group selects among the candidates
    ``epoch_labels`` (the first of :func:`epoch`'s pair): each label must be
    one of its own group's — another group's label, or none, is tampering
    (§5.4)."""
    groups = []
    for group, at in enumerate(range(0, len(labels), label_len)):
        label = labels[at : at + label_len]
        if label not in epoch_labels[group]:
            raise TamperDetectedError(f"label at group {group} matches no candidate")
        groups.append(epoch_labels[group].index(label))
    return groups_to_value(groups, group_bits, value_len)


def reply(labels: bytes, label_len: int, group_bits: int) -> bytes:
    """The reply frame of a server whose new record is ``labels``:
    ``0x21 ‖ y u16 ‖ slots packed at y bits ‖ SHA-256(labels)[:16]``, each
    slot the low ``y`` bits of its label's byte 15."""
    slots = [labels[at + 15] % (1 << group_bits) for at in range(0, len(labels), label_len)]
    packed = 0
    for slot in slots:
        packed = (packed << group_bits) | slot
    width = -(-len(slots) * group_bits // 8)
    packed <<= width * 8 - len(slots) * group_bits
    header = bytes([0x21]) + group_bits.to_bytes(2, "big")
    return header + packed.to_bytes(width, "big") + hashlib.sha256(labels).digest()[:16]


def finalize(epoch_pair, frame: bytes, *, group_bits: int, value_len: int) -> bytes:
    """The value a reply ``frame`` spells in the new epoch ``epoch_pair`` (a
    :func:`epoch` result), one group at a time: value ``v_i`` is slot ``i``
    XOR ``r'_i``, and the digest must be that of label ``v_i`` of every
    group — else tampering (§5.4)."""
    candidates, offsets = epoch_pair
    groups = -(-value_len * 8 // group_bits)
    width = -(-groups * group_bits // 8)
    if frame[:3] != bytes([0x21]) + group_bits.to_bytes(2, "big") or len(frame) != 3 + width + 16:
        raise TamperDetectedError("reply is not one slot per group and a digest")
    packed = int.from_bytes(frame[3 : 3 + width], "big")
    pad = width * 8 - groups * group_bits
    if packed & ((1 << pad) - 1):
        raise TamperDetectedError("reply sets its pad bits")
    packed >>= pad
    values, labels = [], b""
    for i in range(groups):
        slot = (packed >> (groups - 1 - i) * group_bits) & ((1 << group_bits) - 1)
        values.append(slot ^ offsets[i])
        labels += candidates[i][values[-1]]
    if hashlib.sha256(labels).digest()[:16] != frame[3 + width :]:
        raise TamperDetectedError("reply digest is not that of the labels its slots select")
    return groups_to_value(values, group_bits, value_len)


def whitening(keychain, config, key: str, counter: int) -> bytes:
    """``W`` of ``key`` at ``counter``: 16 bytes of the keyed SHAKE-256 over
    the shape ``(G, 2^y, L)`` and ``(key, counter)``."""
    groups, size, width = config.num_groups, 1 << config.group_bits, config.label_bits // 8
    xof = keychain.label_xof.copy()
    xof.update(encode_components(groups, size, width) + encode_components(key, counter))
    return xof.digest(16)


def _block(aes, w: bytes, domain: int, index: int, slot: int = 0, part: int = 0) -> bytes:
    """``AES_{K_L}(W ⊕ ⟨domain, index, slot, part⟩)``, one block."""
    encoding = bytes([domain]) + index.to_bytes(4, "big") + bytes([slot, part]) + bytes(9)
    return aes.update(xor(w, encoding))


def _label_aes(keychain):
    """A bare ECB context under the key chain's label-block key."""
    return Cipher(algorithms.AES(keychain.label_block_key), modes.ECB()).encryptor()


def _offsets(aes, w: bytes, config) -> "list[int]":
    size = 1 << config.group_bits
    return [_block(aes, w, 1, i // 16)[i % 16] % size for i in range(config.num_groups)]


def _entry(aes, w: bytes, config, group: int, slot: int) -> bytes:
    width, size = config.label_bits // 8, 1 << config.group_bits
    raw = b"".join(_block(aes, w, 0, group, slot, part) for part in range(-(-width // 16)))
    return raw[:15] + bytes([raw[15] - raw[15] % size + slot]) + raw[16:width]


def offsets(keychain, config, key: str, counter: int) -> "list[int]":
    """``r_i`` of every group of ``key`` at ``counter``."""
    return _offsets(_label_aes(keychain), whitening(keychain, config, key, counter), config)


def entry(keychain, config, key: str, counter: int, group: int, slot: int) -> bytes:
    """Entry ``(group, slot)`` of ``key`` at ``counter``: the label of value
    ``slot ⊕ r_group``, naming ``slot`` in the low bits of its byte 15."""
    w = whitening(keychain, config, key, counter)
    return _entry(_label_aes(keychain), w, config, group, slot)


def epoch(keychain, config, key: str, counter: int):
    """``(labels, offsets)`` of ``key`` at ``counter``: ``labels[i][v]`` is
    label ``v`` of group ``i``, ``offsets[i]`` is ``r_i``."""
    w, aes = whitening(keychain, config, key, counter), _label_aes(keychain)
    found = _offsets(aes, w, config)
    labels = [
        [_entry(aes, w, config, i, v ^ found[i]) for v in range(1 << config.group_bits)]
        for i in range(config.num_groups)
    ]
    return labels, found


def record_labels(keychain, config, key: str, counter: int, value: bytes) -> "list[bytes]":
    """The label per group a server holds once epoch ``counter`` stores ``value``."""
    labels, _offsets = epoch(keychain, config, key, counter)
    return [labels[i][v] for i, v in enumerate(value_to_groups(value, config.group_bits))]


def record(keychain, config, key: str, counter: int, value: bytes) -> bytes:
    """The stored record once epoch ``counter`` holds ``value``: its labels
    back to back."""
    return b"".join(record_labels(keychain, config, key, counter, value))


def build_request(
    keychain, config, key: str, counter: int, value: bytes | None = None, *,
    base: bool = False, nonce=None, rng=None,
):
    """The request taking ``key`` from epoch ``counter`` to ``counter + 1``:
    a GET when ``value`` is ``None``, else a PUT of ``value``.

    By default the §10.2 :class:`LblAccessRequest`, its ``nonce`` 16 fresh
    random bytes unless given.  With ``base=True`` the §5.2 tables instead,
    as one list of ``2^y`` AEAD ciphertexts per group, each shuffled by
    ``rng`` (no wire message carries them: the program serves §10.2 only).
    """
    old, old_offsets = epoch(keychain, config, key, counter)
    new, _new_offsets = epoch(keychain, config, key, counter + 1)
    size = 1 << config.group_bits
    written = None if value is None else value_to_groups(config.pad(value), config.group_bits)
    nonce = secrets.token_bytes(NONCE_LEN) if nonce is None else nonce
    rng = rng or random.Random()
    tables = []
    for i in range(config.num_groups):
        table = [b""] * size
        for v in range(size):
            t = v if written is None else written[i]
            if base:
                table[v] = aead.encrypt(old[i][v], new[i][t])
            else:
                table[v ^ old_offsets[i]] = seal_row(old[i][v], new[i][t], nonce, head=i == 0)
        if base:
            rng.shuffle(table)
        tables.append(table)
    if base:
        return tables
    entries = [entry for table in tables for entry in table]
    width = config.label_bits // 8
    built = slab(entries, size, width)
    return LblAccessRequest(keychain.encode_key(key), built, size, width, nonce)


def open_request(stored: bytes, request: LblAccessRequest) -> "bytes | None":
    """§10.2 step 2.1 at a server holding the record ``stored``: per group,
    the row at the slot its label names, opened under that label; ``None``
    when group 0's check block does not open to zeros.  Returns the opened
    labels — the server's next record."""
    width, size = request.entry_len, request.table_size
    rows = len(stored) // width * size
    opened = []
    for group in range(len(stored) // width):
        label = stored[group * width : (group + 1) * width]
        at = group * size + label[15] % size
        row = request.slab[at * width : (at + 1) * width]
        if group == 0:
            check = request.slab[rows * width + (at % size) * CHECK_LEN :][:CHECK_LEN]
            if open_row(label, row + check, request.nonce, width) is None:
                return None
        opened.append(xor(row, seal_row(label, bytes(width), request.nonce, head=False)))
    return b"".join(opened)


def open_base(stored_labels: "list[bytes]", tables: "list[list[bytes]]"):
    """§5.2 step 2.1 at a server holding ``stored_labels``: per group, try
    each entry of its table in order until one authenticates.

    Returns ``(labels, attempts, failures)``: the opened label per group
    (the server's next stored labels, and its reply), and the decryptions
    tried and failed over all groups.

    Raises:
        ProtocolError: a group's stored label opens no entry (a stale or
            corrupt label), named by its group.
    """
    labels, attempts, failures = [], 0, 0
    for group, (label, table) in enumerate(zip(stored_labels, tables)):
        for entry in table:
            attempts += 1
            opened = aead.try_decrypt(label, entry)
            if opened is not None:
                labels.append(opened)
                break
            failures += 1
        else:
            raise ProtocolError(f"no table entry opened at group {group}")
    return labels, attempts, failures


def prepare(proxy, request, **options) -> LblAccessRequest:
    """What ``proxy.prepare(request)[0]`` returns, built by the reference at
    the key's counter; the counter advances as ``prepare`` advances it."""
    counter = proxy.counter(request.key)
    value = request.value if request.op.is_write else None
    built = build_request(proxy.keychain, proxy.config, request.key, counter, value, **options)
    proxy.force_counter(request.key, counter + 1)
    return built
