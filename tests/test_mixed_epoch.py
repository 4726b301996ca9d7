"""No refusal, rollback or WAL recovery leaves a record of two epochs.

Only group 0's rows carry a check block: a server refuses a wrong key for the
whole record — a stale epoch, a wrong nonce, a request one epoch ahead — by
group 0 alone, before it commits any group.  Each case drives one such fault
through a whole in-process deployment with a write-ahead log (proxy, link,
dispatcher, server, store), seeded.  After the fault every key's stored
record is byte-identical to what it was or decodes under exactly one epoch,
and once the deployment has healed every record decodes under its key's
counter — labels, which name their slots, matched against the epochs of
the row-at-a-time reference, group by group.
"""

import dataclasses
import random

import pytest

from repro.core.sharded import ShardedLblDeployment
from repro.crypto import rows
from repro.crypto.keys import KeyChain
from repro.errors import BatchPartialFailure, RefusedError
from repro.transport.pipeline import LocalLink
from repro.types import Request, StoreConfig
from tests import lbl_reference

CONFIG = StoreConfig(value_len=8, group_bits=2)
KEYS = ("a", "b", "c", "d")
LABEL_LEN = CONFIG.label_bits // 8


def _epochs(keychain: KeyChain, key: str, record, horizon: int) -> "list[set[int]]":
    """Per group, the epochs up to ``horizon`` that hold the stored label —
    which names its slot — as one of that group's candidates."""
    found: "list[set[int]]" = [set() for _ in range(CONFIG.num_groups)]
    for epoch in range(horizon + 1):
        labels, offsets = lbl_reference.epoch(keychain, CONFIG, key, epoch)
        for group, epochs in enumerate(found):
            stored = record[group * LABEL_LEN : (group + 1) * LABEL_LEN]
            if stored in labels[group]:
                value = labels[group].index(stored)
                assert stored[15] % 4 == value ^ offsets[group]
                epochs.add(epoch)
    return found


class _Stack:
    """A seeded deployment over one in-process shard, with its WAL."""

    def __init__(self, tmp_path, seed: int) -> None:
        self.rng = random.Random(seed)
        self.keychain = KeyChain(bytes([seed]) * 32)
        self.wal_path = tmp_path / "proxy.wal"
        self.values = {key: self.rng.randbytes(CONFIG.value_len) for key in KEYS}
        link = LocalLink()
        self.server = link.dispatcher.lbl
        self.dep = ShardedLblDeployment(
            CONFIG, [link], keychain=self.keychain, wal_path=self.wal_path
        )
        self.dep.initialize(dict(self.values))
        for _ in range(8):  # a history, so keys sit at different epochs
            key = self.rng.choice(KEYS)
            if self.rng.random() < 0.5:
                self.values[key] = self.rng.randbytes(CONFIG.value_len)
                self.dep.write(key, self.values[key])
            else:
                assert self.dep.read(key) == self.values[key]

    def records(self) -> dict:
        return {key: self.server.store.get(self.dep.encoded_key(key)) for key in KEYS}

    def assert_whole(self, before: dict) -> None:
        """Every record is as it was, or one epoch's, group for group."""
        horizon = max(self.dep.proxy.counters().values()) + 2
        for key, record in self.records().items():
            if record != before[key]:
                groups = _epochs(self.keychain, key, record, horizon)
                assert len(groups[0]) == 1 and all(g == groups[0] for g in groups), key

    def assert_in_step(self) -> None:
        """Every record decodes under exactly its key's counter, to its value."""
        counters = self.dep.proxy.counters()
        for key, record in self.records().items():
            groups = _epochs(self.keychain, key, record, counters[key] + 2)
            assert groups == [{counters[key]}] * CONFIG.num_groups, key
            assert self.dep.read(key) == self.values[key]

    def once(self, mutate, victim: str) -> None:
        """The next request prepared for ``victim`` goes out as ``mutate``
        makes it; every other request, and every later one, as prepared."""
        proxy = self.dep.proxy
        prepare = type(proxy).prepare.__get__(proxy)

        def faulty(request):
            built, ops = prepare(request)
            if request.key != victim:
                return built, ops
            del proxy.prepare
            return mutate(built), ops

        proxy.prepare = faulty


def _flip_nonce(built):
    return dataclasses.replace(built, nonce=bytes([built.nonce[0] ^ 1]) + built.nonce[1:])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "case",
    ["stale_epoch", "wrong_nonce", "flipped_check_byte", "batch_one_refused", "wal_ahead"],
)
def test_no_fault_leaves_a_record_of_two_epochs(tmp_path, case, seed):
    stack = _Stack(tmp_path, seed)
    victim = stack.rng.choice(KEYS)
    before = stack.records()
    if case == "stale_epoch":
        # Replay the request the server applied last: sealed under labels
        # it has since rotated away.
        applied = []
        stack.once(lambda built: applied.append(built) or built, victim)
        assert stack.dep.read(victim) == stack.values[victim]
        before = stack.records()
        stack.once(lambda built: applied[0], victim)
        with pytest.raises(RefusedError):
            stack.dep.read(victim)
        assert stack.records() == before
    elif case in ("wrong_nonce", "flipped_check_byte"):
        def flip_check(built):
            slot = stack.server.store.get(built.encoded_key)[15] % built.table_size
            at = built.num_groups * built.table_size * built.entry_len
            at += slot * rows.CHECK_LEN + stack.rng.randrange(rows.CHECK_LEN)
            slab = bytearray(built.slab)
            slab[at] ^= 1 << stack.rng.randrange(8)
            return dataclasses.replace(built, slab=bytes(slab))

        stack.once(_flip_nonce if case == "wrong_nonce" else flip_check, victim)
        written = stack.rng.randbytes(CONFIG.value_len)
        with pytest.raises(RefusedError):
            stack.dep.write(victim, written)
        assert stack.records() == before
    elif case == "batch_one_refused":
        stack.once(_flip_nonce, victim)
        with pytest.raises(BatchPartialFailure) as excinfo:
            stack.dep.access_batch([Request.read(key) for key in KEYS])
        assert set(excinfo.value.failures) == {KEYS.index(victim)}
        assert stack.records()[victim] == before[victim]
    else:
        # A crash between the log append and the send: the recovered proxy's
        # first request for the victim is one epoch ahead of its record.
        stack.dep.wal.append(victim, stack.dep.proxy.counter(victim) + 1)
        stack.dep = ShardedLblDeployment(
            CONFIG, stack.dep.clients, keychain=stack.keychain, wal_path=stack.wal_path
        )
        assert stack.dep.read(victim) == stack.values[victim]
        assert stack.dep.recovered_resyncs == 1
    stack.assert_whole(before)
    stack.assert_in_step()
