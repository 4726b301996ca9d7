"""Supporting microbenchmarks: the primitive costs that calibrate the DES.

These are true pytest-benchmark timings of this library's primitives (the
``CostModel.measured`` path); they also document how far pure-Python crypto
sits from the paper's C++/AES-NI testbed, which is why figure reproduction
uses ``CostModel.paper_like`` constants instead.
"""

from repro.core.lbl import LblOrtoa
from repro.crypto import aead, rows
from repro.crypto.fhe import FheParams, FheScheme
from repro.crypto.labels import LabelCodec
from repro.crypto.prf import Prf, encode_components, keyed_xof
from repro.types import Request, StoreConfig

KEY = b"k" * 16

#: One paper-default access worth of labels: 160 B values, y=2 -> 640 groups
#: of 4 candidates each.
_BATCH = 640 * 4


def test_prf_label_derivation(benchmark):
    prf = Prf(b"m" * 32, out_bytes=16)
    label = benchmark(prf.evaluate, "label", "key", 3, 1, 42)
    assert len(label) == 16


def test_prf_context_tails(benchmark):
    """Pre-encoded tails through a shared context (what ``bench/`` times as
    the per-call cost of the HMAC PRF)."""
    prf = Prf(b"m" * 32, out_bytes=16)
    ctx = prf.context("label", "key")
    tails = [
        encode_components(i % 640, i % 4, 42) for i in range(_BATCH)
    ]
    labels = benchmark(ctx.evaluate_tails, tails)
    assert len(labels) == _BATCH


def _paper_codec() -> LabelCodec:
    return LabelCodec(keyed_xof(b"m" * 32), b"b" * 16, label_len=16, value_len=160, group_bits=2)


def test_label_epoch(benchmark):
    """A prepare's label derivation at the paper's 160 B / y=2 point: two
    epochs (an XOF squeeze each, one AES call for both offset runs), then
    the row stream — row keys and carried labels — in one AES call."""
    codec = _paper_codec()
    next_slots = bytes(range(4)) * 640
    tweaks = rows.tweaks(b"n" * 16, 2)

    def derive():
        old, new = codec.epochs("key", 7, 8)
        return codec.table_stream(old[0], new[0], next_slots, tweaks)

    stream = benchmark(derive)
    assert len(stream) == (640 * 4 + 4) * rows.TRIPLE


def test_row_seal_2560_rows(benchmark):
    """The proxy's seal of one paper-point table in steady state: the two
    CBC passes over 2,564 triples and the gather of their third lanes."""
    codec = _paper_codec()
    old, new = codec.epochs("key", 7, 8)
    stream = codec.table_stream(old[0], new[0], bytes(range(4)) * 640, rows.tweaks(b"n" * 16, 2))
    slab = benchmark(rows.seal, stream, 16, 4)
    assert len(slab) == 640 * 4 * 16 + 4 * rows.CHECK_LEN


def test_row_open_640_picks(benchmark):
    """The server's open of one paper-point request in steady state: the
    select of 640 of 2,560 rows by the stored labels' slot bits, the stream,
    two CBC passes and the check."""
    codec = _paper_codec()
    old, new = codec.epochs("key", 7, 8)
    nonce = b"n" * 16
    stream = codec.table_stream(old[0], new[0], bytes(range(4)) * 640, rows.tweaks(nonce, 2))
    slab = rows.seal(stream, 16, 4)
    stored = codec.record(old, [g % 4 for g in range(640)])
    (opened,) = benchmark(rows.open_rows, [(nonce, stored, slab, 16, 4)])
    assert opened is not None and len(opened) == 640 * 16


def test_aead_encrypt_label(benchmark):
    ct = benchmark(aead.encrypt, KEY, b"l" * 16)
    assert len(ct) == aead.ciphertext_len(16)


def test_aead_encrypt_many(benchmark):
    """Batched AEAD: one access worth of table entries per call."""
    keys = [bytes([i % 256]) * 16 for i in range(_BATCH)]
    payloads = [b"l" * 16] * _BATCH
    cts = benchmark(aead.encrypt_many, keys, payloads)
    assert len(cts) == _BATCH and len(cts[0]) == aead.ciphertext_len(16)


def test_aead_decrypt_label(benchmark):
    ct = aead.encrypt(KEY, b"l" * 16)
    assert benchmark(aead.decrypt, KEY, ct) == b"l" * 16


def test_aead_failed_decrypt(benchmark):
    """A wasted trial decryption (the §5.2 base protocol's server step)."""
    ct = aead.encrypt(KEY, b"l" * 16)
    assert benchmark(aead.try_decrypt, b"w" * 16, ct) is None


def test_lbl_full_access_160b(benchmark):
    """One complete functional LBL access at the paper's 160 B value size."""
    config = StoreConfig(value_len=160, group_bits=2)
    protocol = LblOrtoa(config)
    protocol.initialize({"k": bytes(160)})
    transcript = benchmark(protocol.access, Request.read("k"))
    assert transcript.num_rounds == 1


def test_lbl_full_access_160b_cached(benchmark):
    """The same access with a warm label cache (steady-state hot key)."""
    config = StoreConfig(value_len=160, group_bits=2, label_cache_entries=-1)
    protocol = LblOrtoa(config)
    protocol.initialize({"k": bytes(160)})
    protocol.access(Request.read("k"))  # populate the cache
    transcript = benchmark(protocol.access, Request.read("k"))
    assert transcript.num_rounds == 1


def test_fhe_multiply(benchmark):
    """The operation whose noise growth kills FHE-ORTOA (§3.3)."""
    scheme = FheScheme(FheParams(n=64, q_bits=120))
    ct = scheme.encrypt_bytes(bytes(60))
    selector = scheme.encrypt_scalar(1)
    result = benchmark(FheScheme.multiply, ct, selector)
    assert result.size == 3
