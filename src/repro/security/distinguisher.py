"""Distinguishers and structural checks for the empirical ROR-RW game.

Two kinds of tooling live here:

* **Structural fingerprints** — deterministic shape summaries (message
  counts and sizes) that must be *identical* across operation types.  Any
  difference is a hard leak, no statistics needed.
* **Statistical adversaries** — simple but representative attacks an
  honest-but-curious server could run over message bytes: byte-histogram
  divergence and size-feature thresholding.  The test suite drives them
  through :class:`~repro.security.games.RorRwGame` and asserts their
  advantage is negligible.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.core.messages import LblAccessRequest
from repro.errors import ProtocolError


def shape_fingerprint(messages: Sequence[bytes]) -> tuple[tuple[int, int], ...]:
    """A deterministic summary of an output sequence: (index, size) pairs.

    Two access sequences of equal length must produce equal fingerprints
    regardless of their operation types — otherwise sizes leak.
    """
    return tuple((i, len(m)) for i, m in enumerate(messages))


def byte_histogram(messages: Sequence[bytes]) -> np.ndarray:
    """Normalized frequency of each byte value over the whole sequence."""
    counts = Counter()
    total = 0
    for message in messages:
        counts.update(message)
        total += len(message)
    hist = np.zeros(256, dtype=float)
    if total == 0:
        return hist
    for value, count in counts.items():
        hist[value] = count / total
    return hist


def byte_histogram_advantage(
    real_outputs: Sequence[Sequence[bytes]],
    ideal_outputs: Sequence[Sequence[bytes]],
) -> float:
    """Total-variation distance between real and ideal byte distributions.

    For ciphertext-only outputs both distributions should be approximately
    uniform, so the distance should shrink toward sampling noise.
    """
    real = byte_histogram([m for out in real_outputs for m in out])
    ideal = byte_histogram([m for out in ideal_outputs for m in out])
    return float(0.5 * np.abs(real - ideal).sum())


def size_advantage(
    real_outputs: Sequence[Sequence[bytes]],
    ideal_outputs: Sequence[Sequence[bytes]],
) -> float:
    """Advantage of the best threshold classifier on total output size.

    Exactly zero when real and ideal outputs always serialize to the same
    number of bytes (the case for a correct implementation).
    """
    real_sizes = sorted(sum(len(m) for m in out) for out in real_outputs)
    ideal_sizes = sorted(sum(len(m) for m in out) for out in ideal_outputs)
    candidates = sorted(set(real_sizes) | set(ideal_sizes))
    best = 0.0
    for threshold in candidates:
        p_real = sum(1 for s in real_sizes if s <= threshold) / len(real_sizes)
        p_ideal = sum(1 for s in ideal_sizes if s <= threshold) / len(ideal_sizes)
        best = max(best, abs(p_real - p_ideal))
    return best


def make_size_adversary(threshold: int):
    """An adversary guessing 'real' when the output exceeds ``threshold``."""

    def adversary(output: Sequence[bytes]) -> bool:
        return sum(len(m) for m in output) > threshold

    return adversary


def make_byte_mean_adversary(cutoff: float = 127.5):
    """An adversary thresholding on the mean byte value of the output."""

    def adversary(output: Sequence[bytes]) -> bool:
        data = b"".join(output)
        if not data:
            return False
        return (sum(data) / len(data)) > cutoff

    return adversary


def make_first_block_adversary():
    """An adversary looking for repeated blocks across the message sequence.

    Catches deterministic-nonce bugs: if re-encryptions repeat, the real
    world shows duplicates while the simulator's random labels don't.  It
    compares the messages' leading 32 bytes and — for every message that
    parses as an LBL request — each entry of its table slab and its request
    nonce, so a row or nonce that ever recurs gives it away.
    """

    def adversary(output: Sequence[bytes]) -> bool:
        blocks = [m[:32] for m in output if len(m) >= 32]
        for message in output:
            try:
                request = LblAccessRequest.from_bytes(message)
            except ProtocolError:
                continue
            blocks += [entry for table in request.tables for entry in table]
            if request.nonce:
                blocks.append(request.nonce)
        return len(set(blocks)) < len(blocks)

    return adversary


def learned_distinguisher_accuracy(
    class_a: Sequence[Sequence[bytes]],
    class_b: Sequence[Sequence[bytes]],
) -> float:
    """Held-out accuracy of a trained linear classifier on output features.

    The strongest generic adversary in this module: featurize each output
    sequence (total size, message count, byte histogram), fit a linear
    least-squares classifier on half the samples, evaluate on the other
    half.  A leak-free pair of distributions yields ≈0.5; any systematic
    feature difference pushes it toward 1.0.

    Args:
        class_a: Labeled output sequences of one class (e.g. real / reads).
        class_b: Labeled output sequences of the other class.
    """
    if len(class_a) < 4 or len(class_b) < 4:
        raise ValueError("need at least 4 samples per class to train and test")

    def featurize(output: Sequence[bytes]) -> np.ndarray:
        sizes = np.array([len(m) for m in output], dtype=float)
        histogram = byte_histogram(output)
        return np.concatenate(
            ([sizes.sum(), sizes.mean(), len(output)], histogram)
        )

    def split(samples):
        features = np.stack([featurize(s) for s in samples])
        half = len(samples) // 2
        return features[:half], features[half:]

    train_a, test_a = split(list(class_a))
    train_b, test_b = split(list(class_b))
    train_x = np.vstack([train_a, train_b])
    train_y = np.concatenate([np.ones(len(train_a)), -np.ones(len(train_b))])
    # Ridge-regularized least squares keeps the fit stable when features
    # are collinear (histograms of uniform ciphertexts nearly are).
    gram = train_x.T @ train_x + 1e-3 * np.eye(train_x.shape[1])
    weights = np.linalg.solve(gram, train_x.T @ train_y)

    correct = int((test_a @ weights > 0).sum()) + int((test_b @ weights <= 0).sum())
    return correct / (len(test_a) + len(test_b))


__all__ = [
    "shape_fingerprint",
    "byte_histogram",
    "byte_histogram_advantage",
    "size_advantage",
    "make_size_adversary",
    "make_byte_mean_adversary",
    "make_first_block_adversary",
    "learned_distinguisher_accuracy",
]
