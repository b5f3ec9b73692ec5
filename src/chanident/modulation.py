"""QPSK framing.

Gray mapping convention: a bit pair (b0, b1) maps to
((1 - 2*b0) + 1j*(1 - 2*b1)) / sqrt(2), so (0, 0) -> (1+1j)/sqrt(2) and
neighbouring constellation points differ in exactly one bit.
"""

from __future__ import annotations

import math

import numpy as np

from .simulate import ComplexSignal


def map_qpsk(bits) -> np.ndarray:
    """Gray-map an even-length 0/1 sequence onto unit-power QPSK symbols."""
    b = np.asarray(bits, dtype=np.int64)
    if b.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0 or 1")
    if len(b) % 2:
        raise ValueError(f"bit count must be even, got {len(b)}")
    i = 1.0 - 2.0 * b[0::2]
    q = 1.0 - 2.0 * b[1::2]
    return (i + 1j * q) / math.sqrt(2.0)


def random_frame(n_symbols: int, seed: int) -> ComplexSignal:
    """A random-QPSK frame, one symbol per sample, known to the receiver."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=2 * n_symbols)
    return ComplexSignal(map_qpsk(bits))
