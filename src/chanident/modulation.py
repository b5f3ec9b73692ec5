"""QPSK framing.

Gray mapping convention: a bit pair (b0, b1) maps to
((1 - 2*b0) + 1j*(1 - 2*b1)) / sqrt(2), so (0, 0) -> (1+1j)/sqrt(2) and
neighbouring constellation points differ in exactly one bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simulate import ComplexSignal


@dataclass(frozen=True)
class QpskFrame:
    """A modulated frame, known to the receiver at every sample."""

    signal: ComplexSignal

    @property
    def symbols(self) -> np.ndarray:
        return self.signal.samples


@dataclass(frozen=True)
class PilotPattern:
    """Knowledge available to an estimator: the transmitted frame and the
    received-sample indices used as observation equations."""

    symbols: np.ndarray
    positions: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        symbols = np.array(self.symbols, dtype=np.complex128, copy=True)
        symbols.flags.writeable = False
        positions = self.positions
        if positions is None:
            positions = np.arange(len(symbols))
        positions = np.array(positions, dtype=np.intp, copy=True)
        if positions.ndim != 1:
            raise ValueError("positions must be one-dimensional")
        if len(positions) and (positions.min() < 0 or positions.max() >= len(symbols)):
            raise ValueError("positions must index into the frame")
        positions.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "positions", positions)

    @staticmethod
    def full(symbols: np.ndarray) -> "PilotPattern":
        """Fully known probe frame: every sample is an observation."""
        return PilotPattern(symbols)


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


def random_frame(n_symbols: int, seed: int, sample_period_s: float = 1e-5) -> QpskFrame:
    """A fully known random-QPSK probe frame (all positions usable as pilots)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=2 * n_symbols)
    return QpskFrame(ComplexSignal(map_qpsk(bits), sample_period_s))
