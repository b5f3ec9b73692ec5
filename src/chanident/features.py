"""Delay-discrete envelope-probability features.

A D-DPDP is a per-delay histogram of the estimated fading envelope on the
fixed grid of MAX_DELAY_UNITS delay units: row d bins |gains| of the tap at
delay unit d over time into 400 equal intervals on [0, 2) (bin width
0.005), with values >= 2 clipped into the last bin so every row keeps unit
mass.  A delay unit with no tap has all its mass in bin 0.  Flattened
row-major, it is the classifier input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import MAX_DELAY_UNITS
from .simulate import CIRMatrix

ENVELOPE_BINS = 400
ENVELOPE_MAX = 2.0
BIN_WIDTH = ENVELOPE_MAX / ENVELOPE_BINS
FEATURE_LENGTH = ENVELOPE_BINS * MAX_DELAY_UNITS  # 4800
N_SCENARIOS = 6


@dataclass(frozen=True)
class DDPDP:
    """Row-stochastic envelope-probability matrix, one row per delay unit,
    built from itself or from ``values``, its flattening and the classifier input."""

    bins: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.float64)
        if bins.shape == (FEATURE_LENGTH,):
            bins = bins.reshape(MAX_DELAY_UNITS, ENVELOPE_BINS)
        if bins.shape != (MAX_DELAY_UNITS, ENVELOPE_BINS):
            raise ValueError(f"bins must be {MAX_DELAY_UNITS} x {ENVELOPE_BINS} or a flat "
                             f"{FEATURE_LENGTH}, not shape {bins.shape}")
        bins = bins.copy()  # C order, owning its data, so ``values`` is a view
        if not np.all(np.isfinite(bins) & (bins >= 0)):
            raise ValueError("bin probabilities must be finite, non-negative numbers")
        if not np.all(np.abs(bins.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("every row must sum to 1 within 1e-12")
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)

    def __reduce__(self):
        # Unpickling rebuilds through the constructor, so a record from a
        # worker process is checked and read-only like one made here.
        return DDPDP, (self.bins,)

    @property
    def values(self) -> np.ndarray:
        """Row-major read-only view: element 400*l + b is bins[l, b]."""
        return self.bins.reshape(-1)


def build_ddpdp(cir: CIRMatrix) -> DDPDP:
    """Histogram the envelope of every tap into the row of its delay unit."""
    n = cir.n_samples
    if n < ENVELOPE_BINS:
        raise ValueError(
            f"need at least {ENVELOPE_BINS} time samples per row, got {n}")
    delays = cir.delay_units
    if len(set(delays)) != len(delays) or not all(0 <= d < MAX_DELAY_UNITS for d in delays):
        raise ValueError(f"delay units {list(delays)} must be unique and lie in "
                         f"[0, {MAX_DELAY_UNITS})")
    # A delay unit with no tap has every sample in bin 0.
    counts = np.zeros((MAX_DELAY_UNITS, ENVELOPE_BINS))
    counts[:, 0] = n
    for delay, gains in zip(delays, cir.gains):
        idx = np.minimum((np.abs(gains) / BIN_WIDTH).astype(np.int64), ENVELOPE_BINS - 1)
        counts[delay] = np.bincount(idx, minlength=ENVELOPE_BINS)
    return DDPDP(counts / float(n))


def one_hot(label: int) -> np.ndarray:
    """Length-6 indicator with position label-1 set."""
    if not 1 <= label <= N_SCENARIOS:
        raise ValueError(f"label must lie in 1..{N_SCENARIOS}, got {label}")
    out = np.zeros(N_SCENARIOS)
    out[label - 1] = 1.0
    return out
