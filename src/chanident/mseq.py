"""Maximal-length sounding sequences (m-sequences).

A Fibonacci LFSR over GF(2) with primitive feedback polynomial x^p + ... + 1
emits a period 2^p - 1 bit stream; bits map 0 -> +1, 1 -> -1.  The periodic
autocorrelation of the chip sequence is exactly N at lag 0 and -1 at every
other lag, which is what makes these usable as sounding probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Minimal-weight primitive polynomials, one per register length; entries are
# the exponents with nonzero coefficient (the constant term 1 is implicit).
PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 1),
    4: (4, 1),
    5: (5, 2),
    6: (6, 1),
    7: (7, 1),
    8: (8, 4, 3, 2),
    9: (9, 4),
    10: (10, 3),
    11: (11, 2),
    12: (12, 6, 4, 1),
}


@dataclass(frozen=True)
class MSequence:
    chips: np.ndarray  # +/-1 int8, length 2^p - 1, one chip per delay unit

    def __post_init__(self):
        chips = np.array(self.chips, dtype=np.int8, copy=True)
        chips.flags.writeable = False
        object.__setattr__(self, "chips", chips)

    @property
    def period(self) -> int:
        return len(self.chips)


def periodic_autocorrelation(chips: np.ndarray) -> np.ndarray:
    """Exact integer circular autocorrelation at every lag."""
    c = np.asarray(chips, dtype=np.int64)
    n = len(c)
    return np.array([int(c @ np.roll(c, k)) for k in range(n)], dtype=np.int64)


def generate_mseq(register_length: int) -> MSequence:
    """Run the LFSR of ``PRIMITIVE_TAPS[register_length]`` from the all-ones
    state for one full period and return the +/-1 chip sequence."""
    p = register_length
    if p not in PRIMITIVE_TAPS:
        raise ValueError(f"register_length must be one of {sorted(PRIMITIVE_TAPS)}, not {p!r}")
    taps = PRIMITIVE_TAPS[p]
    period = (1 << p) - 1
    bits = np.empty(period, dtype=np.int8)
    s = [1] * p
    for i in range(period):
        bits[i] = s[-1]
        fb = 0
        for t in taps:
            fb ^= s[t - 1]
        s = [fb] + s[:-1]
    return MSequence(1 - 2 * bits)
