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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def generate_mseq(register_length: int, taps: tuple[int, ...] | None = None,
                  initial_state=None) -> MSequence:
    """Run the LFSR for one full period and return the +/-1 chip sequence.

    ``taps`` defaults to the registry entry for ``register_length``;
    ``initial_state`` (a length-p 0/1 sequence, all-ones by default) must be
    nonzero.  A tap set that is not primitive is detected by the register
    revisiting a state early and rejected.
    """
    p = register_length
    if p < 2:
        raise ValueError("register_length must be >= 2")
    if taps is None:
        if p not in PRIMITIVE_TAPS:
            raise ValueError(f"no default primitive polynomial for register length {p}")
        taps = PRIMITIVE_TAPS[p]
    taps = tuple(taps)
    if not all(_is_int(t) for t in taps):
        raise ValueError(f"feedback taps {taps} must be integers")
    taps = tuple(sorted(set(taps), reverse=True))
    if not taps or taps[0] != p or taps[-1] < 1:
        raise ValueError(f"feedback taps {taps} must be exponents in [1, {p}] including {p}")
    if initial_state is None:
        state = [1] * p
    else:
        state = list(initial_state)
        if len(state) != p:
            raise ValueError(f"initial_state must have {p} bits")
        if not all(_is_int(b) and b in (0, 1) for b in state):
            raise ValueError("initial_state bits must be the integers 0 or 1")
    if not any(state):
        raise ValueError("initial_state must not be all-zero")

    period = (1 << p) - 1
    bits = np.empty(period, dtype=np.int8)
    # Tap p makes the step invertible, so the states form a cycle through the
    # initial one: the first repeat is a return to it, and a return within
    # ``period`` steps means the polynomial is not primitive.
    s = list(state)
    for i in range(period):
        if i and s == state:
            raise ValueError(
                f"feedback taps {taps} are not a primitive polynomial: "
                f"state cycle of length {i} < {period}")
        bits[i] = s[-1]
        fb = 0
        for t in taps:
            fb ^= s[t - 1]
        s = [fb] + s[:-1]
    return MSequence(1 - 2 * bits)
