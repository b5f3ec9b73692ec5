"""Channel sounding: the m-sequence probe, order estimation and iterative
delay/amplitude fitting, joined by ``sound_and_profile``.

Order estimation correlates the period-folded complex baseband probe with
the local chip sequence and detects peaks on the correlation magnitude.
Taking the magnitude after correlation is the baseband equivalent of the
per-path phase stripping + envelope detection of the analog receiver chain:
each path contributes a peak of height N*|mu_l| at its delay, independent of
the path's random carrier phase.  (Taking |r[n]| before correlating would
destroy the chip modulation - a single-path envelope is constant - so the
magnitude must come after the correlation.)

Delay/amplitude estimation works on the same folded probe period in the
delay domain (RELAX; Li & Stoica, IEEE Trans. SP 44(2), 1996): paths are
added one at a time, and after each addition every path is alternately
re-fitted against the residual of the others, the folded probe minus the
delayed and scaled chips of every other path, through the same circular
correlation, until the quadratic cost stops decreasing.  All candidate
delays are integer sample offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSignalError
from .mseq import MSequence
from .simulate import ComplexSignal

# A lag is a path when its correlation reaches this fraction of the strongest
# peak: taps 20 dB below the strongest (amplitude ratio 0.1), the COST 207
# worst case, still count.
DEFAULT_THRESHOLD_FACTOR = 0.05
FLOOR_FACTOR = 4.0       # significance floor, in medians of the correlation magnitude
TOL = 1e-8               # relative cost decrease that ends a RELAX stage
# A RELAX stage also ends once its residual is within this many ulps of the
# folded probe, cost <= N * (RESIDUAL_ULPS * eps * ||folded||)^2.  A converged
# noiseless fit leaves a residual of rounding size (at most 1.5 ulps over 300
# probes of 1-6 paths), where the TOL test would compare rounding noise; the
# floor is far above that and 5e-26 of the cost with no path.
RESIDUAL_ULPS = 1024
MAX_OUTER_ITERS = 50     # sweeps per RELAX stage


@dataclass(frozen=True)
class OrderEstimate:
    """Channel order plus the correlation peaks that support it."""

    order: int
    peak_lags: tuple[int, ...]
    peak_values: tuple[float, ...]
    threshold: float

    def __post_init__(self):
        if not (self.order == len(self.peak_lags) == len(self.peak_values)):
            raise ValueError("order must equal the number of reported peaks")
        if any(v < self.threshold for v in self.peak_values):
            raise ValueError("every peak value must reach the threshold")


@dataclass(frozen=True)
class DelayAmplitudeEstimate:
    """Estimated (delay, amplitude) per path, sorted by delay."""

    paths: tuple[tuple[int, complex], ...]
    residual_cost: float
    iterations: int
    cost_trace: tuple[float, ...]

    def __post_init__(self):
        delays = [d for d, _ in self.paths]
        if delays != sorted(set(delays)):
            raise ValueError("path delays must be unique and ascending")

    @property
    def delays(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.paths)

    @property
    def amplitudes(self) -> tuple[complex, ...]:
        return tuple(a for _, a in self.paths)


def fold_periods(samples: np.ndarray, period: int) -> np.ndarray:
    """Average a probe over whole m-sequence periods.

    The first period carries the channel's fill-in transient (delayed copies
    start with zeros), so it is dropped whenever at least two periods are
    available.
    """
    n = len(samples)
    if n < period:
        raise ValueError(f"need at least one period ({period} samples), got {n}")
    if n % period:
        raise ValueError(f"probe length {n} is not a multiple of the period {period}")
    blocks = np.asarray(samples, dtype=np.complex128).reshape(-1, period)
    if blocks.shape[0] >= 2:
        blocks = blocks[1:]
    return blocks.mean(axis=0)


def _chip_spectrum(chips: np.ndarray) -> np.ndarray:
    """The conjugate DFT of the chips, the fixed factor of ``_circular_corr``."""
    return np.conj(np.fft.fft(chips))


def _circular_corr(folded: np.ndarray, chip_spectrum: np.ndarray) -> np.ndarray:
    """c[d] = sum_n folded[n] * chips[(n - d) mod N], given ``_chip_spectrum(chips)``."""
    return np.fft.ifft(np.fft.fft(folded) * chip_spectrum)


def estimate_order(received: ComplexSignal, local: MSequence,
                   threshold_factor: float) -> OrderEstimate:
    """Count the distinct delay paths visible in an m-sequence probe.

    A lag is a path when its correlation magnitude reaches
    ``threshold_factor`` times the strongest peak and clears a significance
    floor of ``FLOOR_FACTOR`` times the median magnitude; the floor is what
    rejects noise-only probes.  No local-maximum test is applied: paths on
    the delay grid sit at adjacent sample lags, where a tap weaker than its
    neighbour would suppress itself, and m-sequence correlation has no
    skirts that need pruning, so the threshold alone is decisive.
    """
    if not 0 < threshold_factor <= 1:
        raise ValueError("threshold_factor must lie in (0, 1]")
    folded = fold_periods(received.samples, local.period)
    mag = np.abs(_circular_corr(folded, _chip_spectrum(local.chips)))
    peak = float(mag.max())
    if peak <= 0:
        raise InsufficientSignalError("received probe is identically zero")
    floor = FLOOR_FACTOR * float(np.median(mag))
    if peak < floor:
        raise InsufficientSignalError(
            f"strongest correlation peak {peak:.3g} is below the significance "
            f"floor {floor:.3g}; probe looks like noise")
    threshold = max(threshold_factor * peak, floor)
    lags = np.flatnonzero(mag >= threshold)
    return OrderEstimate(
        order=len(lags),
        peak_lags=tuple(int(d) for d in lags),
        peak_values=tuple(float(mag[d]) for d in lags),
        threshold=float(threshold),
    )


def _residual(folded: np.ndarray, chips: np.ndarray, paths) -> np.ndarray:
    """The folded probe minus the chips delayed and scaled along each path."""
    out = folded.copy()
    for delay, amp in paths:
        out -= amp * np.roll(chips, delay)
    return out


def relax_estimate(folded: np.ndarray, local: MSequence, order: int,
                   candidate_delays) -> DelayAmplitudeEstimate:
    """Staged coordinate-descent fit of ``order`` paths to one folded probe period.

    Stage l seeds path l from the residual of the l-1 already-fitted paths,
    then re-fits every path in turn against the residual of the others.  A
    re-fit correlates the residual with the chips, g = corr(r, chips), takes
    the free candidate delay d of the largest |g| and the amplitude
    g[d] / N, the exact least-squares step for +/-1 chips.  A sweep that
    lowers the cost by no more than ``TOL`` times its previous value is
    rolled back and ends the stage.  A stage whose residual is within
    ``RESIDUAL_ULPS`` ulps of the folded probe has converged and ends
    without another sweep.
    """
    folded = np.asarray(folded, dtype=np.complex128)
    n = local.period
    if folded.shape != (n,):
        raise ValueError(f"folded probe of shape {folded.shape} is not one m-sequence "
                         f"period of {n} samples")
    if order < 1:
        raise ValueError("order must be >= 1")
    cand = np.unique(np.asarray(list(candidate_delays), dtype=np.intp))
    if len(cand) < order:
        raise ValueError(f"{order} paths requested but only {len(cand)} candidate delays")
    if len(cand) and (cand.min() < 0 or cand.max() >= n):
        raise ValueError(f"candidate delays must lie in [0, {n})")
    chips = local.chips.astype(np.float64)
    spectrum = _chip_spectrum(chips)

    def refit(others):
        free = cand[~np.isin(cand, [d for d, _ in others])]
        g = _circular_corr(_residual(folded, chips, others), spectrum)
        d = int(free[np.argmax(np.abs(g[free]))])
        return d, complex(g[d] / n)

    def cost(paths):  # N * sum |r|^2, which is sum |DFT(r)|^2 by Parseval
        return n * float(np.sum(np.abs(_residual(folded, chips, paths)) ** 2))

    floor = (RESIDUAL_ULPS * np.finfo(np.float64).eps) ** 2 * cost([])
    paths: list[tuple[int, complex]] = []
    trace: list[float] = []
    sweeps = 0
    for _stage in range(order):
        paths.append(refit(paths))
        prev = cost(paths)
        trace.append(prev)
        for _ in range(MAX_OUTER_ITERS):
            if prev <= floor:
                break
            snapshot = list(paths)
            for j in range(len(paths)):
                paths[j] = refit(paths[:j] + paths[j + 1:])
            new = cost(paths)
            sweeps += 1
            if prev - new <= TOL * prev:
                paths = snapshot
                break
            trace.append(new)
            prev = new
    paths.sort(key=lambda p: p[0])
    return DelayAmplitudeEstimate(
        paths=tuple(paths),
        residual_cost=cost(paths),
        iterations=sweeps,
        cost_trace=tuple(trace),
    )


def probe_signal(mseq: MSequence, periods: int = 4) -> ComplexSignal:
    """The transmitted sounding signal: ``periods`` repetitions of the chips."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    chips = np.tile(mseq.chips.astype(np.complex128), periods)
    return ComplexSignal(chips)


def sound_and_profile(received: ComplexSignal, local: MSequence,
                      threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
                      ) -> tuple[OrderEstimate, DelayAmplitudeEstimate]:
    """Run order estimation, then fit that many paths, at any delay in the
    m-sequence period, to the period-folded probe.  Folding assumes a channel
    that is static over the probe."""
    order_est = estimate_order(received, local, threshold_factor)
    folded = fold_periods(received.samples, local.period)
    delays = relax_estimate(folded, local, order_est.order, range(local.period))
    return order_est, delays
