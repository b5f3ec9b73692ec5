"""Channel sounding: order estimation and iterative delay/amplitude fitting.

Order estimation correlates the period-folded complex baseband probe with
the local chip sequence and detects peaks on the correlation magnitude.
Taking the magnitude after correlation is the baseband equivalent of the
per-path phase stripping + envelope detection of the analog receiver chain:
each path contributes a peak of height N*|mu_l| at its delay, independent of
the path's random carrier phase.  (Taking |r[n]| before correlating would
destroy the chip modulation - a single-path envelope is constant - so the
magnitude must come after the correlation.)

Delay/amplitude estimation works on the frequency-domain probe: paths are
added one at a time, and after each addition every path is alternately
re-fitted against the residual spectrum of the others until the quadratic
cost stops decreasing (a RELAX-style coordinate descent).  All candidate
delays are integer sample offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSignalError
from .mseq import MSequence
from .simulate import ComplexSignal

DEFAULT_THRESHOLD_FACTOR = 0.5
FLOOR_FACTOR = 4.0       # significance floor, in medians of the correlation magnitude
TOL = 1e-8               # relative cost decrease that ends a RELAX stage
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


@dataclass(frozen=True)
class FrequencyData:
    """Centered spectra of one probe period and of the local chips.

    Index convention: entry i corresponds to integer frequency
    k = i - floor(N/2), i.e. k runs over -floor(N/2) .. ceil(N/2)-1.
    """

    R: np.ndarray
    M_diag: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=np.complex128, copy=True)
        M = np.array(self.M_diag, dtype=np.complex128, copy=True)
        if R.ndim != 1 or M.ndim != 1 or len(R) != len(M):
            raise ValueError("R and M_diag must be 1-D arrays of equal length")
        R.flags.writeable = False
        M.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "M_diag", M)

    @property
    def n(self) -> int:
        return len(self.R)

    def k_grid(self) -> np.ndarray:
        n = self.n
        return np.arange(n) - n // 2


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


def _circular_corr(folded: np.ndarray, chips: np.ndarray) -> np.ndarray:
    """c[d] = sum_n folded[n] * chips[(n - d) mod N]."""
    return np.fft.ifft(np.fft.fft(folded) * np.conj(np.fft.fft(chips)))


def estimate_order(received: ComplexSignal, local: MSequence,
                   threshold_factor: float = DEFAULT_THRESHOLD_FACTOR) -> OrderEstimate:
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
    mag = np.abs(_circular_corr(folded, local.chips))
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


def probe_spectrum(received: ComplexSignal | np.ndarray, local: MSequence) -> FrequencyData:
    """DFT of one (period-averaged) probe period and of the local chips."""
    samples = received.samples if isinstance(received, ComplexSignal) else np.asarray(received)
    if len(samples) != local.period:
        raise ValueError(
            f"received length {len(samples)} != m-sequence period {local.period}")
    R = np.fft.fftshift(np.fft.fft(samples))
    M = np.fft.fftshift(np.fft.fft(local.chips.astype(np.float64)))
    return FrequencyData(R, M)


def _alpha(n: int, delay: float) -> np.ndarray:
    k = np.arange(n) - n // 2
    return np.exp(-2j * np.pi * delay * k / n)


def _objective_all_delays(freq: FrequencyData, residual: np.ndarray) -> np.ndarray:
    """g[tau] = alpha(tau)^H (conj(M) * residual) for every integer tau."""
    y = np.fft.ifftshift(np.conj(freq.M_diag) * residual)
    return np.fft.ifft(y) * freq.n


def _model(freq: FrequencyData, paths) -> np.ndarray:
    out = np.zeros(freq.n, dtype=np.complex128)
    for delay, amp in paths:
        out += amp * freq.M_diag * _alpha(freq.n, delay)
    return out


def residual_spectrum(freq: FrequencyData, paths) -> np.ndarray:
    """R minus the reconstruction of the given (delay, amplitude) paths."""
    return freq.R - _model(freq, paths)


def fit_cost(freq: FrequencyData, paths) -> float:
    """Quadratic mismatch between R and the multipath model."""
    return float(np.sum(np.abs(residual_spectrum(freq, paths)) ** 2))


def relax_estimate(freq: FrequencyData, order: int,
                   candidate_delays) -> DelayAmplitudeEstimate:
    """Staged coordinate-descent fit of ``order`` paths to the probe spectrum.

    Stage l seeds path l from the residual of the l-1 already-fitted paths,
    then re-fits every path in turn against the residual of the others.  A
    sweep that fails to decrease the cost (each single-path re-fit is an
    exact least-squares step, so this only happens through the candidate
    exclusion rule) rolls back and ends the stage early.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    cand = np.unique(np.asarray(list(candidate_delays), dtype=np.intp))
    if len(cand) < order:
        raise ValueError(f"{order} paths requested but only {len(cand)} candidate delays")
    if len(cand) and (cand.min() < 0 or cand.max() >= freq.n):
        raise ValueError(f"candidate delays must lie in [0, {freq.n})")
    norm_m = np.sum(np.abs(freq.M_diag) ** 2)

    def refit(others, res):
        free = cand[~np.isin(cand, [d for d, _ in others])]
        g = _objective_all_delays(freq, res)
        d = int(free[np.argmax(np.abs(g[free]) ** 2)])
        return d, complex(g[d] / norm_m)

    paths: list[tuple[int, complex]] = []
    trace: list[float] = []
    sweeps = 0
    for _stage in range(order):
        paths.append(refit(paths, residual_spectrum(freq, paths)))
        prev = fit_cost(freq, paths)
        trace.append(prev)
        for _ in range(MAX_OUTER_ITERS):
            snapshot = list(paths)
            for j in range(len(paths)):
                others = paths[:j] + paths[j + 1:]
                paths[j] = refit(others, residual_spectrum(freq, others))
            cost = fit_cost(freq, paths)
            sweeps += 1
            if cost > prev:
                paths = snapshot  # non-decreasing cost guard
                break
            trace.append(cost)
            if prev - cost <= TOL * max(prev, np.finfo(float).tiny):
                break
            prev = cost
    paths.sort(key=lambda p: p[0])
    return DelayAmplitudeEstimate(
        paths=tuple(paths),
        residual_cost=fit_cost(freq, paths),
        iterations=sweeps,
        cost_trace=tuple(trace),
    )
