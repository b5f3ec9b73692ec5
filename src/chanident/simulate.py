"""Time-varying multipath channel simulation.

Fading taps are zero-mean complex Gaussian processes produced by the IDFT
method (Young & Beaulieu, IEEE Trans. Commun. 48(7), 2000): each tap weights
i.i.d. complex Gaussians on an FFT frequency grid by the square root of the
per-bin mass of its Doppler spectrum and inverse-transforms.  Bin masses
come from the analytic spectral CDFs, so the edge singularity of the classic
Jakes spectrum is integrated exactly rather than sampled.  Only the bins
with nonzero mass, the Doppler band, get a draw: at 0.004 cycles/sample
that is a few hundred of the 65 536 grid bins.

The inverse transform is split by polyphase: with the band inside ``width``
bins and n = R j + s (R = nfft / width), each residue s is one
length-``width`` inverse FFT after a twiddle and a phase ramp, so a tap is
one batch of short transforms instead of one nfft-point transform, and only
the first n / R outputs of each are kept.  It agrees with the full-grid
IDFT to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .profiles import DopplerSpectrum, ScenarioProfile

# Resolution targets for the spectral synthesis grid: at least this many
# frequency bins across the Doppler band, capped to bound FFT size.
_MIN_BAND_BINS = 256
_MAX_FFT = 1 << 22


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``normalized_doppler`` is the maximum Doppler frequency times the sample
    period, one delay unit of 10 us (0.004 reproduces the reference setup
    at 0.1 Ms/s).
    """

    normalized_doppler: float = 0.004

    def __post_init__(self):
        nu = self.normalized_doppler
        # 0 is admitted as the degenerate frozen-channel limit.  bool is an
        # int subclass, and a str or None would raise a TypeError that names
        # no key; numpy floats subclass float.
        if isinstance(nu, bool) or not isinstance(nu, (int, float)) or not 0 <= nu < 0.5:
            raise ValueError(f"normalized_doppler must be finite and in [0, 0.5), got {nu!r}")

    @property
    def doppler_per_sample(self) -> float:
        """Maximum Doppler frequency in cycles per sample, which one sample
        per symbol makes ``normalized_doppler`` itself."""
        return self.normalized_doppler


@dataclass(frozen=True)
class ComplexSignal:
    """A finite complex baseband sample sequence, one sample per delay unit."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.complex128, copy=True)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    def power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


@dataclass(frozen=True)
class CIRMatrix:
    """Per-tap complex gain series, simulated or BEM-LS estimated:
    ``gains[l, n]`` at delay ``delay_units[l]``."""

    gains: np.ndarray
    delay_units: tuple[int, ...]

    def __post_init__(self):
        self._freeze(np.array(self.gains, dtype=np.complex128, copy=True))

    def _freeze(self, gains: np.ndarray) -> None:
        if gains.ndim != 2 or gains.shape[0] < 1 or gains.shape[1] < 1:
            raise ValueError("gains must be a non-empty L x N matrix")
        if len(self.delay_units) != gains.shape[0]:
            raise ValueError("delay_units length must equal the tap count")
        if not np.all(np.isfinite(gains.view(np.float64))):
            raise ValueError("gains must be finite")
        gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "delay_units", tuple(int(d) for d in self.delay_units))

    @classmethod
    def _adopt(cls, gains: np.ndarray, delay_units) -> "CIRMatrix":
        """A matrix that takes ownership of the complex128 ``gains``, which no
        one else may write, without the constructor's defensive copy (a
        strided view is still made contiguous); the constructor's checks
        still apply."""
        cir = object.__new__(cls)
        object.__setattr__(cir, "delay_units", delay_units)
        cir._freeze(np.ascontiguousarray(gains, dtype=np.complex128))
        return cir

    @property
    def tap_count(self) -> int:
        return self.gains.shape[0]

    @property
    def n_samples(self) -> int:
        return self.gains.shape[1]


def _band_mass(spectrum: DopplerSpectrum, lo: np.ndarray, hi: np.ndarray, fd: float) -> np.ndarray:
    """Integral of the unit-mass Doppler spectrum over [lo, hi) per bin.

    Frequencies are in cycles/sample; ``fd`` is the maximum Doppler in the
    same units.
    """
    # At fd = 0, or at an fd so small that the scaled frequencies overflow or
    # the Gaussian width underflows, the scaled edges are +-inf, where both
    # CDFs saturate: all the mass falls in the bin that holds the centre,
    # the frozen-channel limit.  No bin edge is 0 or the centre, so no 0 / 0.
    with np.errstate(over="ignore", divide="ignore"):
        if spectrum.kind == "jakes":
            # CDF of S(f) = 1 / (pi fd sqrt(1 - (f/fd)^2)) on [-fd, fd]
            lo_c = np.clip(lo / fd, -1.0, 1.0)
            hi_c = np.clip(hi / fd, -1.0, 1.0)
            return (np.arcsin(hi_c) - np.arcsin(lo_c)) / np.pi
        if spectrum.kind == "gaussian":
            mu = spectrum.center * fd
            scale = spectrum.sigma * fd * math.sqrt(2.0)
            from scipy.special import erf

            return 0.5 * (erf((hi - mu) / scale) - erf((lo - mu) / scale))
    raise ValueError(f"unsupported doppler spectrum kind {spectrum.kind!r}")


def _synthesis_grid(n_samples: int, fd: float) -> int:
    target = n_samples
    if fd > 0:
        # Capped before int(): the quotient is inf for fd below ~1.4e-306.
        target = max(target, int(min(_MIN_BAND_BINS / fd, _MAX_FFT)))
    return 1 << max(0, math.ceil(math.log2(target)))


@lru_cache(maxsize=8)
def _band(spectrum: DopplerSpectrum, fd: float, nfft: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The band of bins with nonzero mass on the ``nfft``-bin grid: its lowest
    signed bin k0, the offset from k0 of each band bin in ascending (unsigned)
    bin index, and sqrt(mass / total) on them; the arrays are read-only.  At
    fd = 0 the band is the DC bin alone, with weight 1."""
    f = np.arange(nfft, dtype=np.float64) / nfft
    f[f >= 0.5] -= 1.0
    half = 0.5 / nfft
    mass = _band_mass(spectrum, f - half, f + half, fd)
    total = mass.sum()
    if total <= 0:
        raise ValueError("doppler spectrum has no mass on the frequency grid")
    support = np.flatnonzero(mass)
    signed = np.where(support >= nfft // 2, support - nfft, support)
    k0 = int(signed.min())
    offsets = signed - k0
    weight = np.sqrt(mass[support] / total)
    offsets.flags.writeable = False
    weight.flags.writeable = False
    return k0, offsets, weight


def _unit_phasors(phase: np.ndarray, nfft: int) -> np.ndarray:
    """exp(j 2 pi phase / nfft) of integer phases, reduced mod ``nfft`` first
    so the angle is exact before rounding; read-only."""
    out = np.exp((2j * np.pi / nfft) * np.mod(phase, nfft))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def _twiddles(nfft: int, width: int) -> np.ndarray:
    """E[s, k] = exp(j 2 pi k s / nfft) for s < nfft / width and k < width."""
    return _unit_phasors(np.arange(nfft // width)[:, None] * np.arange(width), nfft)


@lru_cache(maxsize=16)
def _ramp(k0: int, nfft: int, n_samples: int) -> np.ndarray:
    """exp(j 2 pi k0 n / nfft) for n < ``n_samples``."""
    return _unit_phasors(k0 * np.arange(n_samples, dtype=np.int64), nfft)


def generate_fading(profile: ScenarioProfile, n_samples: int, config: SimConfig,
                    seed: int) -> CIRMatrix:
    """Simulate the tap-gain series of ``profile`` for ``n_samples`` samples.

    Taps are mutually independent; each has mean power equal to its
    configured average gain and a power spectrum following its Doppler
    descriptor scaled to ``config.normalized_doppler``.  Deterministic for a
    given (profile, n_samples, config, seed).

    Random stream: one generator seeded with ``seed`` serves the taps in
    profile order.  Each tap takes 2m standard normals, where m is the
    number of synthesis-grid bins in which its Doppler spectrum has nonzero
    mass: first the real parts of those bins in ascending bin index
    (negative frequencies last), then their imaginary parts.  At zero
    Doppler the band is the DC bin alone, so a tap takes two: real, then
    imaginary, and is frozen.

    Each tap is one decimated inverse transform, taken in turn.  Tap t is
    x[n] = sum_k a[k] exp(j 2 pi k n / nfft) over its band bins k,
    a[k] = sqrt(power / 2) * weight[k] * (re + j im) from its 2m normals.
    Every band fits in ``width`` bins (a power of two) from its lowest bin
    k0, so with R = nfft / width and n = R j + s

        x[R j + s] = exp(j 2 pi k0 n / nfft)
                     * sum_{k' < width} a[k0 + k'] E[s, k'] exp(j 2 pi k' j / width),

    one length-``width`` inverse transform per residue s.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    fd = config.normalized_doppler
    nfft = _synthesis_grid(n_samples, fd)
    bands = [_band(spectrum, fd, nfft) for spectrum in profile.doppler_spectra]
    width = 1 << int(max(offsets.max() for _, offsets, _ in bands)).bit_length()
    twiddles = _twiddles(nfft, width)
    # n = R full + tail: rows j < full of every residue, then row full of the
    # first ``tail`` residues.
    residue_count = nfft // width
    full, tail = divmod(n_samples, residue_count)
    # One tap at a time through one residue buffer, so the working set is
    # the nfft-point buffer and the L x n output, not L nfft-point grids.
    amp = np.zeros(width, dtype=np.complex128)
    residues = np.empty_like(twiddles)
    taps = np.empty((len(bands), n_samples), dtype=np.complex128)
    for tap, power, (k0, offsets, weight) in zip(taps, profile.gains_linear(), bands):
        m = len(offsets)
        draws = rng.standard_normal(2 * m)
        amp[offsets] = math.sqrt(power / 2.0) * weight * (draws[:m] + 1j * draws[m:])
        # residues[s, j] = x[R j + s] / ramp; norm="forward" leaves the
        # inverse transform unscaled, as the sum above is.  A length-1
        # transform is the identity, bit for bit.
        np.multiply(amp, twiddles, out=residues)
        if width > 1:
            np.fft.ifft(residues, axis=-1, norm="forward", out=residues)
        tap[:n_samples - tail].reshape(full, residue_count)[...] = residues[:, :full].T
        if tail:
            tap[n_samples - tail:] = residues[:tail, full]
        tap *= _ramp(k0, nfft, n_samples)
        amp[offsets] = 0.0
    return CIRMatrix._adopt(taps, profile.delay_units)


def apply_channel(signal: ComplexSignal, cir: CIRMatrix) -> ComplexSignal:
    """Pass ``signal`` through the tapped-delay-line channel ``cir``.

    output[n] = sum_l gains[l, n] * signal[n - delay_units[l]], with zeros
    substituted for samples before the start of the input.
    """
    n = len(signal)
    if cir.n_samples != n:
        raise ValueError(f"signal length {n} != channel sample count {cir.n_samples}")
    if any(d < 0 or d >= n for d in cir.delay_units):
        raise ValueError("delay_units must lie in [0, signal length)")
    x = signal.samples
    out = np.zeros(n, dtype=np.complex128)
    for l, d in enumerate(cir.delay_units):
        out[d:] += cir.gains[l, d:] * x[:n - d]
    return ComplexSignal(out)


def add_awgn(signal: ComplexSignal, snr_db: float | None, seed: int = 0) -> ComplexSignal:
    """Add complex white Gaussian noise at the given SNR.

    The noise variance is set against the measured signal power so that
    signal-power / expected-noise-power equals 10^(snr_db/10).  ``snr_db``
    of None means noiseless: the input is returned unchanged.
    """
    if snr_db is None:
        return signal
    p = signal.power()
    if p <= 0:
        raise ValueError("cannot set a finite SNR on a zero-power signal")
    rng = np.random.default_rng(seed)
    sigma2 = p / 10.0 ** (snr_db / 10.0)
    n = len(signal)
    noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ComplexSignal(signal.samples + noise)
