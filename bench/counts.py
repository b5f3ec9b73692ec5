"""Work counts computed from a dataset spec alone.

These repeat exactly for a given spec, so a change that alters them has
changed the algorithm's work, not just its speed.  Flop counts use 8 real
flops per complex multiply-add and count the dominant terms only.
"""

from __future__ import annotations

import math

import numpy as np

from chanident import profiles
from chanident.slepian import basis_dimension

# Fading synthesis grid rule: at least 256 bins across the Doppler band,
# capped at 2^22, rounded up to a power of two and to the record length.
MIN_BAND_BINS = 256
MAX_FFT = 1 << 22


def bem_windows(n: int, window_len: int) -> list[int]:
    """Window lengths of ``estimate_cir_windowed`` (a short tail merges)."""
    starts = list(range(0, n, window_len))
    if len(starts) > 1 and n - starts[-1] < window_len // 2:
        starts.pop()
    return [b - a for a, b in zip(starts, starts[1:] + [n])]


def fading_grid(spec) -> int:
    target = spec.samples_per_vector
    fd = spec.sim.doppler_per_sample
    if fd > 0:
        target = max(target, min(int(MIN_BAND_BINS / fd), MAX_FFT))
    return 1 << max(0, math.ceil(math.log2(target)))


def band_bins(spec) -> int:
    """Grid bins whose interval overlaps the Doppler band (-fd, fd)."""
    nfft = fading_grid(spec)
    fd = spec.sim.doppler_per_sample
    f = np.arange(nfft) / nfft
    f[f >= 0.5] -= 1.0
    half = 0.5 / nfft
    return int(np.count_nonzero((f + half > -fd) & (f - half < fd)))


def normal_equation_mflop(taps: int, nu: float, windows: list[int]) -> float:
    """Gram matrix 8 W U^2, right-hand side 8 W U and LU solve (8/3) U^3."""
    total = 0.0
    for w in windows:
        u = taps * min(basis_dimension(nu, w), w)
        total += 8.0 * w * u * u + 8.0 * w * u + 8.0 / 3.0 * u ** 3
    return total / 1e6


def mlp_mflop_per_step(layer_sizes, batch: int) -> float:
    """Forward 2 B sum(in*out) plus backward 4 B sum(in*out)."""
    macs = sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
    return 6.0 * batch * macs / 1e6


def computed_counts(spec, layer_sizes, batch: int) -> dict:
    nu = spec.sim.doppler_per_sample
    windows = bem_windows(spec.samples_per_vector, spec.window_len)
    taps = {label: profiles.load_profile(label).tap_count for label in spec.scenario_labels}
    nfft = fading_grid(spec)
    by_taps = sorted(set(taps.values()))
    return {
        "bem.windows_per_record": len(windows),
        "bem.unknowns_per_window": {f"taps{t}": t * basis_dimension(nu, spec.window_len)
                                    for t in by_taps},
        "bem.normal_eq_mflop_per_record": {
            f"taps{t}": round(normal_equation_mflop(t, nu, windows), 3) for t in by_taps},
        "bem.normal_eq_mflop_per_record.mean": round(float(np.mean(
            [normal_equation_mflop(t, nu, windows) for t in taps.values()])), 3),
        "simulate.fading_fft_bins_per_record": {f"taps{t}": t * nfft for t in by_taps},
        "simulate.fading_grid_bins": nfft,
        "simulate.fading_band_bins": band_bins(spec),
        "simulate.fading_band_ratio_pct": round(100.0 * band_bins(spec) / nfft, 3),
        "records_per_unit": spec.record_count,
        "mlp.mflop_per_step": round(mlp_mflop_per_step(layer_sizes, batch), 3),
        "mlp.batch": batch,
        "note": "computed from the spec alone, not measured",
    }

