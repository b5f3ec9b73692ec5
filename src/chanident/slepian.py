"""Discrete prolate spheroidal (Slepian) sequences.

Computed from the classic symmetric tridiagonal commuting matrix, which is
numerically stable at large lengths; the dense sinc-kernel eigenproblem is
kept out of the production path and serves only as a small-N test oracle.
Concentrations are Rayleigh quotients against the sinc kernel, evaluated by
a full linear FFT convolution through ``numpy.fft`` at the transform length
and operand order of ``scipy.signal.fftconvolve``, which gives the same
bits without importing ``scipy.fft``, so no N x N matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal


@dataclass(frozen=True)
class DPSSBasis:
    """The ``count`` most band-concentrated orthonormal sequences."""

    length: int
    time_half_bandwidth: float
    count: int
    sequences: np.ndarray       # (count, length), orthonormal rows
    concentrations: np.ndarray  # (count,), descending, in (0, 1]


def sinc_kernel_row(length: int, half_bandwidth: float) -> np.ndarray:
    """k[d] = sin(2 pi W d) / (pi d) for d = -(N-1) .. N-1 (k[0] = 2W)."""
    d = np.arange(-(length - 1), length, dtype=np.float64)
    out = np.empty_like(d)
    nz = d != 0
    out[nz] = np.sin(2 * np.pi * half_bandwidth * d[nz]) / (np.pi * d[nz])
    out[~nz] = 2 * half_bandwidth
    return out


def _fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= ``target``: the real-transform length
    ``scipy.fft.next_fast_len(target, True)`` picks."""
    best = 1 << max(target - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < target:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _concentrations(sequences: np.ndarray, half_bandwidth: float) -> np.ndarray:
    n = sequences.shape[1]
    size = _fast_len(3 * n - 2)
    kernel = np.fft.rfft(sinc_kernel_row(n, half_bandwidth), size)
    lam = np.empty(len(sequences))
    for i, u in enumerate(sequences):
        spectrum = np.fft.rfft(u, size)
        # Kernel first, as in fftconvolve: the complex product is fused
        # (FMA), so the operand order sets the last bit.
        np.multiply(kernel, spectrum, out=spectrum)
        su = np.fft.irfft(spectrum, size)[n - 1:2 * n - 1]
        lam[i] = float(u @ su)
    return lam


@lru_cache(maxsize=64)
def _build(length: int, half_bandwidth: float, count: int) -> DPSSBasis:
    n = np.arange(length, dtype=np.float64)
    diag = ((length - 1) / 2.0 - n) ** 2 * math.cos(2 * math.pi * half_bandwidth)
    off = np.arange(1, length) * np.arange(length - 1, 0, -1) / 2.0
    if length == 1:
        seqs = np.ones((1, 1))
    else:
        _, vec = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(length - count, length - 1))
        seqs = np.ascontiguousarray(vec[:, ::-1].T)  # most concentrated first
    for row in seqs:
        nonzero = row[np.abs(row) > 1e-13 * np.abs(row).max()]
        if len(nonzero) and nonzero[0] < 0:
            row *= -1.0
    lam = _concentrations(seqs, half_bandwidth)
    order = np.argsort(-lam, kind="stable")
    seqs = seqs[order]
    lam = np.clip(lam[order], np.finfo(float).tiny, 1.0)
    gram = seqs @ seqs.T
    if np.max(np.abs(gram - np.eye(count))) >= 1e-9:
        raise AssertionError("Slepian sequences lost orthonormality")
    seqs.flags.writeable = False
    lam.flags.writeable = False
    return DPSSBasis(length, half_bandwidth, count, seqs, lam)


def generate_dpss(length: int, time_half_bandwidth: float, count: int) -> DPSSBasis:
    """The ``count`` most concentrated Slepian sequences of a given length.

    Sign convention: the first element of visible magnitude in each sequence
    is positive.  Results are cached by (length, bandwidth, count); the
    returned arrays are read-only.
    """
    if not 0 < time_half_bandwidth < 0.5:
        raise ValueError("time_half_bandwidth must lie in (0, 0.5)")
    if not 1 <= count <= length:
        raise ValueError(f"count must lie in [1, {length}], got {count}")
    return _build(int(length), float(time_half_bandwidth), int(count))


def basis_dimension(normalized_doppler: float, length: int) -> int:
    """Basis size rule D = ceil(2 nu N) + 3.

    The +3 margin absorbs the slow concentration roll-off just past the
    nominal 2 nu N degrees of freedom of a band-limited snippet.
    """
    if normalized_doppler < 0:
        raise ValueError("normalized_doppler must be >= 0")
    if length < 1:
        raise ValueError("length must be >= 1")
    return math.ceil(2.0 * normalized_doppler * length) + 3
