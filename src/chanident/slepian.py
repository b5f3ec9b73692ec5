"""Discrete prolate spheroidal (Slepian) sequences.

Computed from the classic symmetric tridiagonal matrix that commutes with
the sinc concentration kernel (Slepian, Bell Syst. Tech. J. 57(5), 1978),
which is numerically stable at large lengths.  Its eigenvectors are the
kernel's, and its eigenvalue order is their concentration order, so its top
``count`` eigenvectors are the most concentrated sequences, already in
order, and no sinc kernel is formed or applied.  The dense kernel serves
only as a small-N test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

# The singular values of the pair products kept by DPSSBasis.pair_factor lie
# above this fraction of the largest; the rest are rounding-sized.
_PAIR_RANK_CUT = 1e-15


@dataclass(frozen=True)
class DPSSBasis:
    """The ``count`` most band-concentrated orthonormal sequences, and the
    read-only arrays a least-squares fit derives from them, computed once:
    the sequences as complex numbers and a low-rank factor of the products
    of each sequence pair."""

    length: int
    time_half_bandwidth: float
    count: int
    sequences: np.ndarray  # (count, length), orthonormal rows, most concentrated first

    @cached_property
    def complex_sequences(self) -> np.ndarray:
        """The sequences as complex128, cast once rather than in every product."""
        return _read_only(self.sequences.astype(np.complex128))

    @property
    def pair_products(self) -> np.ndarray:
        """P[n, k] = u_d[n] u_e[n] for the k-th pair (d, e) of triu_indices(count),
        built on each access: a fit reads only its factor, ``pair_factor``."""
        d, e = np.triu_indices(self.count)
        return _read_only(np.ascontiguousarray((self.sequences[d] * self.sequences[e]).T))

    @cached_property
    def pair_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, R) with pair_products = Q @ R to rounding: Q (length x r) has
        orthonormal columns, R (r x pairs) their singular values times the
        right singular vectors.  Products of band-limited sequences are
        band-limited too, so r is far below the pair count (62 of 300 pairs
        for 24 sequences of 512 samples); only singular values at or below
        _PAIR_RANK_CUT of the largest are dropped."""
        u, s, vt = np.linalg.svd(self.pair_products, full_matrices=False)
        r = int(np.count_nonzero(s > _PAIR_RANK_CUT * s[0]))
        return (_read_only(np.ascontiguousarray(u[:, :r])),
                _read_only(s[:r, None] * vt[:r]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _build(length: int, half_bandwidth: float, count: int) -> DPSSBasis:
    n = np.arange(length, dtype=np.float64)
    diag = ((length - 1) / 2.0 - n) ** 2 * math.cos(2 * math.pi * half_bandwidth)
    off = np.arange(1, length) * np.arange(length - 1, 0, -1) / 2.0
    _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(length - count, length - 1))
    seqs = np.ascontiguousarray(vec[:, ::-1].T)  # most concentrated first
    for row in seqs:
        nonzero = row[np.abs(row) > 1e-13 * np.abs(row).max()]
        if len(nonzero) and nonzero[0] < 0:
            row *= -1.0
    gram = seqs @ seqs.T
    if np.max(np.abs(gram - np.eye(count))) >= 1e-9:
        raise AssertionError("Slepian sequences lost orthonormality")
    return DPSSBasis(length, half_bandwidth, count, _read_only(seqs))


def generate_dpss(length: int, time_half_bandwidth: float, count: int) -> DPSSBasis:
    """The ``count`` most concentrated Slepian sequences of a given length.

    Sign convention: the first element of visible magnitude in each sequence
    is positive.  Results are cached by (length, bandwidth, count); the
    basis's arrays, derived ones included, are read-only.
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
