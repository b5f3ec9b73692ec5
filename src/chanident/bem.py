"""Basis-expansion least-squares estimation of time-varying tap gains.

Each tap's gain trajectory over a window is modelled as a coefficient mix of
Slepian sequences whose band matches the Doppler spread; the coefficients of
all (delay, basis-order) pairs are solved jointly from every received
sample of a fully known frame.  Long frames are fitted window by window with
independent coefficient sets and the reconstructions concatenated.

The normal equations are assembled from their structure rather than from
the dense regressor (Zemen & Mecklenbraeker, IEEE TSP 53(9), 2005): every
Gram block is G[(l,d),(m,e)] = sum_n conj(x_l[n]) x_m[n] u_d[n] u_e[n],
symmetric in (d, e), and G is Hermitian, so one real matrix product of the
M delay-pair products with the basis's K pair products P[n, (d<=e)] =
u_d[n] u_e[n] gives every distinct entry.  P is nearly rank-deficient, and
the product runs through its factor P = Q R of rank r, at 2 (2M) (W + K) r
flops for a W-sample window rather than 2 (2M) W K: r is 27 of K = 36 at
nu = 0.004 and 62 of 300 at nu = 0.02, for 512-sample windows.  The entries
fill only G's upper block triangle, all that LAPACK's Cholesky xPOTRF reads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .errors import IdentifiabilityError
from .simulate import CIRMatrix, ComplexSignal, SimConfig
from .slepian import DPSSBasis, basis_dimension, generate_dpss

DEFAULT_WINDOW_LEN = 512


def _shifted_frame(frame: np.ndarray, delays, start: int, stop: int) -> np.ndarray:
    """Rows x[n - tau_l] for start <= n < stop, zeros before the frame."""
    out = np.zeros((len(delays), stop - start), dtype=np.complex128)
    for j, d in enumerate(delays):
        first = min(max(d, start), stop)  # the first n with n - tau_l >= 0
        out[j, first - start:] = frame[first - d:stop - d]
    return out


@lru_cache(maxsize=16)
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j) of triu_indices(size), i <= j, the mask of the
    diagonal pairs i == j, and the size x size matrix that holds the number
    of pair (i, j) at both [i, j] and [j, i]; all read-only."""
    i, j = np.triu_indices(size)
    number = np.empty((size, size), dtype=np.intp)
    number[i, j] = number[j, i] = np.arange(len(i))
    pairs = (i, j, i == j, number)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _normal_equations(shifts: np.ndarray, samples: np.ndarray,
                      basis: DPSSBasis) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and right-hand side of the least-squares model
    y[n] = sum_l sum_d c[l, d] u_d[n] shifts[l, n] over every n.

    ``shifts`` and ``samples`` cover the basis length.  The unknowns are
    ordered l * D + d.  The Gram matrix is returned in Fortran order, the
    layout LAPACK solves in place.  Only its upper block triangle is filled,
    as the Cholesky solve reads no other entry; the blocks below are zero.
    """
    taps, count = len(shifts), basis.count
    li, lj, diagonal, _ = _pairs(taps)
    conj_shifts = shifts.conj()
    z = conj_shifts[li] * shifts[lj]
    z.imag[diagonal] = 0.0  # |x_l|^2 exactly, so diagonal blocks stay Hermitian
    # Real operands: a complex-by-real product would be promoted to complex.
    q, r = basis.pair_factor
    w = (np.concatenate((z.real, z.imag)) @ q) @ r
    *_, basis_pair = _pairs(count)
    blocks = (w[:len(li)] + 1j * w[len(li):])[:, basis_pair]
    # G^T in C order, so that its transpose is G in Fortran order: block
    # (li, lj) of G, li <= lj, is block (lj, li) of G^T.
    gram_t = np.zeros((taps, count, taps, count), dtype=np.complex128)
    gram_t[lj, :, li, :] = blocks
    rhs = (conj_shifts * samples) @ basis.complex_sequences.T
    return gram_t.reshape(taps * count, -1).T, rhs.reshape(-1)


def _fit(shifts: np.ndarray, samples: np.ndarray, basis: DPSSBasis,
         where: str = "") -> np.ndarray:
    """Least-squares basis coefficients ``c[l, d]``; ``where`` prefixes
    error messages with the location of the fit."""
    taps, count, observed = len(shifts), basis.count, basis.length
    if observed < taps * count:
        raise IdentifiabilityError(
            f"{where}{observed} observations cannot identify {taps} delays x "
            f"{count} basis terms = {taps * count} unknowns")
    gram, rhs = _normal_equations(shifts, samples, basis)
    # Cholesky solve of the Hermitian positive-definite Gram matrix, in place
    # on the Fortran-order arrays; info > 0 is a leading minor that is not
    # positive definite, so G is singular.
    _, coeffs, info = lapack.zposv(gram, rhs, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise IdentifiabilityError(
            f"{where}normal equations singular for {taps} delays x {count} basis "
            f"terms from {observed} observations")
    return coeffs.reshape(taps, count)


def _unique_delays(delay_grid, n: int) -> tuple[int, ...]:
    """The delays of ``delay_grid``, refused unless they are distinct
    integers inside a received signal of ``n`` samples."""
    delays = tuple(delay_grid)
    if not delays:
        raise ValueError("delay_grid must name at least one delay")
    if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in delays):
        raise ValueError(f"delay_grid entries must be integers, got {list(delays)}")
    delays = tuple(int(d) for d in delays)
    if len(set(delays)) != len(delays):
        raise ValueError("delay_grid entries must be unique")
    if any(d < 0 for d in delays):
        raise ValueError("delay_grid entries must be >= 0")
    if max(delays) >= n:
        raise ValueError(f"delay_grid entries must be < the signal length {n}, "
                         f"got {max(delays)}")
    return delays


def bem_ls_estimate(received: ComplexSignal, frame: np.ndarray, delay_grid,
                    basis: DPSSBasis) -> CIRMatrix:
    """The gains mu_l[n] = sum_d c[l, d] u_d[n] of the least-squares fit of
    y[n] = sum_l sum_d c[l, d] * u_d[n] * x[n - tau_l] over every sample,
    with ``frame`` the known transmitted x."""
    n = len(received)
    delays = _unique_delays(delay_grid, n)
    if basis.length != n:
        raise ValueError(f"basis length {basis.length} != received length {n}")
    if len(frame) != n:
        raise ValueError(f"frame length {len(frame)} != received length {n}")
    coeffs = _fit(_shifted_frame(frame, delays, 0, n), received.samples, basis)
    return CIRMatrix._adopt(coeffs @ basis.complex_sequences, delays)


def window_plan(n: int, window_len: int, normalized_doppler: float,
                taps: int) -> list[tuple[int, int, float, int]]:
    """The windows ``estimate_cir_windowed`` fits over ``n`` samples, as
    (start, stop, half-bandwidth, basis size) of each window's Slepian
    basis: ``window_len`` samples each, with a tail shorter than half a
    window merged into the last one.  The half-bandwidth is the Doppler,
    floored at 1/(4 w) for a w-sample window: a Slepian basis needs a
    positive band, and the floor lets nu = 0 fit.

    Raises ``IdentifiabilityError`` naming ``window_len`` when a window has
    fewer samples than the ``taps`` x basis-size unknowns of its fit.
    """
    starts = list(range(0, n, window_len))
    if len(starts) > 1 and n - starts[-1] < window_len // 2:
        starts.pop()
    plan = [(w0, w1, max(normalized_doppler, 1.0 / (4.0 * (w1 - w0))),
             min(basis_dimension(normalized_doppler, w1 - w0), w1 - w0))
            for w0, w1 in zip(starts, starts[1:] + [n])]
    for w0, w1, _, count in plan:
        if w1 - w0 < taps * count:
            raise IdentifiabilityError(
                f"window_len {window_len} leaves a {w1 - w0}-sample window, fewer "
                f"observations than the {taps} taps x {count} basis terms "
                f"= {taps * count} unknowns of BEM-LS")
    return plan


def estimate_cir_windowed(received: ComplexSignal, frame: np.ndarray, delay_grid,
                          normalized_doppler: float,
                          window_len: int = DEFAULT_WINDOW_LEN) -> CIRMatrix:
    """Windowed BEM-LS over a long frame.

    Windows are fitted independently, each on the basis ``window_plan``
    gives it; a short tail is merged into the final window.  The known
    ``frame`` is global, so regressors near a window's start reach back
    into the previous window's symbols.  ``normalized_doppler`` must be one
    ``SimConfig`` takes.
    """
    SimConfig(normalized_doppler)
    n = len(received)
    delays = _unique_delays(delay_grid, n)
    # bool is an int subclass, and a float fails in range() unnamed
    if (isinstance(window_len, bool) or not isinstance(window_len, (int, np.integer))
            or window_len < 2):
        raise ValueError(f"window_len must be an int >= 2, not {window_len!r}")
    if len(frame) != n:
        raise ValueError(f"frame length {len(frame)} != received length {n}")
    gains = np.empty((len(delays), n), dtype=np.complex128)  # windows cover [0, n)
    for w0, w1, half_bandwidth, count in window_plan(n, window_len, normalized_doppler,
                                                     len(delays)):
        basis = generate_dpss(w1 - w0, half_bandwidth, count)
        coeffs = _fit(_shifted_frame(frame, delays, w0, w1), received.samples[w0:w1], basis,
                      where=f"window [{w0}, {w1}): ")
        gains[:, w0:w1] = coeffs @ basis.complex_sequences
    return CIRMatrix._adopt(gains, delays)
