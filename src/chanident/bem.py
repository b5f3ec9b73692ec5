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
delay-pair products with the cached basis-pair products P[n, (d<=e)] =
u_d[n] u_e[n] gives every distinct entry.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from . import slepian
from .errors import IdentifiabilityError
from .simulate import CIRMatrix, ComplexSignal, SimConfig
from .slepian import DPSSBasis, basis_dimension, generate_dpss

DEFAULT_WINDOW_LEN = 512


def _shifted_frame(frame: np.ndarray, delays) -> np.ndarray:
    """Rows x[n - tau_l] for every frame index n, zeros before the frame."""
    n = len(frame)
    out = np.zeros((len(delays), n), dtype=np.complex128)
    for j, d in enumerate(delays):
        out[j, min(d, n):] = frame[:max(n - d, 0)]
    return out


@lru_cache(maxsize=16)
def _pair_products(length: int, half_bandwidth: float, count: int) -> np.ndarray:
    """P[n, k] = u_d[n] u_e[n] for the k-th pair (d, e) of triu_indices(count).

    Keyed by the basis parameters, never by a basis object: Slepian bases
    are themselves cached with eviction, so an object identity can return
    for a different basis.
    """
    u = slepian.generate_dpss(length, half_bandwidth, count).sequences
    d, e = np.triu_indices(count)
    products = np.ascontiguousarray((u[d] * u[e]).T)
    products.flags.writeable = False
    return products


@lru_cache(maxsize=16)
def _complex_sequences(length: int, half_bandwidth: float, count: int) -> np.ndarray:
    """The basis sequences as a read-only complex array, keyed as
    ``_pair_products`` is: a product with complex coefficients or samples
    would otherwise cast the real basis to complex in every window."""
    u = slepian.generate_dpss(length, half_bandwidth, count).sequences.astype(np.complex128)
    u.flags.writeable = False
    return u


@lru_cache(maxsize=16)
def _pair_index(count: int) -> np.ndarray:
    """index[d, e]: the column of the pair (min(d, e), max(d, e)) in the
    triu_indices(count) order of ``_pair_products``."""
    d, e = np.triu_indices(count)
    index = np.empty((count, count), dtype=np.intp)
    index[d, e] = index[e, d] = np.arange(len(d))
    index.flags.writeable = False
    return index


@lru_cache(maxsize=16)
def _tap_pairs(taps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The delay pairs (li, lj) of triu_indices(taps), li <= lj, and the
    mask of the diagonal pairs li == lj; all read-only."""
    li, lj = np.triu_indices(taps)
    diagonal = li == lj
    for a in (li, lj, diagonal):
        a.flags.writeable = False
    return li, lj, diagonal


def _normal_equations(shifts: np.ndarray, samples: np.ndarray,
                      basis: DPSSBasis) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and right-hand side of the least-squares model
    y[n] = sum_l sum_d c[l, d] u_d[n] shifts[l, n] over every n.

    ``shifts`` and ``samples`` cover the basis length.  The unknowns are
    ordered l * D + d.  The Gram matrix is returned in Fortran order, the
    layout LAPACK solves in place.
    """
    products = _pair_products(basis.length, basis.time_half_bandwidth, basis.count)
    taps, count = len(shifts), basis.count
    li, lj, diagonal = _tap_pairs(taps)
    conj_shifts = shifts.conj()
    z = conj_shifts[li] * shifts[lj]
    z.imag[diagonal] = 0.0  # |x_l|^2 exactly, so diagonal blocks stay Hermitian
    # Real operands: a complex-by-real product would be promoted to complex.
    w = np.concatenate((z.real, z.imag)) @ products
    # blocks[k, d, e] = G[(li[k], d), (lj[k], e)]; the mirrored block
    # G[(lj[k], e), (li[k], d)] is its conjugate, and blocks are symmetric.
    blocks = (w[:len(z)] + 1j * w[len(z):])[:, _pair_index(count)]
    # Fill the C-order array with conj(G): its transpose is G (Hermitian) in
    # Fortran order.  Diagonal blocks are real and written last, as G's are.
    conj_gram = np.empty((taps, count, taps, count), dtype=np.complex128)
    conj_gram[li, :, lj, :] = blocks.conj()
    conj_gram[lj, :, li, :] = blocks
    sequences = _complex_sequences(basis.length, basis.time_half_bandwidth, count)
    rhs = (conj_shifts * samples) @ sequences.T
    return conj_gram.reshape(taps * count, -1).T, rhs.reshape(-1)


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
    coeffs = _fit(_shifted_frame(frame, delays), received.samples, basis)
    return CIRMatrix._adopt(coeffs @ basis.sequences, delays)


def window_plan(n: int, window_len: int, normalized_doppler: float,
                taps: int) -> list[tuple[int, int, int]]:
    """The windows ``estimate_cir_windowed`` fits over ``n`` samples, as
    (start, stop, basis size): ``window_len`` samples each, with a tail
    shorter than half a window merged into the last one.

    Raises ``IdentifiabilityError`` naming ``window_len`` when a window has
    fewer samples than the ``taps`` x basis-size unknowns of its fit.
    """
    starts = list(range(0, n, window_len))
    if len(starts) > 1 and n - starts[-1] < window_len // 2:
        starts.pop()
    plan = [(w0, w1, min(basis_dimension(normalized_doppler, w1 - w0), w1 - w0))
            for w0, w1 in zip(starts, starts[1:] + [n])]
    for w0, w1, count in plan:
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

    Windows are fitted independently with a basis sized by
    ``basis_dimension`` for the window length; a short tail is merged into
    the final window.  The known ``frame`` is global, so regressors near a
    window's start reach back into the previous window's symbols.
    ``normalized_doppler`` must be one ``SimConfig`` takes.
    """
    SimConfig(normalized_doppler)
    n = len(received)
    delays = _unique_delays(delay_grid, n)
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    if len(frame) != n:
        raise ValueError(f"frame length {len(frame)} != received length {n}")
    shifts = _shifted_frame(frame, delays)
    gains = np.empty((len(delays), n), dtype=np.complex128)  # windows cover [0, n)
    for w0, w1, count in window_plan(n, window_len, normalized_doppler, len(delays)):
        wlen = w1 - w0
        basis = generate_dpss(wlen, max(normalized_doppler, 1.0 / (4.0 * wlen)), count)
        coeffs = _fit(shifts[:, w0:w1], received.samples[w0:w1], basis,
                      where=f"window [{w0}, {w1}): ")
        gains[:, w0:w1] = coeffs @ _complex_sequences(basis.length,
                                                      basis.time_half_bandwidth, count)
    return CIRMatrix._adopt(gains, delays)
