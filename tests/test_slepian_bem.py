import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, toeplitz

from _oracles import fftconvolve_concentrations, scattered_gram, sinc_kernel_row
from chanident import bem, slepian
from chanident.bem import bem_ls_estimate, estimate_cir_windowed
from chanident.errors import IdentifiabilityError
from chanident.modulation import random_frame
from chanident.profiles import DopplerSpectrum, ScenarioProfile, load_profile
from chanident.simulate import (CIRMatrix, ComplexSignal, SimConfig, add_awgn,
                                apply_channel, generate_fading)
from chanident.slepian import basis_dimension, generate_dpss


def dense_kernel_dpss(n, w, d):
    """Oracle: eigendecomposition of the dense sinc concentration kernel."""
    kernel = toeplitz(sinc_kernel_row(n, w)[n - 1:])
    vals, vecs = eigh(kernel)
    vals, vecs = vals[::-1][:d], vecs[:, ::-1][:, :d].T
    for row in vecs:
        nz = row[np.abs(row) > 1e-13 * np.abs(row).max()]
        if len(nz) and nz[0] < 0:
            row *= -1
    return vals, vecs


class TestGenerateDpss:
    def test_orthonormal_small(self):
        b = generate_dpss(8, 0.1, 2)
        gram = b.sequences @ b.sequences.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-9

    def test_concentrations_high_for_narrow_band(self):
        b = generate_dpss(64, 0.05, 3)
        assert np.all(fftconvolve_concentrations(b.sequences, 0.05) > 0.99)

    def test_concentrations_descending_in_unit_interval(self):
        for n, w, d in [(8, 0.1, 2), (64, 0.05, 6), (100, 0.02, 8)]:
            lam = fftconvolve_concentrations(generate_dpss(n, w, d).sequences, w)
            assert np.all(np.diff(lam) <= 1e-12)  # ties near 1 round either way
            assert np.all(lam > 0)
            assert np.all(lam <= 1)

    @pytest.mark.parametrize("n,w,d", [(8, 0.1, 2), (32, 0.1, 5), (48, 0.08, 5), (64, 0.05, 4)])
    def test_matches_dense_kernel_oracle(self, n, w, d):
        vals, vecs = dense_kernel_dpss(n, w, d)
        b = generate_dpss(n, w, d)
        assert np.max(np.abs(b.sequences - vecs)) < 1e-6
        assert np.max(np.abs(fftconvolve_concentrations(b.sequences, w) - vals)) < 1e-6

    def test_full_basis_reconstructs_exactly(self):
        n = 24
        b = generate_dpss(n, 0.1, n)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n)
        coeffs = b.sequences @ x
        assert np.allclose(b.sequences.T @ coeffs, x, atol=1e-10)

    def test_sign_convention(self):
        b = generate_dpss(33, 0.07, 4)
        for row in b.sequences:
            nz = row[np.abs(row) > 1e-13 * np.abs(row).max()]
            assert nz[0] > 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_dpss(16, 0.6, 2)
        with pytest.raises(ValueError):
            generate_dpss(16, 0.1, 0)
        with pytest.raises(ValueError):
            generate_dpss(16, 0.1, 17)

    def test_cached_instances_shared(self):
        assert generate_dpss(64, 0.05, 3) is generate_dpss(64, 0.05, 3)


@pytest.mark.parametrize("nu", [0.004, 0.01, 0.02])
@pytest.mark.parametrize("n", [512, 688, 767])
def test_basis_holds_the_most_concentrated_sequences_in_order(n, nu):
    # The windows and bandwidths estimate_cir_windowed builds: the order of
    # the tridiagonal eigenvalues is the order of concentration, and the
    # sequence left out is less concentrated than every one kept.
    w, d = max(nu, 1.0 / (4.0 * n)), basis_dimension(nu, n)
    lam = fftconvolve_concentrations(generate_dpss(n, w, d).sequences, w)
    assert np.all(np.diff(lam) <= 1e-12)
    extra = fftconvolve_concentrations(generate_dpss(n, w, d + 1).sequences[d:], w)
    assert lam[-1] >= extra[0]


class TestBasisDimension:
    def test_reference_sizes(self):
        assert basis_dimension(0.004, 512) == 8
        assert basis_dimension(0.004, 25600) == 208

    def test_zero_doppler_limit(self):
        assert basis_dimension(0.0, 512) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            basis_dimension(-0.1, 64)

    def test_rejects_empty_length(self):
        with pytest.raises(ValueError, match="^length must be >= 1$"):
            basis_dimension(0.01, 0)


def _single_tap_profile():
    return ScenarioProfile(1, "t", (0.0,), (DopplerSpectrum("jakes"),))


def _received(gains, frame, snr_db=None, seed=0):
    n = gains.shape[1]
    cir = CIRMatrix(gains, tuple(range(gains.shape[0])))
    rx = apply_channel(frame, cir)
    return add_awgn(rx, snr_db, seed=seed)


class TestBemLs:
    def test_static_single_tap(self):
        # W small enough that the leading Slepian is flat to ~1e-9, so a
        # one-term basis reproduces a constant gain within the tolerance
        n = 512
        frame = random_frame(n, seed=1)
        gains = np.full((1, n), 0.7 - 0.2j)
        rx = _received(gains, frame)
        basis = generate_dpss(n, 1e-7, 1)
        est = bem_ls_estimate(rx, frame.samples, (0,), basis)
        assert np.allclose(est.gains[0], 0.7 - 0.2j, atol=1e-8)

    def test_in_span_reconstruction_machine_exact(self):
        n, d = 256, 5
        basis = generate_dpss(n, 0.01, d)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        gains = coeffs @ basis.sequences
        frame = random_frame(n, seed=4)
        rx = _received(gains, frame)
        est = bem_ls_estimate(rx, frame.samples, (0, 1), basis)
        nmse = np.sum(np.abs(est.gains - gains) ** 2) / np.sum(np.abs(gains) ** 2)
        assert nmse < 1e-16

    def test_jakes_tap_nmse_better_than_minus_20db(self):
        n, nu = 512, 0.004
        cfg = SimConfig(normalized_doppler=nu)
        basis = generate_dpss(n, nu, basis_dimension(nu, n))
        profile = _single_tap_profile()
        nmses = []
        for trial in range(50):
            true = generate_fading(profile, n, cfg, seed=2000 + trial)
            frame = random_frame(n, seed=3000 + trial)
            rx = _received(true.gains, frame, snr_db=30.0, seed=trial)
            est = bem_ls_estimate(rx, frame.samples, (0,), basis)
            nmses.append(np.sum(np.abs(est.gains - true.gains) ** 2)
                         / np.sum(np.abs(true.gains) ** 2))
        assert 10 * np.log10(np.mean(nmses)) < -20.0

    def test_nmse_monotone_in_snr(self):
        n, nu = 512, 0.004
        cfg = SimConfig(normalized_doppler=nu)
        basis = generate_dpss(n, nu, basis_dimension(nu, n))
        profile = _single_tap_profile()
        means = []
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
            nm = []
            for trial in range(50):
                true = generate_fading(profile, n, cfg, seed=100 + trial)
                frame = random_frame(n, seed=200 + trial)
                rx = _received(true.gains, frame, snr_db=snr, seed=trial)
                est = bem_ls_estimate(rx, frame.samples, (0,), basis)
                nm.append(np.sum(np.abs(est.gains - true.gains) ** 2)
                          / np.sum(np.abs(true.gains) ** 2))
            means.append(np.mean(nm))
        assert np.all(np.diff(means) < 0)

    def test_residual_orthogonal_to_regressors(self):
        # normal-equations check: the residual is orthogonal to every
        # regressor column u_d[n] x[n]
        n = 256
        nu = 0.01
        cfg = SimConfig(normalized_doppler=nu)
        profile = _single_tap_profile()
        true = generate_fading(profile, n, cfg, seed=5)
        frame = random_frame(n, seed=6)
        rx = _received(true.gains, frame, snr_db=10.0, seed=7)
        basis = generate_dpss(n, nu, basis_dimension(nu, n))
        est = bem_ls_estimate(rx, frame.samples, (0,), basis)
        a = (frame.samples[:, None] * basis.sequences.T).astype(complex)
        resid = rx.samples - frame.samples * est.gains[0]
        lhs = np.abs(a.conj().T @ resid)
        scale = np.linalg.norm(a, axis=0) * np.linalg.norm(resid)
        assert np.all(lhs <= 1e-8 * scale)

    def test_lengths_other_than_the_received_refused(self):
        frame = random_frame(64, seed=1)
        with pytest.raises(ValueError, match="^basis length 32 != received length 64$"):
            bem_ls_estimate(frame, frame.samples, (0,), generate_dpss(32, 0.01, 3))
        basis = generate_dpss(64, 0.01, 3)
        for estimate in (lambda x: bem_ls_estimate(frame, x, (0,), basis),
                         lambda x: estimate_cir_windowed(frame, x, (0,), 0.01)):
            with pytest.raises(ValueError, match="^frame length 63 != received length 64$"):
                estimate(frame.samples[:63])

    def test_one_sample_basis_and_fit(self):
        assert np.array_equal(generate_dpss(1, 0.25, 1).sequences, [[1.0]])
        # nu = 0 fits a 1-sample window on one sequence at the 1/(4 w) floor
        est = estimate_cir_windowed(ComplexSignal([2 + 1j]), np.array([1j]), (0,), 0.0)
        assert np.allclose(est.gains, [[1 - 2j]], rtol=0, atol=1e-15)

    def test_identifiability_error_names_dimensions(self):
        n = 10
        frame = random_frame(n, seed=8)
        basis = generate_dpss(n, 0.05, 8)  # 10 observations < 2 x 8 unknowns
        with pytest.raises(IdentifiabilityError, match="2 delays x 8"):
            bem_ls_estimate(ComplexSignal(np.ones(n)), frame.samples, (0, 1), basis)


class TestWindowedEstimation:
    def test_matches_single_window_when_window_covers_frame(self):
        n, nu = 256, 0.01
        cfg = SimConfig(normalized_doppler=nu)
        true = generate_fading(_single_tap_profile(), n, cfg, seed=21)
        frame = random_frame(n, seed=22)
        rx = _received(true.gains, frame, snr_db=20.0, seed=23)
        basis = generate_dpss(n, nu, basis_dimension(nu, n))
        one = bem_ls_estimate(rx, frame.samples, (0,), basis)
        win = estimate_cir_windowed(rx, frame.samples, (0,), nu, window_len=n)
        assert np.allclose(one.gains, win.gains, atol=1e-9)

    def test_long_frame_multiple_windows(self):
        n, nu = 2048, 0.004
        cfg = SimConfig(normalized_doppler=nu)
        true = generate_fading(_single_tap_profile(), n, cfg, seed=31)
        frame = random_frame(n, seed=32)
        rx = _received(true.gains, frame, snr_db=30.0, seed=33)
        est = estimate_cir_windowed(rx, frame.samples, (0,), nu, window_len=512)
        assert est.n_samples == n
        nmse = np.sum(np.abs(est.gains - true.gains) ** 2) / np.sum(np.abs(true.gains) ** 2)
        assert 10 * np.log10(nmse) < -20.0

    def test_multi_tap_grid_with_empty_rows(self):
        # fit over a 4-row grid when only rows 0 and 2 carry energy
        n, nu = 512, 0.004
        cfg = SimConfig(normalized_doppler=nu)
        profile = ScenarioProfile(1, "t2", (0.0, -3.0), (DopplerSpectrum("jakes"),) * 2)
        true = generate_fading(profile, n, cfg, seed=41)
        frame = random_frame(n, seed=42)
        gains_full = np.zeros((4, n), dtype=complex)
        gains_full[0], gains_full[2] = true.gains[0], true.gains[1]
        cir = CIRMatrix(gains_full, (0, 1, 2, 3))
        rx = add_awgn(apply_channel(frame, cir), 30.0, seed=43)
        est = estimate_cir_windowed(rx, frame.samples, (0, 1, 2, 3), nu, window_len=512)
        err = np.sum(np.abs(est.gains[[0, 2]] - gains_full[[0, 2]]) ** 2)
        assert 10 * np.log10(err / np.sum(np.abs(gains_full) ** 2)) < -20.0
        # empty rows carry only the estimator's noise floor
        assert np.mean(np.abs(est.gains[[1, 3]]) ** 2) < 0.01 * np.mean(np.abs(gains_full[[0, 2]]) ** 2)

    @pytest.mark.parametrize("n", [1200, 25600])
    def test_estimate_is_read_only_on_the_given_delays(self, n):
        # 25 600 samples make 50 windows; the delays keep the order given.
        profile = load_profile(3)
        cfg = SimConfig(normalized_doppler=0.004)
        true = generate_fading(profile, n, cfg, seed=51)
        frame = random_frame(n, seed=52)
        rx = add_awgn(apply_channel(frame, true), 10.0, seed=53)
        delays = profile.delay_units[::-1]
        est = estimate_cir_windowed(rx, frame.samples, delays, cfg.doppler_per_sample)
        assert est.delay_units == delays
        assert est.gains.shape == (len(delays), n)
        assert est.gains.flags.c_contiguous and not est.gains.flags.writeable

    def test_silent_frame_is_singular(self):
        # An all-zero frame gives a zero Gram matrix, which has no Cholesky
        # factor; the error names the window whose fit failed.
        n = 1024
        rx = ComplexSignal(np.ones(n, dtype=complex))
        with pytest.raises(IdentifiabilityError,
                           match=r"^window \[0, 512\): normal equations singular "
                                 r"for 2 delays x \d+ basis terms from 512 observations$"):
            estimate_cir_windowed(rx, np.zeros(n, dtype=complex), (0, 3), 0.004,
                                  window_len=512)

    def test_duplicate_delays_rejected(self):
        frame = random_frame(64, seed=1)
        with pytest.raises(ValueError, match="unique"):
            estimate_cir_windowed(frame, frame.samples, (0, 0), 0.01)

    @pytest.mark.parametrize("grid", [(0, 1.0), (True, 2), (0, "1"), (0, [1]), (np.float64(0),)])
    def test_non_integer_delays_rejected(self, grid):
        frame = random_frame(64, seed=1)
        with pytest.raises(ValueError, match="integers"):
            estimate_cir_windowed(frame, frame.samples, grid, 0.01)

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf, 0.7, 0.5, -1e-3])
    def test_doppler_outside_simconfig_range_refused(self, nu):
        # NaN failed in int(), 0.7 in the Slepian bandwidth check and inf with
        # an OverflowError, none of them naming the Doppler
        frame = random_frame(64, seed=1)
        with pytest.raises(ValueError,
                           match=r"^normalized_doppler must be finite and in \[0, 0.5\)"):
            estimate_cir_windowed(frame, frame.samples, (0, 1), nu)

    @pytest.mark.parametrize("grid, message", [
        ((), "delay_grid must name at least one delay"),
        ((0, 64), "delay_grid entries must be < the signal length 64, got 64"),
    ])
    def test_empty_grid_or_delay_past_the_signal_refused(self, grid, message):
        # () failed in a reshape; a delay past the signal in a singular fit
        frame = random_frame(64, seed=1)
        basis = generate_dpss(64, 0.01, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_cir_windowed(frame, frame.samples, grid, 0.01)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bem_ls_estimate(frame, frame.samples, grid, basis)

    def test_numpy_integer_delays_accepted(self):
        frame = random_frame(64, seed=1)
        a = estimate_cir_windowed(frame, frame.samples, np.arange(2), 0.01)
        b = estimate_cir_windowed(frame, frame.samples, (0, 1), 0.01)
        assert a.delay_units == (0, 1) and type(a.delay_units[1]) is int
        assert np.array_equal(a.gains, b.gains)


def _dense_normal_equations(shifts, samples, basis):
    """Reference: A^H A and A^H b from the dense regressor
    A[n, l*D + d] = u_d[n] * shifts[l, n]."""
    a = (shifts.T[:, :, None] * basis.sequences.T[:, None, :]).reshape(basis.length, -1)
    return a.conj().T @ a, a.conj().T @ samples


def _assert_matches_dense(shifts, samples, basis):
    gram, rhs = bem._normal_equations(shifts, samples, basis)
    dense_gram, dense_rhs = _dense_normal_equations(shifts, samples, basis)
    assert np.max(np.abs(gram - dense_gram)) <= 1e-12 * np.max(np.abs(dense_gram))
    assert np.max(np.abs(rhs - dense_rhs)) <= 1e-12 * np.max(np.abs(dense_rhs))


class TestStructuredNormalEquations:
    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(8, 48), count=st.integers(1, 6),
           half_bandwidth=st.floats(0.01, 0.25),
           delays=st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True),
           start=st.integers(0, 16), seed=st.integers(0, 2 ** 32 - 1))
    @example(length=32, count=1, half_bandwidth=0.05, delays=[0], start=0, seed=1)
    @example(length=40, count=4, half_bandwidth=0.05, delays=[0, 3, 7], start=0, seed=2)
    @example(length=24, count=3, half_bandwidth=0.1, delays=[2, 9], start=5, seed=3)
    def test_matches_dense_gram(self, length, count, half_bandwidth, delays, start, seed):
        # A random complex frame (not unit-modulus); start 0 is a first window
        # whose delayed rows are zero-padded.
        rng = np.random.default_rng(seed)
        frame = rng.standard_normal(start + length) + 1j * rng.standard_normal(start + length)
        samples = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        shifts = bem._shifted_frame(frame, delays, 0, start + length)[:, start:]
        # a window's own rows are the whole frame's, zero padding included
        assert np.array_equal(bem._shifted_frame(frame, delays, start, start + length), shifts)
        basis = generate_dpss(length, half_bandwidth, count)
        _assert_matches_dense(shifts, samples, basis)

    def test_products_follow_basis_values_across_cache_eviction(self):
        # An evicted basis is freed, and a later one may reuse its id: each
        # basis's products must follow its own sequences.
        rng = np.random.default_rng(4)
        d, e = np.triu_indices(3)
        for length in (40, 56):
            slepian._build.cache_clear()
            basis = generate_dpss(length, 0.05, 3)
            products, sequences = basis.pair_products, basis.complex_sequences
            assert np.array_equal(products, (basis.sequences[d] * basis.sequences[e]).T)
            assert np.array_equal(sequences, basis.sequences)
            assert sequences.dtype == np.complex128
            assert not (products.flags.writeable or sequences.flags.writeable)
            frame = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            samples = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            _assert_matches_dense(bem._shifted_frame(frame, (0, 2), 0, length), samples, basis)
            del basis


class TestPairFactor:
    @settings(max_examples=80, deadline=None)
    @given(length=st.integers(1, 96), half_bandwidth=st.floats(0.001, 0.49),
           count=st.integers(1, 12))
    @example(length=1, half_bandwidth=0.1, count=1)
    @example(length=512, half_bandwidth=0.004, count=8)
    @example(length=512, half_bandwidth=0.02, count=24)
    def test_factor_reproduces_the_pair_products(self, length, half_bandwidth, count):
        count = min(count, length)
        basis = generate_dpss(length, half_bandwidth, count)
        products = basis.pair_products
        q, r = basis.pair_factor
        pairs = count * (count + 1) // 2
        assert q.shape[0] == length and r.shape == (q.shape[1], pairs)
        assert 1 <= q.shape[1] <= min(length, pairs)
        assert not (q.flags.writeable or r.flags.writeable)
        # The SVD's backward error is relative to the largest singular
        # value; a 3000-case scan over this range reached 19 ulps of it.
        largest = np.linalg.norm(products, 2)
        assert np.max(np.abs(q @ r - products)) <= 64 * np.finfo(float).eps * largest
        assert np.allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-13)

    def test_factor_is_computed_once_per_basis(self):
        basis = generate_dpss(64, 0.05, 6)
        assert basis.pair_factor is basis.pair_factor


class TestGatherGram:
    @pytest.mark.parametrize("taps", [1, 4, 6, 12])
    @pytest.mark.parametrize("count", [1, 8, 24])
    def test_gather_matches_the_block_scatter_bit_for_bit(self, taps, count):
        rng = np.random.default_rng(taps * 100 + count)
        w = rng.standard_normal((taps * (taps + 1), count * (count + 1) // 2))
        gram = bem._gather_gram(w, taps, count)
        assert gram.flags.f_contiguous and gram.dtype == np.complex128
        assert gram.tobytes(order="F") == scattered_gram(w, taps, count).tobytes(order="F")

    @pytest.mark.parametrize("taps, count", [(1, 1), (4, 8), (12, 24)])
    def test_index_cache_is_bounded(self, taps, count):
        index = bem._gram_index(taps, count)
        # one index holds as many bytes as one Gram matrix, 16 U^2
        assert index.nbytes == 16 * (taps * count) ** 2 and index.dtype == np.intp
        assert not index.flags.writeable
        assert bem._gram_index.cache_info().maxsize <= 16
