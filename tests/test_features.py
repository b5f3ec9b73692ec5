import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import zero_padded
from chanident.bem import estimate_cir_windowed
from chanident.features import ENVELOPE_BINS, FEATURE_LENGTH, DDPDP, build_ddpdp, one_hot
from chanident.modulation import random_frame
from chanident.profiles import MAX_DELAY_UNITS, load_profile
from chanident.simulate import CIRMatrix, SimConfig, add_awgn, apply_channel, generate_fading


def _estimate_from(gains):
    return CIRMatrix(gains, tuple(range(gains.shape[0])))


def _full_grid_cir(label, n, seed):
    return zero_padded(generate_fading(load_profile(label), n, SimConfig(), seed=seed))


class TestBuildDdpdp:
    def test_constant_envelope_lands_in_bin_146(self):
        gains = np.full((1, 500), 0.73 * np.exp(0.4j))
        d = build_ddpdp(_estimate_from(gains))
        assert d.bins[0, 146] == 1.0
        assert np.sum(d.bins[0]) == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        cir = _full_grid_cir(3, 2048, seed=1)
        d = build_ddpdp(cir)
        assert np.all(np.abs(d.bins.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(d.bins >= 0)

    def test_envelope_beyond_range_clipped_to_last_bin(self):
        gains = np.full((1, 400), 2.4 + 0j)
        d = build_ddpdp(_estimate_from(gains))
        assert d.bins[0, ENVELOPE_BINS - 1] == 1.0

    def test_too_few_samples_rejected(self):
        gains = np.ones((2, 399), dtype=complex)
        with pytest.raises(ValueError, match="399"):
            build_ddpdp(_estimate_from(gains))

    def test_scale_shift_moves_point_mass(self):
        # doubling the envelope doubles the bin index (up to a floor-induced
        # +1 and up to clipping at the top bin)
        for env in (0.11, 0.4, 0.73, 1.3):
            base = build_ddpdp(_estimate_from(np.full((1, 400), env + 0j)))
            double = build_ddpdp(_estimate_from(np.full((1, 400), 2 * env + 0j)))
            b0 = int(np.argmax(base.bins[0]))
            b1 = int(np.argmax(double.bins[0]))
            assert b1 == min(ENVELOPE_BINS - 1, 2 * b0) or b1 == 2 * b0 + 1

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_row_stochastic_for_random_cirs(self, seed):
        rng = np.random.default_rng(seed)
        gains = rng.standard_normal((3, 600)) * 0.7 + 1j * rng.standard_normal((3, 600))
        d = build_ddpdp(_estimate_from(gains))
        assert np.all(np.abs(d.bins.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(d.bins >= 0)

    @pytest.mark.parametrize("label", [1, 2, 6])
    def test_matches_histogram_of_every_row(self, label):
        # All-zero rows are written as a point mass in bin 0, not binned.
        cir = _full_grid_cir(label, 600, seed=4)
        env = np.abs(cir.gains)
        want = np.stack([np.histogram(np.minimum(r, 2.0 - 1e-9), ENVELOPE_BINS, (0.0, 2.0))[0]
                         for r in env]) / 600.0
        d = build_ddpdp(cir)
        assert np.array_equal(d.bins, want)
        zero = ~np.any(cir.gains, axis=1)
        assert zero.sum() == MAX_DELAY_UNITS - load_profile(label).tap_count
        assert np.all(d.bins[zero, 0] == 1.0)


class TestDelayGrid:
    """``build_ddpdp`` places each tap on the row of its delay unit."""

    @pytest.mark.parametrize("nu", [0.004, 0.02])
    @pytest.mark.parametrize("label", [1, 2, 3, 4, 5, 6])
    def test_profile_delays_equal_zero_padded_grid(self, label, nu):
        # Both the simulated gains and their BEM-LS estimate, at every scenario.
        n, cfg = 1200, SimConfig(normalized_doppler=nu)
        profile = load_profile(label)
        true = generate_fading(profile, n, cfg, seed=60 + label)
        frame = random_frame(n, seed=70 + label)
        rx = add_awgn(apply_channel(frame, true), 10.0, seed=80 + label)
        est = estimate_cir_windowed(rx, frame.samples, profile.delay_units,
                                    cfg.doppler_per_sample)
        for cir in (true, est):
            assert cir.delay_units == profile.delay_units
            assert np.array_equal(build_ddpdp(cir).bins, build_ddpdp(zero_padded(cir)).bins)

    def test_taps_land_on_their_rows_in_any_order(self):
        gains = np.stack([np.full(400, 0.73 + 0j), np.full(400, 1.3 + 0j)])
        d = build_ddpdp(CIRMatrix(gains, (9, 2)))
        assert d.bins.shape == (MAX_DELAY_UNITS, ENVELOPE_BINS)
        assert d.bins[9, 146] == 1.0 and d.bins[2, 260] == 1.0
        others = [r for r in range(MAX_DELAY_UNITS) if r not in (2, 9)]
        assert np.all(d.bins[others, 0] == 1.0)

    @pytest.mark.parametrize("delays", [(12,), (-1,), (3, 3)])
    def test_delays_off_the_grid_or_repeated_rejected(self, delays):
        gains = np.ones((len(delays), 400), dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"delay units {list(delays)}")):
            build_ddpdp(CIRMatrix(gains, delays))


class TestFlatten:
    def test_length_4800_for_full_grid(self):
        d = build_ddpdp(_full_grid_cir(1, 600, seed=2))
        assert d.values.shape == (FEATURE_LENGTH,)

    def test_layout_row_major(self):
        rng = np.random.default_rng(0)
        gains = rng.standard_normal((MAX_DELAY_UNITS, 500)) + 0j
        d = build_ddpdp(_estimate_from(gains))
        for l in (0, 5, 11):
            for b in (0, 146, 399):
                assert d.values[ENVELOPE_BINS * l + b] == d.bins[l, b]

    def test_round_trip(self):
        d = build_ddpdp(_full_grid_cir(2, 500, seed=3))
        assert np.array_equal(d.values.reshape(MAX_DELAY_UNITS, ENVELOPE_BINS), d.bins)

    def test_flat_and_matrix_forms_build_equal_bins(self):
        d = build_ddpdp(_full_grid_cir(4, 500, seed=5))
        flat, matrix = DDPDP(list(d.values)), DDPDP(d.bins.tolist())
        assert flat.bins.shape == matrix.bins.shape == (MAX_DELAY_UNITS, ENVELOPE_BINS)
        assert np.array_equal(flat.bins, matrix.bins)
        assert np.array_equal(flat.bins, d.bins)

    def test_feature_vector_validates_length(self):
        with pytest.raises(ValueError, match=re.escape("a flat 4800, not shape (4799,)")):
            DDPDP(np.zeros(FEATURE_LENGTH - 1))

    @pytest.mark.parametrize("shape", [(ENVELOPE_BINS, MAX_DELAY_UNITS), (FEATURE_LENGTH, 1),
                                       (1, ENVELOPE_BINS)])
    def test_other_shapes_refused_by_name(self, shape):
        # a transposed or column-shaped array must not be reshaped silently
        bins = np.zeros(shape)
        bins.reshape(-1)[::ENVELOPE_BINS] = 1.0
        with pytest.raises(ValueError, match=re.escape(
                f"bins must be 12 x 400 or a flat 4800, not shape {shape}")):
            DDPDP(bins)

    def test_values_is_a_read_only_view_of_bins(self):
        d = build_ddpdp(_full_grid_cir(1, 500, seed=6))
        assert not d.values.flags.writeable and not d.bins.flags.writeable
        assert np.shares_memory(d.values, d.bins)
        with pytest.raises(ValueError, match="read-only"):
            d.values[0] = 0.5

    def test_pickle_round_trip_is_checked_and_read_only(self):
        d = build_ddpdp(_full_grid_cir(1, 500, seed=6))
        back = pickle.loads(pickle.dumps(d))
        assert np.array_equal(back.bins, d.bins)
        assert not back.bins.flags.writeable and not back.values.flags.writeable
        bad = np.zeros(FEATURE_LENGTH)
        with pytest.raises(ValueError, match="every row must sum to 1"):
            pickle.loads(pickle.dumps(d).replace(d.bins.tobytes(), bad.tobytes()))

    def test_keeps_its_own_copy(self):
        bins = np.zeros(FEATURE_LENGTH)
        bins[::ENVELOPE_BINS] = 1.0
        d = DDPDP(bins)
        bins[0] = 7.0
        assert d.values[0] == 1.0 and not np.shares_memory(d.bins, bins)


class TestOneHot:
    def test_first_and_last(self):
        assert one_hot(1).tolist() == [1, 0, 0, 0, 0, 0]
        assert one_hot(6).tolist() == [0, 0, 0, 0, 0, 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(0)
        with pytest.raises(ValueError):
            one_hot(7)

    @given(st.integers(1, 6))
    def test_exactly_one_nonzero(self, label):
        v = one_hot(label)
        assert np.sum(v != 0) == 1
        assert v[label - 1] == 1.0


def test_rax6_vs_tux6_rows_distinguishable():
    # same delay set, different gain/Doppler statistics: matched rows of the
    # two scenarios' D-DPDPs must differ clearly in L1 distance
    n = 10_000
    a = build_ddpdp(_full_grid_cir(2, n, seed=11))  # RAx6
    b = build_ddpdp(_full_grid_cir(3, n, seed=12))  # TUx6
    taps = load_profile(2).delay_units
    for l in taps:
        l1 = np.sum(np.abs(a.bins[l] - b.bins[l]))
        assert l1 > 0.1, f"row {l}: L1 distance {l1}"


def test_ddpdp_validates_row_sums():
    bad = np.zeros((MAX_DELAY_UNITS, ENVELOPE_BINS))
    bad[:, 0] = 1.0
    bad[7, 0] = 0.5
    with pytest.raises(ValueError, match="sum"):
        DDPDP(bad)


def test_ddpdp_refuses_nan_bins():
    # a NaN compares false either way, so "any(bins < 0)" let it through
    with pytest.raises(ValueError, match="finite, non-negative numbers"):
        DDPDP(np.full((MAX_DELAY_UNITS, ENVELOPE_BINS), np.nan))
    bins = np.zeros((MAX_DELAY_UNITS, ENVELOPE_BINS))
    bins[:, 0] = 1.0
    for bad in (np.nan, np.inf):
        bins[3, 7] = bad
        with pytest.raises(ValueError, match="finite, non-negative numbers"):
            DDPDP(bins)
