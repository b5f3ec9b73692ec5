import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanident.bem import CIREstimate
from chanident.features import (ENVELOPE_BINS, FEATURE_LENGTH, DDPDP,
                                FeatureVector, build_ddpdp, flatten_ddpdp, one_hot)
from chanident.profiles import MAX_DELAY_UNITS, load_profile
from chanident.simulate import SimConfig, generate_fading


def _estimate_from(gains):
    return CIREstimate(gains, tuple(range(gains.shape[0])), "true-sim")


def _full_grid_cir(label, n, seed):
    profile = load_profile(label)
    cir = generate_fading(profile, n, SimConfig(), seed=seed)
    gains = np.zeros((MAX_DELAY_UNITS, n), dtype=complex)
    gains[list(profile.delay_units)] = cir.gains
    return _estimate_from(gains)


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


class TestFlatten:
    def test_length_4800_for_full_grid(self):
        d = build_ddpdp(_full_grid_cir(1, 600, seed=2))
        v = flatten_ddpdp(d)
        assert v.shape == (FEATURE_LENGTH,)

    def test_layout_row_major(self):
        rng = np.random.default_rng(0)
        gains = rng.standard_normal((MAX_DELAY_UNITS, 500)) + 0j
        d = build_ddpdp(_estimate_from(gains))
        v = flatten_ddpdp(d)
        for l in (0, 5, 11):
            for b in (0, 146, 399):
                assert v[ENVELOPE_BINS * l + b] == d.bins[l, b]

    def test_round_trip(self):
        d = build_ddpdp(_full_grid_cir(2, 500, seed=3))
        v = flatten_ddpdp(d)
        assert np.array_equal(v.reshape(MAX_DELAY_UNITS, ENVELOPE_BINS), d.bins)

    def test_feature_vector_validates_length(self):
        with pytest.raises(ValueError, match="4800"):
            FeatureVector(np.zeros(4799))


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
    bad = np.zeros((1, ENVELOPE_BINS))
    bad[0, 0] = 0.5
    with pytest.raises(ValueError, match="sum"):
        DDPDP(bad)
