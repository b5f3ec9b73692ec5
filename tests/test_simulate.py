import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0
from scipy.stats import chi2

from chanident.mseq import MSequence
from chanident.profiles import DopplerSpectrum, ScenarioProfile, load_profile
from chanident import simulate
from chanident.simulate import (CIRMatrix, ComplexSignal, SimConfig, _band, _band_mass,
                                _synthesis_grid, add_awgn, apply_channel, generate_fading)


def _single_tap_profile(gain_db=0.0, kind="jakes"):
    spec = DopplerSpectrum(kind) if kind == "jakes" else DopplerSpectrum("gaussian", 0.7, 0.1)
    return ScenarioProfile(1, "test1", (gain_db,), (spec,))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.doppler_per_sample == cfg.normalized_doppler == 0.004

    def test_rejects_bad_doppler(self):
        with pytest.raises(ValueError):
            SimConfig(normalized_doppler=0.5)
        with pytest.raises(ValueError):
            SimConfig(normalized_doppler=-0.1)

    # the str, list and None raised a bare TypeError, and the bools passed as 0 and 1
    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf, "0.004", [0.004], None, False, True])
    def test_rejects_doppler_not_finite(self, nu):
        with pytest.raises(ValueError, match=re.escape(
                f"normalized_doppler must be finite and in [0, 0.5), got {nu!r}")):
            SimConfig(normalized_doppler=nu)

    @pytest.mark.parametrize("nu", [0, np.float64(0.004)])
    def test_takes_an_int_or_a_numpy_float(self, nu):
        assert SimConfig(normalized_doppler=nu).normalized_doppler == nu

    def test_the_doppler_is_the_only_field(self):
        # the symbol rate, samples per symbol and seed changed no record
        assert [f.name for f in fields(SimConfig)] == ["normalized_doppler"]

    @pytest.mark.parametrize("cls, names", [
        (ComplexSignal, ["samples"]), (CIRMatrix, ["gains", "delay_units"]),
        (MSequence, ["chips"]),
    ])
    def test_signals_carry_no_sample_period(self, cls, names):
        # one sample per delay unit: the grid is profiles', not each value's
        assert [f.name for f in fields(cls)] == names


class TestGenerateFading:
    def test_zero_doppler_freezes_taps(self):
        cfg = SimConfig(normalized_doppler=0.0)
        cir = generate_fading(load_profile(1), 256, cfg, seed=3)
        for row in cir.gains:
            assert np.all(row == row[0])
            assert row[0] != 0

    def test_deterministic_per_seed(self):
        cfg = SimConfig()
        a = generate_fading(load_profile(2), 500, cfg, seed=11)
        b = generate_fading(load_profile(2), 500, cfg, seed=11)
        c = generate_fading(load_profile(2), 500, cfg, seed=12)
        assert np.array_equal(a.gains, b.gains)
        assert not np.array_equal(a.gains, c.gains)

    def test_gains_read_only_and_not_shared(self):
        a = generate_fading(load_profile(6), 700, SimConfig(), seed=5)
        b = generate_fading(load_profile(6), 700, SimConfig(), seed=5)
        assert not a.gains.flags.writeable
        assert a.gains.flags.c_contiguous and a.gains.dtype == np.complex128
        assert not np.shares_memory(a.gains, b.gains)
        assert a.delay_units == load_profile(6).delay_units

    def test_jakes_autocorrelation_matches_bessel(self):
        # oracle: the Jakes spectrum's autocorrelation is J0(2 pi nu k),
        # evaluated numerically with scipy's Bessel function
        nu = 0.004
        cfg = SimConfig(normalized_doppler=nu)
        profile = _single_tap_profile()
        n, lags = 3000, np.arange(0, 501, 50)
        acc = np.zeros(len(lags))
        for r in range(100):
            x = generate_fading(profile, n, cfg, seed=1000 + r).gains[0]
            p = np.mean(np.abs(x) ** 2)
            for i, k in enumerate(lags):
                c = p if k == 0 else np.mean(x[: n - k] * np.conj(x[k:]))
                acc[i] += (c / p).real
        acc /= 100
        assert np.max(np.abs(acc - j0(2 * np.pi * nu * lags))) < 0.05

    def test_mean_power_matches_configured_gains(self):
        cfg = SimConfig(normalized_doppler=0.05)
        profile = load_profile(3)  # TUx6: gains from -10 to 0 dB
        powers = np.zeros(profile.tap_count)
        reps = 40
        for r in range(reps):
            cir = generate_fading(profile, 4096, cfg, seed=500 + r)
            powers += np.mean(np.abs(cir.gains) ** 2, axis=1)
        powers /= reps
        expected = np.array(profile.gains_linear())
        assert np.all(np.abs(powers / expected - 1) < 0.15)

    def test_rayleigh_envelope_chi2(self):
        # decimate to near-independent samples, then chi-square against the
        # Rayleigh CDF with the configured power (16 equal-probability bins)
        cfg = SimConfig(normalized_doppler=0.004)
        x = generate_fading(_single_tap_profile(), 200_000, cfg, seed=42).gains[0]
        env = np.abs(x[::500])
        edges = np.sqrt(-1.0 * np.log(1 - np.linspace(0, 1, 17)[:-1]))  # P = 1
        counts = np.histogram(env, bins=np.append(edges, np.inf))[0]
        expected = len(env) / 16
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, df=15)

    def test_taps_mutually_independent(self):
        cfg = SimConfig(normalized_doppler=0.05)
        cir = generate_fading(load_profile(1), 100_000, cfg, seed=7)
        g = cir.gains
        for i in range(4):
            for j in range(i + 1, 4):
                num = np.abs(np.mean(g[i] * np.conj(g[j])))
                den = np.sqrt(np.mean(np.abs(g[i]) ** 2) * np.mean(np.abs(g[j]) ** 2))
                assert num / den < 0.05

    def test_gaussian_spectrum_autocorrelation_closed_form(self):
        # oracle: a Gaussian power spectrum N(mu, sigma^2) has
        # autocorrelation exp(j 2 pi mu k) * exp(-2 pi^2 sigma^2 k^2)
        nu = 0.01
        prof = ScenarioProfile(1, "t", (0.0,), (DopplerSpectrum("gaussian", 0.7, 0.1),))
        cfg = SimConfig(normalized_doppler=nu)
        n, lags = 4000, np.arange(0, 200, 10)
        acc = np.zeros(len(lags), complex)
        reps = 150
        for r in range(reps):
            x = generate_fading(prof, n, cfg, seed=900 + r).gains[0]
            p = np.mean(np.abs(x) ** 2)
            for i, k in enumerate(lags):
                c = p if k == 0 else np.mean(x[k:] * np.conj(x[:-k]))
                acc[i] += c / p
        acc /= reps
        mu, sigma = 0.7 * nu, 0.1 * nu
        theory = np.exp(2j * np.pi * mu * lags - 2 * np.pi ** 2 * sigma ** 2 * lags ** 2)
        assert np.max(np.abs(acc - theory)) < 0.05

    def test_gaussian_spectrum_center_shows_in_phase_drift(self):
        # a spectrum centered at +0.7 fd makes E[x[n+k] conj(x[n])] rotate
        nu = 0.01
        cfg = SimConfig(normalized_doppler=nu)
        profile = _single_tap_profile(kind="gaussian")
        x = generate_fading(profile, 60_000, cfg, seed=9).gains[0]
        k = 10
        c = np.mean(x[k:] * np.conj(x[:-k]))
        expected_angle = 2 * np.pi * 0.7 * nu * k
        assert abs(np.angle(c) - expected_angle) < 0.15

    def test_band_cached_and_read_only(self):
        band = _band(DopplerSpectrum("jakes"), 0.01, 1 << 15)
        assert _band(DopplerSpectrum("jakes"), 0.01, 1 << 15) is band
        _, offsets, weight = band
        assert not offsets.flags.writeable and not weight.flags.writeable
        assert np.sum(weight ** 2) == pytest.approx(1.0)

    def test_slow_doppler_working_set_bounded_by_the_record(self):
        # At nu = 1e-4 the grid is 2^22 bins: holding every tap's residues at
        # once took 12 x 67 MB; one tap at a time, the peak is the grid set-up
        # (_band's spectral masses, the twiddles) plus one residue buffer.
        for cached in (simulate._band, simulate._twiddles, simulate._ramp):
            cached.cache_clear()
        tracemalloc.start()
        try:
            cir = generate_fading(load_profile(6), 25600, SimConfig(1e-4), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cir.gains.shape == (12, 25600)
        assert peak <= 260e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            generate_fading(load_profile(1), 0, SimConfig(), seed=0)

    def test_rejects_negative_seed_by_name(self):
        # numpy's "expected non-negative integer" named no key
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            generate_fading(load_profile(1), 8, SimConfig(), seed=-1)

    def test_rejects_unknown_doppler_kind(self):
        profile = ScenarioProfile(1, "t", (0.0,), (DopplerSpectrum("rice"),))
        with pytest.raises(ValueError, match="unsupported doppler spectrum kind 'rice'"):
            generate_fading(profile, 64, SimConfig(), seed=0)

    def test_rejects_spectrum_with_no_mass_on_the_grid(self):
        # a Gaussian centred far outside the band puts zero mass in every bin
        profile = ScenarioProfile(1, "t", (0.0,), (DopplerSpectrum("gaussian", 1e300, 1.0),))
        with pytest.raises(ValueError, match="^doppler spectrum has no mass on the frequency "
                                             "grid$"):
            generate_fading(profile, 64, SimConfig(0.01), seed=0)


class TestTinyDoppler:
    """A positive Doppler so small that 1 / fd overflows synthesises the
    frozen limit of zero Doppler."""

    @pytest.mark.parametrize("n, fd, nfft", [
        (64, 5e-324, 1 << 22), (25600, 0.004, 65536), (25600, 0.02, 32768),
        (25600, 0.003, 131072), (25600, 256 / 65536.5, 65536)])
    def test_synthesis_grid(self, n, fd, nfft):
        assert _synthesis_grid(n, fd) == nfft

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spectrum", [DopplerSpectrum("jakes"),
                                          DopplerSpectrum("gaussian", 0.7, 0.1)])
    def test_band_mass_saturates_silently(self, spectrum):
        # at 5e-324 a Gaussian's width underflows to 0, and 0 is the frozen limit
        edges = np.array([-0.5, -1e-3, 1e-3, 0.5])
        for fd in (1e-310, 5e-324, 0.0):
            mass = _band_mass(spectrum, edges[:-1], edges[1:], fd)
            assert mass.tolist() == [0.0, 1.0, 0.0], fd


def _full_grid_mass(spectrum, fd, nfft):
    """The spectral mass of each bin of the ``nfft``-bin grid, in FFT order."""
    f = np.fft.fftfreq(nfft)
    return _band_mass(spectrum, f - 0.5 / nfft, f + 0.5 / nfft, fd)


class TestBandDraw:
    """The random stream: each tap takes 2m normals for the m bins where its
    spectrum has mass, real parts then imaginary parts, in tap order."""

    @staticmethod
    def _full_grid_taps(profile, n, fd, rng):
        # the full-grid formula, with the generator's draws on the support
        # and zeros elsewhere
        nfft = _synthesis_grid(n, fd)
        taps = []
        for power, spectrum in zip(profile.gains_linear(), profile.doppler_spectra):
            mass = _full_grid_mass(spectrum, fd, nfft)
            total = mass.sum()
            support = np.flatnonzero(mass)
            m = len(support)
            draws = rng.standard_normal(2 * m)
            noise = np.zeros(nfft, dtype=complex)
            noise[support] = (draws[:m] + 1j * draws[m:]) / np.sqrt(2.0)
            taps.append(np.fft.ifft(np.sqrt(mass * power / total) * noise)[:n] * nfft)
        return np.array(taps)

    @staticmethod
    def _fading_and_generator(monkeypatch, profile, n, config, seed):
        # generate_fading's gains and the generator it drew them from
        made, default_rng = [], np.random.default_rng

        def recording_rng(s):
            made.append(default_rng(s))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", recording_rng)
            gains = generate_fading(profile, n, config, seed=seed).gains
        return gains, made[0]

    @pytest.mark.parametrize("nu", [0.004, 0.02, 0.3])
    def test_matches_full_grid_formula_on_the_band(self, nu):
        # 25 900 is not a multiple of the decimation stride; at nu = 0.3 the
        # band is wider than half the grid, so the transform is undecimated
        profile = load_profile(3)  # TUx6: Jakes and both Gaussian spectra
        full_grid = _synthesis_grid(1, nu)
        for n in (3000, 25600, 25900, full_grid):
            got = generate_fading(profile, n, SimConfig(normalized_doppler=nu), seed=21).gains
            want = self._full_grid_taps(profile, n, nu, np.random.default_rng(21))
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (n, nu)
        assert _synthesis_grid(full_grid, nu) == full_grid

    def test_band_spans_signed_bins_around_dc(self):
        # the decimated transform is short only if the band is taken in
        # signed bins, about 2 fd nfft of them, not across the unsigned grid
        fd, nfft = 0.004, 65536
        k0, offsets, _ = _band(DopplerSpectrum("jakes"), fd, nfft)
        assert k0 < 0 and k0 + offsets.max() == -k0
        assert offsets.max() + 1 <= 2 * fd * nfft + 2

    @pytest.mark.parametrize("kind", ["jakes", "gaussian"])
    def test_consumes_two_normals_per_band_bin(self, kind, monkeypatch):
        profile = _single_tap_profile(kind=kind)
        fd, n = 0.004, 1000
        m = np.count_nonzero(_full_grid_mass(profile.doppler_spectra[0], fd,
                                             _synthesis_grid(n, fd)))
        assert 200 < m < 1000
        _, rng = self._fading_and_generator(monkeypatch, profile, n,
                                            SimConfig(normalized_doppler=fd), 5)
        ref = np.random.default_rng(5)
        ref.standard_normal(2 * m)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_zero_doppler_takes_one_complex_normal(self, monkeypatch):
        for label in range(1, 7):
            profile = load_profile(label)
            gains, rng = self._fading_and_generator(monkeypatch, profile, 64,
                                                    SimConfig(normalized_doppler=0.0), 8)
            ref = np.random.default_rng(8)
            for tap, power in zip(gains, profile.gains_linear(), strict=True):
                re, im = ref.standard_normal(2)
                want = math.sqrt(power / 2.0) * (re + 1j * im)
                assert np.array_equal(tap, np.full(64, want)), label
            assert rng.bit_generator.state == ref.bit_generator.state


class TestApplyChannel:
    def test_identity_channel(self):
        x = ComplexSignal(np.arange(8) + 1j)
        cir = CIRMatrix(np.ones((1, 8)), (0,))
        y = apply_channel(x, cir)
        assert np.array_equal(y.samples, x.samples)

    def test_pure_delay(self):
        x = ComplexSignal(np.arange(1, 9, dtype=float))
        cir = CIRMatrix(np.ones((1, 8)), (3,))
        y = apply_channel(x, cir)
        assert np.array_equal(y.samples[:3], np.zeros(3))
        assert np.array_equal(y.samples[3:], x.samples[:5])

    def test_two_tap_impulse_response(self):
        # hand convolution: taps (1, 0.5j) at delays (0, 2), unit impulse in
        x = ComplexSignal(np.eye(1, 6, 0).ravel())
        gains = np.vstack([np.ones(6), 0.5j * np.ones(6)])
        cir = CIRMatrix(gains, (0, 2))
        y = apply_channel(x, cir)
        expected = np.array([1, 0, 0.5j, 0, 0, 0], dtype=complex)
        assert np.allclose(y.samples, expected, atol=1e-15)

    def test_length_mismatch_raises(self):
        x = ComplexSignal(np.ones(8))
        cir = CIRMatrix(np.ones((1, 9)), (0,))
        with pytest.raises(ValueError, match="length"):
            apply_channel(x, cir)

    def test_delay_past_the_signal_raises(self):
        cir = CIRMatrix(np.ones((1, 8)), (8,))
        message = "delay_units must lie in [0, signal length)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_channel(ComplexSignal(np.ones(8)), cir)

    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 15), min_size=1,
                                                 max_size=4, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_energy_conservation_frozen_channel(self, seed, delays):
        # White-by-construction input: i.i.d. impulse amplitudes on a grid
        # coarser than the delay spread, so shifted copies are exactly
        # orthogonal and output power equals sum_l |g_l|^2 * input power to
        # roundoff (a dense white input satisfies this only in expectation).
        rng = np.random.default_rng(seed)
        n, spacing = 256, 16
        x = np.zeros(n, dtype=complex)
        x[:-spacing:spacing] = rng.standard_normal(len(x[:-spacing:spacing])) \
            + 1j * rng.standard_normal(len(x[:-spacing:spacing]))
        gains_const = rng.standard_normal(len(delays)) + 1j * rng.standard_normal(len(delays))
        gains = np.repeat(gains_const[:, None], n, axis=1)
        sig = ComplexSignal(x)
        out = apply_channel(sig, CIRMatrix(gains, tuple(delays)))
        expected = np.sum(np.abs(gains_const) ** 2) * sig.power()
        assert out.power() == pytest.approx(expected, rel=1e-9)


class TestAddAwgn:
    def test_noiseless_returns_input(self):
        x = ComplexSignal(np.ones(16))
        assert add_awgn(x, None, seed=1) is x

    def test_0db_noise_power(self):
        rng = np.random.default_rng(0)
        x = ComplexSignal(rng.standard_normal(100_000) + 0j)
        y = add_awgn(x, 0.0, seed=2)
        noise_p = np.mean(np.abs(y.samples - x.samples) ** 2)
        assert noise_p == pytest.approx(x.power(), rel=0.01)

    def test_40db_noise_variance(self):
        x = ComplexSignal(np.ones(100_000))  # unit power
        y = add_awgn(x, 40.0, seed=3)
        noise_p = np.mean(np.abs(y.samples - x.samples) ** 2)
        assert noise_p == pytest.approx(1e-4, rel=0.05)

    def test_zero_power_signal_rejected(self):
        x = ComplexSignal(np.zeros(64))
        with pytest.raises(ValueError, match="zero-power"):
            add_awgn(x, 10.0, seed=0)

    def test_deterministic(self):
        x = ComplexSignal(np.ones(128))
        a = add_awgn(x, 5.0, seed=9)
        b = add_awgn(x, 5.0, seed=9)
        assert np.array_equal(a.samples, b.samples)


class TestComplexSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ComplexSignal(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            ComplexSignal(np.array([1.0, np.inf * 1j]))

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="^samples must be one-dimensional$"):
            ComplexSignal(np.ones((2, 4)))

    def test_samples_read_only(self):
        sig = ComplexSignal(np.ones(4))
        with pytest.raises(ValueError):
            sig.samples[0] = 0


class TestCIRMatrix:
    @pytest.mark.parametrize("gains, delays, message", [
        (np.ones((0, 4)), (), "gains must be a non-empty L x N matrix"),
        (np.ones((1, 0)), (0,), "gains must be a non-empty L x N matrix"),
        (np.ones(4), (0,), "gains must be a non-empty L x N matrix"),
        (np.ones((2, 4)), (0,), "delay_units length must equal the tap count"),
    ])
    def test_rejects_malformed_shape(self, gains, delays, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CIRMatrix(gains, delays)
        with pytest.raises(ValueError, match=f"^{message}$"):
            CIRMatrix._adopt(gains.astype(np.complex128), delays)

    def test_rejects_non_finite_gains(self):
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)):
            gains = np.ones((2, 4), dtype=complex)
            gains[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                CIRMatrix(gains, (0, 3))
            with pytest.raises(ValueError, match="finite"):
                CIRMatrix._adopt(gains, (0, 3))
