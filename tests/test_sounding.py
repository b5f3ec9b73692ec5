import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_paths, static_probe
from chanident.errors import InsufficientSignalError
from chanident.mseq import generate_mseq
from chanident.simulate import ComplexSignal
from chanident.sounding import estimate_order, fold_periods, relax_estimate

MSEQ = generate_mseq(8)
N = MSEQ.period


class TestEstimateOrder:
    def test_single_path_unit_channel(self):
        received = static_probe(MSEQ, [1.0], [0])
        est = estimate_order(received, MSEQ, threshold_factor=0.5)
        assert est.order == 1
        assert est.peak_lags == (0,)

    def test_four_path_channel(self):
        amps = np.array([1.0, 0.9j, -0.8, 0.7 * np.exp(1j)])
        received = static_probe(MSEQ, amps, [0, 3, 7, 11])
        est = estimate_order(received, MSEQ, threshold_factor=0.5)
        assert est.order == 4
        assert est.peak_lags == (0, 3, 7, 11)

    def test_all_zero_probe_rejected(self):
        received = ComplexSignal(np.zeros(2 * N))
        with pytest.raises(InsufficientSignalError):
            estimate_order(received, MSEQ, threshold_factor=0.5)

    def test_short_probe_rejected(self):
        received = ComplexSignal(np.ones(N - 1))
        with pytest.raises(ValueError, match="period"):
            estimate_order(received, MSEQ, threshold_factor=0.5)

    def test_probe_of_partial_periods_rejected(self):
        with pytest.raises(ValueError, match=f"^probe length {N + 1} is not a multiple "
                                             f"of the period {N}$"):
            estimate_order(ComplexSignal(np.ones(N + 1)), MSEQ, threshold_factor=0.5)

    def test_weak_tap_below_threshold_not_counted(self):
        # |mu| ratio 0.3 < threshold_factor 0.5: expect only the strong tap
        received = static_probe(MSEQ, [1.0, 0.3], [0, 5])
        est = estimate_order(received, MSEQ, threshold_factor=0.5)
        assert est.order == 1
        est = estimate_order(received, MSEQ, threshold_factor=0.2)
        assert est.order == 2

    def test_order_correct_when_ratio_exceeds_threshold(self):
        # coupling contract: order is right whenever
        # min|mu|^2 / max|mu|^2 > threshold_factor^2
        rng = np.random.default_rng(4)
        for _ in range(20):
            count = rng.integers(2, 7)
            mags = rng.uniform(0.62, 1.0, count)  # ratio > 0.6 > 0.5
            phases = np.exp(2j * np.pi * rng.uniform(size=count))
            delays = np.sort(rng.choice(40, count, replace=False))
            received = static_probe(MSEQ, mags * phases, delays)
            est = estimate_order(received, MSEQ, threshold_factor=0.5)
            assert est.order == count
            assert est.peak_lags == tuple(delays)

    def test_noise_only_probe_rejected(self):
        rng = np.random.default_rng(8)
        noise = rng.standard_normal(4 * N) + 1j * rng.standard_normal(4 * N)
        received = ComplexSignal(noise)
        with pytest.raises(InsufficientSignalError):
            estimate_order(received, MSEQ, threshold_factor=0.5)


def _folded_for(amplitudes, delays, snr_db=None, seed=0):
    received = static_probe(MSEQ, amplitudes, delays, periods=4, snr_db=snr_db, seed=seed)
    return fold_periods(received.samples, N)


def _one_path(folded, candidate_delays, scale=1.0):
    """The single path that relax_estimate fits to ``scale`` times the folded
    probe: the candidate delay of the largest |correlation with the chips|
    and its closed-form least-squares amplitude."""
    return relax_estimate(scale * folded, MSEQ, 1, candidate_delays).paths[0]


class TestProbeSpectrum:
    """The fit's cost against the probe-spectrum cost that the oracle minimises."""

    def test_parseval(self):
        # N * sum|r|^2 in the delay domain is sum|R - M a|^2 over the centred spectrum
        folded = _folded_for([1.0, 0.6j, -0.3], [1, 6, 13], snr_db=10.0)
        est = relax_estimate(folded, MSEQ, 3, range(16))
        cost, delays, _ = brute_force_paths(folded, MSEQ, 3, range(16))
        assert est.delays == delays
        assert cost == pytest.approx(est.residual_cost, rel=1e-9)


class TestAmplitudeGivenDelay:
    """A single candidate delay fixes the path, so only its amplitude is fitted."""

    def test_single_unit_path(self):
        folded = _folded_for([1.0], [0])
        assert _one_path(folded, [0])[1] == pytest.approx(1.0, abs=1e-9)

    def test_linearity_in_residual(self):
        folded = _folded_for([0.5 + 0.2j], [3])
        c = -1.3 + 0.7j
        a1 = _one_path(folded, [3])[1]
        a2 = _one_path(folded, [3], scale=c)[1]
        assert a2 == pytest.approx(c * a1)

    def test_two_path_residual_with_second_removed(self):
        # construct the residual analytically: the probe minus path 2's exact term
        mu = (0.8 - 0.3j, 0.25j)
        folded = _folded_for(mu, [2, 9])
        residual = folded - mu[1] * np.roll(MSEQ.chips, 9)
        assert _one_path(residual, [2])[1] == pytest.approx(mu[0], abs=1e-9)


class TestDelayArgmax:
    """A one-path fit picks the candidate delay of the largest objective."""

    def test_single_path(self):
        folded = _folded_for([1.0], [5])
        assert _one_path(folded, range(N))[0] == 5

    def test_dominant_path_wins(self):
        # oracle: evaluate the objective exhaustively with explicit loops
        folded = _folded_for([1.0, 0.3], [2, 9])
        best, best_val = None, -1.0
        for tau in range(N):
            val = abs(sum(folded[n] * MSEQ.chips[(n - tau) % N] for n in range(N)))
            if val > best_val:
                best, best_val = tau, val
        assert best == 2
        assert _one_path(folded, range(N))[0] == 2

    @given(st.integers(0, 2 ** 31), st.integers(1, 120))
    @settings(max_examples=20, deadline=None)
    def test_invariant_to_residual_scaling(self, seed, scale_steps):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        folded = _folded_for(amps, [1, 6, 14])
        c = 0.01 * scale_steps * np.exp(2j * np.pi * rng.uniform())
        assert _one_path(folded, range(30))[0] == _one_path(folded, range(30), scale=c)[0]

    def test_empty_range_rejected(self):
        folded = _folded_for([1.0], [0])
        with pytest.raises(ValueError, match="0 candidate delays"):
            _one_path(folded, [])


class TestRelaxEstimate:
    def test_single_path_exact(self):
        folded = _folded_for([0.8j], [7])
        est = relax_estimate(folded, MSEQ, 1, range(N))
        assert est.delays == (7,)
        assert est.amplitudes[0] == pytest.approx(0.8j, abs=1e-9)
        assert est.residual_cost < 1e-18

    def test_two_paths_match_brute_force(self):
        folded = _folded_for([1.0, 0.5], [0, 4])
        est = relax_estimate(folded, MSEQ, 2, range(24))
        cost, delays, amps = brute_force_paths(folded, MSEQ, 2, range(24))
        assert est.delays == delays == (0, 4)
        assert np.allclose(est.amplitudes, amps, atol=1e-6)
        assert est.residual_cost < 1e-12

    def test_three_paths_snr20_monte_carlo(self):
        rng = np.random.default_rng(17)
        hits = 0
        for trial in range(100):
            mags = np.array([1.0, 0.7, 0.5])
            phases = np.exp(2j * np.pi * rng.uniform(size=3))
            delays = np.sort(rng.choice(24, 3, replace=False))
            folded = _folded_for(mags * phases, delays, snr_db=20.0, seed=trial)
            est = relax_estimate(folded, MSEQ, 3, range(24))
            hits += est.delays == tuple(delays)
        assert hits >= 95

    def test_cost_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        folded = _folded_for(amps, [0, 5, 11, 19], snr_db=10.0)
        est = relax_estimate(folded, MSEQ, 4, range(32))
        trace = np.array(est.cost_trace)
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    def test_one_ulp_scaled_probe_gives_the_same_fit(self):
        # On the 20 dB probe a sweep lowers the cost by a rounding-level
        # amount; kept for the probe and rolled back for its copy, it moved
        # the copy's amplitudes by 3.6e-10.  The noiseless probe's cost falls
        # to rounding size (~1e-27), where the relative-decrease test alone
        # ended the probe's fit after 15 sweeps and its copy's after 13.
        for seed, snr_db in ((172, 20.0), (3, None)):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(1, 7))
            delays = np.sort(rng.choice(24, count, replace=False))
            amps = rng.uniform(0.1, 1.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
            folded = _folded_for(amps, delays, snr_db=snr_db, seed=seed)
            est = relax_estimate(folded, MSEQ, count, range(N))
            copy = relax_estimate(folded * (1 + 2.0 ** -52), MSEQ, count, range(N))
            assert copy.delays == est.delays
            assert copy.iterations == est.iterations
            assert np.allclose(copy.amplitudes, est.amplitudes, rtol=0, atol=1e-12)

    def test_residual_cost_recomputable(self):
        folded = _folded_for([1.0, 0.4j], [2, 8], snr_db=15.0)
        est = relax_estimate(folded, MSEQ, 2, range(16))
        residual = folded - sum(a * np.roll(MSEQ.chips, d) for d, a in est.paths)
        assert N * np.sum(np.abs(residual) ** 2) == pytest.approx(est.residual_cost, rel=1e-12)

    def test_folded_probe_not_one_period_refused(self):
        for length in (N - 1, N + 1, 2 * N):
            with pytest.raises(ValueError, match="period"):
                relax_estimate(np.ones(length, dtype=complex), MSEQ, 1, range(N))

    def test_too_few_candidates_rejected(self):
        folded = _folded_for([1.0], [0])
        with pytest.raises(ValueError, match="candidate"):
            relax_estimate(folded, MSEQ, 3, [0, 1])

    @pytest.mark.parametrize("order, candidates, message", [
        (0, range(N), "order must be >= 1"),
        (1, [-1, 0], f"candidate delays must lie in [0, {N})"),
        (1, [0, N], f"candidate delays must lie in [0, {N})"),
    ])
    def test_order_below_one_or_delay_outside_the_period_rejected(self, order, candidates,
                                                                  message):
        folded = _folded_for([1.0], [0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            relax_estimate(folded, MSEQ, order, candidates)

    def test_delays_unique_and_sorted(self):
        folded = _folded_for([1.0, 0.9, 0.8], [3, 4, 5], snr_db=25.0)
        est = relax_estimate(folded, MSEQ, 3, range(10))
        assert list(est.delays) == sorted(set(est.delays))

    def test_20db_amplitude_ratio_matches_oracle(self):
        # weakest/strongest |mu| ratio of exactly 20 dB, noiseless, N = 255
        folded = _folded_for([1.0, 0.1j], [3, 12])
        est = relax_estimate(folded, MSEQ, 2, range(16))
        _, oracle_delays, _ = brute_force_paths(folded, MSEQ, 2, range(16))
        assert est.delays == oracle_delays == (3, 12)
        assert abs(est.amplitudes[1] - 0.1j) < 1e-9
