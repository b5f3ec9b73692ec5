"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criteria, tolerances and runtime budgets are pinned here; nothing defers to
later calibration.  Monte Carlo pieces use fixed seeds so runs are
deterministic.
"""

import functools
import json
import time

import numpy as np
from scipy.special import j0
from scipy.stats import chi2

from _oracles import brute_force_paths, static_probe
from chanident.cli import run as cli_run
from chanident.features import FEATURE_LENGTH, build_ddpdp
from chanident.mlp import TrainConfig, complexity_count, init_mlp
from chanident.mseq import generate_mseq, periodic_autocorrelation
from chanident.pipeline import HIDDEN_SIZES, DatasetSpec, run_experiment, split_train_test
from chanident.profiles import load_profile
from chanident.simulate import SimConfig, generate_fading
from chanident.slepian import basis_dimension, generate_dpss
from chanident.sounding import estimate_order, relax_estimate
from test_features import _full_grid_cir
from test_mlp import finite_difference_check
from test_simulate import _single_tap_profile
from test_slepian_bem import dense_kernel_dpss


def criterion(number, description, budget_s):
    """Wrap a test so it reports one line and honours its runtime budget."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number:2d}: FAIL  ({description})", flush=True)
                raise
            elapsed = time.perf_counter() - t0
            print(f"\ncriterion {number:2d}: PASS  ({description}; {elapsed:.1f}s "
                  f"of {budget_s:.0f}s budget)", flush=True)
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
        return wrapper
    return decorate


@criterion(1, "m-sequence two-valued autocorrelation, p = 3..10, exact", 1.0)
def test_criterion_1_msequence_autocorrelation():
    for p in range(3, 11):
        m = generate_mseq(p)
        n = m.period
        assert n == 2 ** p - 1
        ac = periodic_autocorrelation(m.chips)
        assert ac[0] == n
        assert np.all(ac[1:] == -1)


@criterion(2, "order estimation on 4/6/12-tap static channels", 30.0)
def test_criterion_2_order_estimation():
    mseq = generate_mseq(8)
    rng = np.random.default_rng(20_2020)
    for taps in (4, 6, 12):
        delays = tuple(range(taps))  # the 10*l grid, adjacent lags
        hits_clean = hits_20db = 0
        for trial in range(100):
            gains_db = np.concatenate([[0.0], rng.uniform(-13.0, 0.0, taps - 1)])
            amps = 10 ** (gains_db / 20) * np.exp(2j * np.pi * rng.uniform(size=taps))
            clean = static_probe(mseq, amps, delays, periods=8)
            noisy = static_probe(mseq, amps, delays, periods=8, snr_db=20.0,
                                 seed=trial)
            est = estimate_order(clean, mseq, threshold_factor=0.12)
            hits_clean += est.order == taps and est.peak_lags == delays
            est = estimate_order(noisy, mseq, threshold_factor=0.12)
            hits_20db += est.order == taps and est.peak_lags == delays
        assert hits_clean >= 99, f"{taps} taps noiseless: {hits_clean}/100"
        assert hits_20db >= 95, f"{taps} taps at 20 dB: {hits_20db}/100"


@criterion(3, "iterative delay/amplitude fit matches brute-force oracle", 60.0)
def test_criterion_3_relax_vs_brute_force():
    from chanident.sounding import fold_periods

    mseq = generate_mseq(8)
    rng = np.random.default_rng(30_3030)
    candidates = range(24)
    for order in (2, 3):
        for _case in range(5):
            mags = rng.uniform(0.3, 1.0, order)
            amps = mags * np.exp(2j * np.pi * rng.uniform(size=order))
            delays = np.sort(rng.choice(list(candidates), order, replace=False))
            probe = static_probe(mseq, amps, delays, periods=4)
            folded = fold_periods(probe.samples, mseq.period)
            est = relax_estimate(folded, mseq, order, candidates)
            cost, oracle_delays, oracle_amps = brute_force_paths(folded, mseq, order,
                                                                 candidates)
            assert est.delays == oracle_delays == tuple(delays)
            assert np.allclose(est.amplitudes, oracle_amps, atol=1e-6)
            trace = np.array(est.cost_trace)
            assert np.all(np.diff(trace) <= 1e-12 * max(trace[0], 1.0))


@criterion(4, "Slepian basis + BEM-LS accuracy", 60.0)
def test_criterion_4_dpss_bem():
    from chanident.bem import bem_ls_estimate
    from chanident.modulation import random_frame
    from chanident.simulate import add_awgn, apply_channel, CIRMatrix

    # orthonormality at 1e-9 on several shapes
    for n, w, d in [(8, 0.1, 2), (64, 0.05, 4), (512, 0.004, 8), (400, 0.01, 9)]:
        b = generate_dpss(n, w, d)
        gram = b.sequences @ b.sequences.T
        assert np.max(np.abs(gram - np.eye(d))) < 1e-9
    # dense-kernel oracle agreement at small N (non-degenerate spectra)
    for n, w, d in [(8, 0.1, 2), (32, 0.1, 5), (48, 0.08, 5), (64, 0.05, 4)]:
        vals, vecs = dense_kernel_dpss(n, w, d)
        b = generate_dpss(n, w, d)
        assert np.max(np.abs(b.sequences - vecs)) < 1e-6
    # in-span noiseless reconstruction at machine level
    n, d = 256, 5
    basis = generate_dpss(n, 0.01, d)
    rng = np.random.default_rng(40)
    coeffs = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
    gains = coeffs @ basis.sequences
    frame = random_frame(n, seed=41)
    rx = apply_channel(frame, CIRMatrix(gains, (0,)))
    est = bem_ls_estimate(rx, frame.samples, (0,), basis)
    nmse = np.sum(np.abs(est.gains - gains) ** 2) / np.sum(np.abs(gains) ** 2)
    assert nmse < 1e-14
    # Jakes tap, nu = 0.004, SNR 30 dB, N = 512: mean NMSE below -20 dB
    n, nu = 512, 0.004
    cfg = SimConfig(normalized_doppler=nu)
    basis = generate_dpss(n, nu, basis_dimension(nu, n))
    profile = _single_tap_profile()
    nmses = []
    for trial in range(50):
        true = generate_fading(profile, n, cfg, seed=4000 + trial)
        frame = random_frame(n, seed=4100 + trial)
        rx = apply_channel(frame, true)
        rx = add_awgn(rx, 30.0, seed=trial)
        est = bem_ls_estimate(rx, frame.samples, (0,), basis)
        nmses.append(np.sum(np.abs(est.gains - true.gains) ** 2)
                     / np.sum(np.abs(true.gains) ** 2))
    assert 10 * np.log10(np.mean(nmses)) < -20.0


@criterion(5, "fading statistics: Bessel autocorrelation + Rayleigh envelope", 60.0)
def test_criterion_5_fading_statistics():
    nu = 0.004
    cfg = SimConfig(normalized_doppler=nu)
    profile = _single_tap_profile()
    n, lags = 3000, np.arange(0, 501, 25)
    acc = np.zeros(len(lags))
    for r in range(200):
        x = generate_fading(profile, n, cfg, seed=50_000 + r).gains[0]
        p = np.mean(np.abs(x) ** 2)
        for i, k in enumerate(lags):
            c = p if k == 0 else np.mean(x[: n - k] * np.conj(x[k:]))
            acc[i] += (c / p).real
    acc /= 200
    assert np.max(np.abs(acc - j0(2 * np.pi * nu * lags))) < 0.05
    # chi-square goodness of fit of the envelope against Rayleigh at 0.01
    x = generate_fading(profile, 200_000, cfg, seed=42).gains[0]
    env = np.abs(x[::500])  # decimate to near-independent samples
    edges = np.sqrt(-np.log(1 - np.linspace(0, 1, 17)[:-1]))
    counts = np.histogram(env, bins=np.append(edges, np.inf))[0]
    expected = len(env) / 16
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.99, df=15)


@criterion(6, "D-DPDP row-stochasticity, dimension, discriminability", 30.0)
def test_criterion_6_ddpdp():
    for label, seed in ((1, 60), (4, 61), (6, 62)):
        cir = _full_grid_cir(label, 1500, seed=seed)
        d = build_ddpdp(cir)
        assert np.all(np.abs(d.bins.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(d.bins >= 0)
        v = d.values
        assert v.shape == (FEATURE_LENGTH,) and FEATURE_LENGTH == 4800
    a = build_ddpdp(_full_grid_cir(2, 10_000, seed=63))  # RAx6
    b = build_ddpdp(_full_grid_cir(3, 10_000, seed=64))  # TUx6
    for l in load_profile(2).delay_units:
        assert np.sum(np.abs(a.bins[l] - b.bins[l])) > 0.1


@criterion(7, "MLP analytic gradients vs central finite differences", 30.0)
def test_criterion_7_gradient_check():
    architectures = ([6, 10, 6], [5, 8, 7, 4], [4, 7, 6, 5, 3])
    for sizes in architectures:
        for seed in range(5):
            params = init_mlp(sizes, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal((6, sizes[0]))
            t = np.zeros((6, sizes[-1]))
            t[np.arange(6), rng.integers(0, sizes[-1], 6)] = 1.0
            worst = finite_difference_check(params, x, t)
            assert worst < 1e-5, f"arch {sizes} seed {seed}: rel err {worst:.2e}"


@criterion(8, "end-to-end accuracy-vs-SNR trend at desk scale", 900.0)
def test_criterion_8_table_trend(tmp_path):
    spec = DatasetSpec(master_seed=1)  # 6 scenarios x 6 conditions x 20 vectors
    records, _, report = run_experiment(spec, tmp_path, HIDDEN_SIZES, TrainConfig(seed=1),
                                        init_seed=1)
    assert len(records) == 720
    train_recs, test = split_train_test(records)
    assert len(train_recs) == 120
    snrs = sorted(report.per_snr_accuracy)
    assert snrs == [0.0, 10.0, 20.0, 30.0, 40.0]
    acc = np.array([report.per_snr_accuracy[s] for s in snrs])
    print(f"\n  accuracy vs SNR: {[f'{100 * a:.1f}%' for a in acc]}, "
          f"average {100 * report.average_accuracy:.1f}% "
          f"(reference trend 58.7/83.3/100/100/100, avg 88.4)")
    assert np.all(acc[2:] >= 0.95), f"20-40 dB accuracies {acc[2:]}"
    assert acc[0] >= 0.45, f"0 dB accuracy {acc[0]}"
    assert np.all(np.diff(acc) >= -0.02), f"non-monotone beyond tolerance: {acc}"
    assert abs(report.average_accuracy - 0.884) <= 0.10
    # confusion matrix rows account for every test vector
    for s in snrs:
        assert report.confusions[s].sum() == len(test[s])


@criterion(9, "training complexity counter reproduces hand-computed values", 5.0)
def test_criterion_9_complexity_counter():
    # by hand: 2*600*(64*48 + 48*32 + 32*24) = 6,451,200;
    # + 2*600*24*6 = 172,800; + 2*600*6 = 7,200  -> 6,631,200
    params = init_mlp([4800, 64, 48, 32, 24, 6], seed=0)
    assert complexity_count(params, 600) == 6_631_200
    assert complexity_count(params, 1200) == 2 * 6_631_200
    minimal = init_mlp([9, 1, 1], seed=0)
    assert complexity_count(minimal, 1) == 4


@criterion(10, "CLI runs reproduce byte-identically from their manifests", 120.0)
def test_criterion_10_manifest_reproducibility(tmp_path):
    ds_cfg = {"scenario_labels": [1, 4], "vectors_per_condition": 1,
              "snr_list_db": ["noiseless", 10.0], "samples_per_vector": 512,
              "estimation": "bem-ls", "master_seed": 7}
    cfg_path = tmp_path / "ds.json"
    cfg_path.write_text(json.dumps(ds_cfg))
    out1 = tmp_path / "data1.txt"
    assert cli_run(["dataset", "--config", str(cfg_path), "--output", str(out1)]) == 0
    manifest = json.loads((tmp_path / "data1.txt.manifest.json").read_text())
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "data2.txt"
    assert cli_run(["dataset", "--config", str(snapshot), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"hidden_sizes": [16], "epochs": 5}))
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert cli_run(["train", "--config", str(train_cfg), "--dataset", str(out1),
                    "--output", str(m1)]) == 0
    tmanifest = json.loads((tmp_path / "m1.json.manifest.json").read_text())
    tsnapshot = tmp_path / "train_snapshot.json"
    tsnapshot.write_text(json.dumps(
        {k: v for k, v in tmanifest["config"].items()}))
    assert cli_run(["train", "--config", str(tsnapshot), "--dataset", str(out1),
                    "--output", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()

    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert cli_run(["eval", "--model", str(m1), "--dataset", str(out1),
                    "--output", str(r1)]) == 0
    assert cli_run(["eval", "--model", str(m1), "--dataset", str(out1),
                    "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
