"""Golden digests: a byte-level lock on the dataset, model and report files.

The determinism tests elsewhere compare one run against another, so a
change that alters every output byte the same way passes them.  These
digests are pinned: a refactor that keeps behaviour must reproduce them
exactly.  Output may change only on purpose, with re-pinned digests.  The
dataset digest covers the two header lines, which carry the spec;
``records`` covers the record lines after them, and a change to those also
bumps the file-format version.

Records are short (1200 samples: one 512-sample window, then a 688-sample
window that absorbs the short tail) so the whole module runs in a few
seconds.  The digests hold for this platform's numpy and BLAS builds.
"""

import hashlib

import numpy as np
import pytest

from chanident.bem import bem_ls_estimate, estimate_cir_windowed
from chanident.cli import run as cli_run, write_signal_file
from chanident.features import FEATURE_LENGTH, N_SCENARIOS, one_hot
from chanident.mlp import (TrainConfig, config_fingerprint, init_mlp, load_mlp, save_mlp,
                           train)
from chanident.pipeline import (HIDDEN_SIZES, DatasetSpec, evaluate, generate_records,
                                run_experiment, split_train_test, write_dataset, write_report)
from chanident.modulation import random_frame
from chanident.profiles import load_profile
from chanident.simulate import SimConfig, add_awgn, apply_channel, generate_fading
from chanident.slepian import basis_dimension, generate_dpss

LAYER_SIZES = (FEATURE_LENGTH, 16, N_SCENARIOS)
TRAIN = TrainConfig(epochs=40, batch_size=4, seed=5)

# The model digests moved, on purpose, when train came to keep the first
# layer as W0_init + C X: the same parameters in real arithmetic, rounded
# differently.  They moved again, on purpose, with the format bump to
# chanident-mlp-v2, which stores each layer as base64 float64 bytes instead
# of decimal lists: the parameters are the same bits, only the file's bytes
# changed.
GOLDEN = {
    "bem-ls nu=0.004": {
        "dataset": "ccad0dbfa52564bcca5e6151c7a8cf973b2cf99563fbe2f0d5b9399fa05c3d6f",
        "records": "8e95f6b85c7a218a0ccdc8c02d1ea23b9d16686d7dcd5002032fb5065fb2dae1",
        "model": "f0d323d6619c9c9b51a9c6b3a9e301d97ad8b5ede2e02aa52c852bac5e2f86d6",
        "report": "5c26d9a4e7cc9afdd1ac95a87a96163cf22e860b684b7fec8ae4335cec9fe85a",
    },
    "bem-ls nu=0.02": {
        "dataset": "8cbedc52efe07abe75b6c1eb87b1895f04536509a5767cb9cd92bb0f77aab3aa",
        "records": "63c083882b615696ff537157c133bdb722b13c145a051586dd99f8b244733848",
        "model": "0febe519a3d747936703dc15ba44924c82cca3ba60b8fd45c7d91e21d39501c7",
        "report": "87d586076b1c9f8b3a754ecfae63e92753e08f9ff940d2dc7342b045cf880860",
    },
    "oracle-cir nu=0.004": {
        "dataset": "7d35132e115ed1ba2972d5b2d3c490eb0dbf9c9f668359440b8041a612f95fc6",
        "records": "5d22fecc76636157de1c97379888c40465d28b5447c8f353fb4199351e268d66",
        "model": "96b54168a8ef462e40aa2bdb2370fd9acbcf857e1240a9f03e30582a04355ae7",
        "report": "5c26d9a4e7cc9afdd1ac95a87a96163cf22e860b684b7fec8ae4335cec9fe85a",
    },
}


def _spec(case: str) -> DatasetSpec:
    estimation, nu = case.split(" nu=")
    return DatasetSpec(vectors_per_condition=2, snr_list_db=(None, 0.0, 20.0),
                       samples_per_vector=1200,
                       sim=SimConfig(normalized_doppler=float(nu)),
                       estimation=estimation, master_seed=11)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case, tmp_path):
    spec = _spec(case)
    records = generate_records(spec)
    write_dataset(tmp_path / "dataset.txt", spec, records)

    train_recs, test = split_train_test(records)
    x = np.stack([r.feature.values for r in train_recs])
    t = np.stack([one_hot(r.label) for r in train_recs])
    params, _ = train(init_mlp(LAYER_SIZES, seed=3), x, t, TRAIN)
    save_mlp(params, tmp_path / "model.json",
             config_fingerprint(TRAIN, extra={"layer_sizes": list(LAYER_SIZES)}))
    write_report(tmp_path / "report.txt", evaluate(params, test))

    got = {kind: _sha256(tmp_path / f"{kind}.{ext}")
           for kind, ext in (("dataset", "txt"), ("model", "json"), ("report", "txt"))}
    body = (tmp_path / "dataset.txt").read_bytes().split(b"\n", 2)[2]
    got["records"] = hashlib.sha256(body).hexdigest()
    assert got == GOLDEN[case]


def test_run_experiment_reproduces_digests(tmp_path):
    case = "bem-ls nu=0.02"
    run_experiment(_spec(case), tmp_path, LAYER_SIZES[1:-1], TRAIN, init_seed=3)
    assert _sha256(tmp_path / "dataset.txt") == GOLDEN[case]["dataset"]
    assert _sha256(tmp_path / "report.txt") == GOLDEN[case]["report"]
    # The model file also names the initial seed in its fingerprint; with the
    # pinned fingerprint, the same parameters give the pinned bytes.
    params, fingerprint = load_mlp(tmp_path / "model.json")
    assert fingerprint == config_fingerprint(
        TRAIN, extra={"init_seed": 3, "layer_sizes": list(LAYER_SIZES)})
    save_mlp(params, tmp_path / "model.json",
             config_fingerprint(TRAIN, extra={"layer_sizes": list(LAYER_SIZES)}))
    assert _sha256(tmp_path / "model.json") == GOLDEN[case]["model"]


# ``chanident estimate`` on one seeded 1200-sample record at nu = 0.004 with
# the default 12-delay grid and 512-sample windows: the gain trace bytes.
# They moved with the BEM digests below, and the header with them to
# chanident-trace v2.
TRACE_GOLDEN = "b3b6f46a86b3c5a9cf38f05f1cdc023de3509bf017144606dddb21947d35bc14"


def test_estimate_trace_digest(tmp_path):
    n, nu = 1200, 0.004
    frame = random_frame(n, seed=21)
    cir = generate_fading(load_profile(2), n, SimConfig(normalized_doppler=nu), seed=22)
    write_signal_file(tmp_path / "rx.txt", add_awgn(apply_channel(frame, cir), 20.0, seed=23))
    write_signal_file(tmp_path / "frame.txt", frame)
    (tmp_path / "est.json").write_text(f'{{"normalized_doppler": {nu}, "window_len": 512}}')
    assert cli_run(["estimate", "--config", str(tmp_path / "est.json"),
                    "--signal", str(tmp_path / "rx.txt"),
                    "--frame", str(tmp_path / "frame.txt"),
                    "--output", str(tmp_path / "trace.txt")]) == 0
    assert _sha256(tmp_path / "trace.txt") == TRACE_GOLDEN


# generate_fading gains, little-endian complex128, for labels and lengths
# (n = 1 and 3 included) at every regime of the synthesis grid: the frozen
# width-1 band at nu = 0, the 2^22-bin cap at 1e-4, the desk and fast
# Doppler, and a band that fills half the grid at 0.3.
FADING_CASES = ((1, 1), (1, 3), (3, 1200), (6, 25600))
FADING_GOLDEN = {
    0.0: "133816114acec436a5fe60e2149519eb240e48ad41d84718c5320ee136520259",
    1e-4: "96bf504472bf04b623cbf48356157cb42a2993f6a95a1070c50b6ce6e7eaa68f",
    0.004: "201a48cd3340102cfa9f73f02c8dec9bd2b356821e0eb20fbcb41976c0f622d2",
    0.02: "e0abb4e5bd60cc421ef4da5f2438610b46717714e2bda07afd80449f51bc515e",
    0.3: "0638e9b9ff0668a585a8f7c390d1d858ad18be94ab7c3c43335d1857f989961c",
}


@pytest.mark.parametrize("nu", sorted(FADING_GOLDEN))
def test_fading_digests(nu):
    h = hashlib.sha256()
    for label, n in FADING_CASES:
        gains = generate_fading(load_profile(label), n, SimConfig(nu), seed=7).gains
        h.update(np.ascontiguousarray(gains, dtype="<c16").tobytes())
    assert h.hexdigest() == FADING_GOLDEN[nu]


# BEM-LS gains, little-endian complex128, at 20 dB over labels 1-6 and
# seeds 1, 2: estimate_cir_windowed at window_len 512 and 300 for n = 1200
# (a merged tail) and 5000 (several windows), and bem_ls_estimate on the
# whole 1200-sample record.  nu = 0 fits on the 1/(4 w) half-bandwidth floor.
# They moved, on purpose, when the Gram matrix came to be built through a
# low-rank factor of the basis pair products: the gains changed by at most
# 1.2e-13 of their largest magnitude, and no dataset byte moved.
BEM_GOLDEN = {
    0.0: "108da064b50900096d93f09b40a6a0e8b8ab16dacae1de636e84869377ca6bf6",
    0.001: "bd8dd6a8b595c3628f38aa9cdff6225937201981065d54e83155fda4a61e43df",
    0.004: "721a50e14ac579d43fcf5956275b2cdf6318da153ea63705e24b4d74f7c08dea",
    0.01: "ab972300197c3e252b4808045056a3a1259259a17264199c600617924a819e8d",
    0.02: "d86577b4a396aed9872442c4e1f743ee224d70c2c224e2f41a28019f70f9db37",
}


@pytest.mark.parametrize("nu", sorted(BEM_GOLDEN))
def test_bem_ls_digests(nu):
    h = hashlib.sha256()
    for n in (1200, 5000):
        for label in range(1, 7):
            for seed in (1, 2):
                delays = load_profile(label).delay_units
                frame = random_frame(n, seed=seed)
                cir = generate_fading(load_profile(label), n, SimConfig(nu), seed=seed + 100)
                received = add_awgn(apply_channel(frame, cir), 20.0, seed=seed + 200)
                fits = [estimate_cir_windowed(received, frame.samples, delays, nu, window_len)
                        for window_len in (512, 300)]
                if n == 1200:
                    basis = generate_dpss(n, max(nu, 1 / (4 * n)), basis_dimension(nu, n))
                    fits.append(bem_ls_estimate(received, frame.samples, delays, basis))
                for fit in fits:
                    h.update(np.ascontiguousarray(fit.gains, dtype="<c16").tobytes())
    assert h.hexdigest() == BEM_GOLDEN[nu]


# The paper's 4800-64-48-32-24-6 network, trained on noiseless 1200-sample
# records at nu = 0.004: the sha256 of the little-endian float64 bytes of the
# weights, then the biases, that train returns, and of its epoch losses.  Six
# vectors (one per scenario) run as one batch; 120 run in batches of 32, the
# last of them partial.
PAPER_TRAIN_GOLDEN = {
    "n6": (1, TrainConfig(epochs=300, batch_size=32, seed=5), {
        "params": "3a46101fcca84a3370446a5db98fcfe7b790e95856c8c1f1594c5f95592f1dfe",
        "losses": "7bcd700a9663e691cb4c8f4601981cc3b96268a6ab4f984b54fa52127c877684",
    }),
    "n120": (20, TrainConfig(epochs=5, batch_size=32, seed=5), {
        "params": "141ad2f0c2c2b7f3b5177015f72e301624db6ce0b14d086c505fe314e804d0b0",
        "losses": "c121fd4f68eea5e2de4237ee3b2de875a931b1f0e8c194c8f2fa9c7b4e7034ea",
    }),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(PAPER_TRAIN_GOLDEN))
def test_paper_network_training_digests(case):
    per_class, config, want = PAPER_TRAIN_GOLDEN[case]
    spec = DatasetSpec(vectors_per_condition=per_class, snr_list_db=(None,),
                       samples_per_vector=1200, sim=SimConfig(normalized_doppler=0.004),
                       master_seed=11)
    records = generate_records(spec)
    x = np.stack([r.feature.values for r in records])
    t = np.stack([one_hot(r.label) for r in records])
    sizes = (FEATURE_LENGTH, *HIDDEN_SIZES, N_SCENARIOS)
    params, report = train(init_mlp(sizes, seed=3), x, t, config)
    assert report.stopped_on == "epoch_limit"
    assert {"params": _digest(params.weights + params.biases),
            "losses": _digest([np.array(report.epoch_losses)])} == want
