import base64
import json
import math
import re

import numpy as np
import pytest

from _oracles import reference_train
from chanident.mlp import (MLPParams, TrainConfig, batch_loss, classify,
                           complexity_count, config_fingerprint, forward,
                           gradients, init_mlp, load_mlp, save_mlp, train)


def finite_difference_check(params, x, t, h=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    rel = |a - fd| / max(|a|, |fd|, 1e-5); the 1e-5 floor reflects the
    ~1e-10 absolute accuracy attainable from float64 central differences.
    """
    dw, db = gradients(params, x, t)
    worst = 0.0
    for arrays, grads in ((params.weights, dw), (params.biases, db)):
        for a, g in zip(arrays, grads):
            flat_a, flat_g = a.ravel(), g.ravel()
            for i in range(flat_a.size):
                orig = flat_a[i]
                flat_a[i] = orig + h
                lp = batch_loss(params, x, t)
                flat_a[i] = orig - h
                lm = batch_loss(params, x, t)
                flat_a[i] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-5)
                worst = max(worst, rel)
    return worst


def _random_batch(sizes, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, sizes[0]))
    t = np.zeros((n, sizes[-1]))
    t[np.arange(n), rng.integers(0, sizes[-1], n)] = 1.0
    return x, t


class TestInit:
    def test_default_architecture_shapes(self):
        p = init_mlp([4800, 64, 48, 32, 24, 6], seed=0)
        assert [w.shape for w in p.weights] == [(64, 4800), (48, 64), (32, 48), (24, 32), (6, 24)]
        assert [b.shape for b in p.biases] == [(64,), (48,), (32,), (24,), (6,)]

    def test_deterministic(self):
        a = init_mlp([5, 4, 3], seed=7)
        b = init_mlp([5, 4, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero_and_weight_bounds(self):
        p = init_mlp([10, 8, 2], seed=1)
        assert all(np.all(b == 0) for b in p.biases)
        for w, fan in zip(p.weights, [(10, 8), (8, 2)]):
            bound = math.sqrt(6 / sum(fan))
            assert np.all(np.abs(w) <= bound)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            init_mlp([5], seed=0)
        with pytest.raises(ValueError):
            init_mlp([5, 0, 2], seed=0)

    @pytest.mark.parametrize("hidden", [16.7, True, "8", np.float64(8.0)])
    def test_rejects_sizes_not_int(self, hidden):
        with pytest.raises(ValueError, match="layer sizes must be >= 2 ints >= 1"):
            init_mlp([5, hidden, 2], seed=0)

    def test_refuses_more_than_max_weights_before_allocating(self, monkeypatch):
        # [4800, 100000, 6] asks for 3.8 GB per copy
        def no_draw(*args, **kwargs):
            raise AssertionError("weights drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=f"ask for 480600000 weights, more than {2 ** 24}"):
            init_mlp([4800, 100000, 6], seed=0)
        with pytest.raises(ValueError, match=f"ask for {2 ** 24 + 1} weights"):
            init_mlp([1, 2 ** 24 + 1], seed=0)


class TestForward:
    def test_zero_params_give_zero_output(self):
        p = MLPParams((3, 4, 2), [np.zeros((4, 3)), np.zeros((2, 4))],
                      [np.zeros(4), np.zeros(2)])
        assert np.array_equal(forward(p, np.ones(3)), np.zeros(2))

    def test_scalar_network_oracle(self):
        # single layer, W = (2), B = (0), input 0.5 -> tanh(1.0)
        p = MLPParams((1, 1), [np.array([[2.0]])], [np.zeros(1)])
        assert forward(p, np.array([0.5]))[0] == pytest.approx(0.761594, abs=1e-6)

    def test_outputs_bounded(self):
        p = init_mlp([6, 10, 4], seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = forward(p, 100 * rng.standard_normal(6))
            assert np.all(np.abs(out) < 1.0)

    def test_dimension_mismatch(self):
        p = init_mlp([6, 4, 2], seed=0)
        with pytest.raises(ValueError):
            forward(p, np.ones(5))


class TestGradients:
    def test_matches_finite_differences(self):
        sizes = [6, 10, 6]
        p = init_mlp(sizes, seed=11)
        x, t = _random_batch(sizes, 8, seed=12)
        assert finite_difference_check(p, x, t) < 1e-5

    def test_matches_finite_differences_deep(self):
        sizes = [4, 7, 6, 5, 3]
        p = init_mlp(sizes, seed=21)
        x, t = _random_batch(sizes, 5, seed=22)
        assert finite_difference_check(p, x, t) < 1e-5

    def test_zero_loss_zero_gradients(self):
        p = MLPParams((2, 2), [np.zeros((2, 2))], [np.zeros(2)])
        x = np.ones((3, 2))
        t = np.zeros((3, 2))  # output is exactly tanh(0) = 0 = target
        dw, db = gradients(p, x, t)
        assert np.all(dw[0] == 0) and np.all(db[0] == 0)

    def test_duplicated_batch_mean_invariance(self):
        sizes = [5, 6, 4]
        p = init_mlp(sizes, seed=31)
        x, t = _random_batch(sizes, 6, seed=32)
        dw1, db1 = gradients(p, x, t)
        dw2, db2 = gradients(p, np.vstack([x, x]), np.vstack([t, t]))
        for a, b in zip(dw1 + db1, dw2 + db2):
            assert np.allclose(a, b, atol=1e-14)

    def test_dimension_mismatch(self):
        p = init_mlp([5, 6, 4], seed=0)
        with pytest.raises(ValueError):
            gradients(p, np.ones((2, 5)), np.ones((3, 4)))
        with pytest.raises(ValueError):
            gradients(p, np.ones((0, 5)), np.ones((0, 4)))


def _toy_blobs(n=20, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([rng.normal((-2, 0), 0.4, (half, 2)),
                   rng.normal((+2, 0), 0.4, (n - half, 2))])
    t = np.zeros((n, 2))
    t[:half, 0] = 1.0
    t[half:, 1] = 1.0
    return x, t


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        x, t = _toy_blobs()
        p0 = init_mlp([2, 4, 2], seed=1)
        p1, report = train(p0, x, t, TrainConfig(learning_rate=0.0, epochs=5))
        for a, b in zip(p0.weights, p1.weights):
            assert np.array_equal(a, b)
        assert len(set(report.epoch_losses)) == 1

    def test_separable_toy_reaches_full_accuracy(self):
        x, t = _toy_blobs()
        p = init_mlp([2, 8, 2], seed=2)
        p, report = train(p, x, t, TrainConfig(learning_rate=0.1, epochs=500,
                                               plateau_patience=500))
        assert report.final_accuracy == 1.0
        assert len(report.epoch_losses) <= 500

    def test_loss_curve_non_increasing_within_spikes(self):
        # fixed-seed observation; momentum can oscillate on other seeds
        x, t = _toy_blobs()
        p = init_mlp([2, 8, 2], seed=0)
        _, report = train(p, x, t, TrainConfig(epochs=200, plateau_patience=200))
        losses = np.array(report.epoch_losses)
        assert np.all(losses[1:] <= losses[:-1] * 1.05)

    def test_bit_identical_given_seed(self):
        x, t = _toy_blobs()
        cfg = TrainConfig(epochs=50, seed=9)
        a, _ = train(init_mlp([2, 5, 2], seed=4), x, t, cfg)
        b, _ = train(init_mlp([2, 5, 2], seed=4), x, t, cfg)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)

    def test_empty_dataset_rejected(self):
        p = init_mlp([2, 3, 2], seed=0)
        with pytest.raises(ValueError):
            train(p, np.zeros((0, 2)), np.zeros((0, 2)), TrainConfig())

    @pytest.mark.parametrize("features, targets, message", [
        (np.zeros((0, 2)), np.zeros((0, 2)), "batch must be non-empty"),
        (np.ones((4, 3)), np.eye(2)[[0, 1, 0, 1]], "batch dimensions do not match"),
        (np.ones((4, 2)), np.ones((4, 3)), "batch dimensions do not match"),
        (np.ones((4, 2, 1)), np.eye(2)[[0, 1, 0, 1]], "batch dimensions do not match"),
        (np.ones((4, 2)), np.eye(2)[[0, 1, 0]], "inputs and targets must pair up"),
        (np.array([[0.0, np.nan]] * 4), np.eye(2)[[0, 1, 0, 1]], "must be finite"),
        (np.array([[0.0, np.inf]] * 4), np.eye(2)[[0, 1, 0, 1]], "must be finite"),
        (np.ones((4, 2)), np.array([[np.nan, 1.0]] * 4), "must be finite"),
    ])
    def test_refuses_what_gradients_refuses(self, features, targets, message):
        p = init_mlp([2, 3, 2], seed=0)
        with pytest.raises(ValueError, match=message):
            gradients(p, features, targets)
        with pytest.raises(ValueError, match=message):
            train(p, features, targets, TrainConfig(epochs=2))


# (layer sizes, vectors, config): batch of one; a partial last batch; one
# batch larger than the set; the paper's 4800-input network, in one batch
# and in several batches with a partial last one; no momentum; a run the
# plateau stops.
REFERENCE_CASES = {
    "batch1": ([5, 7, 3], 9, TrainConfig(batch_size=1, epochs=20, seed=1)),
    "partial-batch": ([5, 7, 3], 10, TrainConfig(batch_size=4, epochs=20, seed=2)),
    "batch-over-n": ([5, 7, 3], 6, TrainConfig(batch_size=32, epochs=20, seed=3)),
    "paper-network": ([4800, 64, 48, 32, 24, 6], 6,
                      TrainConfig(batch_size=6, epochs=8, seed=4)),
    "paper-network-n120": ([4800, 64, 48, 32, 24, 6], 120,
                           TrainConfig(batch_size=32, epochs=5, seed=10)),
    "no-momentum": ([5, 7, 3], 10, TrainConfig(batch_size=4, momentum=0.0, epochs=20,
                                               seed=5)),
    "plateau": ([2, 8, 2], 20, TrainConfig(learning_rate=0.1, epochs=2000, seed=6,
                                           plateau_patience=5, plateau_rel_tol=0.02)),
}

# train keeps the first layer as W0_init + C X, which equals the reference's
# directly stepped W0 in real arithmetic but rounds differently.  Over these
# cases the worst difference was 1.6e-15 of an array's largest entry and
# 5.8e-16 of an epoch loss (numpy 2.4 with its bundled OpenBLAS).
REL_TOL = 1e-12


class TestTrainMatchesReference:
    """train's coefficient-form first layer gives the parameters and losses
    of the textbook loop that steps every weight array directly, to
    rounding, and the same accuracy, best epoch and stop.  The test's name
    dates from the direct form, which matched the reference bit for bit."""

    @staticmethod
    def _run(case):
        sizes, n, cfg = REFERENCE_CASES[case]
        if sizes[0] == 2:
            x, t = _toy_blobs(n, seed=7)
        else:
            x, t = _random_batch(sizes, n, seed=8)
            x *= 0.05
        params = init_mlp(sizes, seed=9)
        return params, x, t, cfg

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_same_bits_as_reference(self, case):
        params, x, t, cfg = self._run(case)
        got, report = train(params, x, t, cfg)
        want, ref = reference_train(params, x, t, cfg)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b))
        assert len(report.epoch_losses) == len(ref.epoch_losses)
        for a, b in zip(report.epoch_losses, ref.epoch_losses):
            assert abs(a - b) <= REL_TOL * abs(b)
        assert report.final_accuracy == ref.final_accuracy
        assert report.best_epoch == ref.best_epoch
        assert report.stopped_on == ref.stopped_on

    def test_cases_cover_the_edges(self):
        _, n, cfg = REFERENCE_CASES["paper-network-n120"]
        assert n % cfg.batch_size and n > 2 * cfg.batch_size
        params, x, t, cfg = self._run("plateau")
        _, report = train(params, x, t, cfg)
        assert report.stopped_on == "plateau"
        assert len(report.epoch_losses) < cfg.epochs

    def test_params_not_mutated(self):
        params, x, t, cfg = self._run("paper-network")
        before = params.copy()
        train(params, x, t, cfg)
        for a, b in zip(params.weights + params.biases, before.weights + before.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["paper-network", "paper-network-n120"])
    def test_returned_arrays_own_their_data(self, case):
        # train steps one flat buffer; what it returns must not be views of it
        params, x, t, cfg = self._run(case)
        got, _ = train(params, x, t, cfg)
        assert all(a.base is None for a in got.weights + got.biases)
        arrays = got.weights + got.biases + params.weights + params.biases
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestTrainReport:
    def test_epoch_limit(self):
        x, t = _toy_blobs()
        _, report = train(init_mlp([2, 4, 2], seed=1), x, t,
                          TrainConfig(epochs=10, plateau_patience=10))
        assert report.stopped_on == "epoch_limit"
        assert len(report.epoch_losses) == 10
        assert 1 <= report.best_epoch <= 10

    def test_plateau_counts_from_best_epoch(self):
        x, t = _toy_blobs()
        cfg = TrainConfig(learning_rate=0.1, epochs=2000, plateau_patience=7,
                          plateau_rel_tol=0.02)
        _, report = train(init_mlp([2, 8, 2], seed=2), x, t, cfg)
        losses = report.epoch_losses
        assert report.stopped_on == "plateau"
        assert len(losses) == report.best_epoch + cfg.plateau_patience
        best = losses[report.best_epoch - 1]
        assert all(loss >= best * (1 - cfg.plateau_rel_tol)
                   for loss in losses[report.best_epoch:])


class TestTrainConfig:
    @pytest.mark.parametrize("patience", [0, -1])
    def test_rejects_patience_below_one(self, patience):
        with pytest.raises(ValueError, match="plateau_patience"):
            TrainConfig(plateau_patience=patience)

    @pytest.mark.parametrize("tol", [-1e-9, 1.0, 1.5, float("nan")])
    def test_rejects_rel_tol_outside_unit_interval(self, tol):
        with pytest.raises(ValueError, match="plateau_rel_tol"):
            TrainConfig(plateau_rel_tol=tol)

    @pytest.mark.parametrize("rate", [-0.01, float("nan"), float("inf"), float("-inf")])
    def test_rejects_learning_rate_not_finite_non_negative(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.5), ("epochs", "5"), ("batch_size", 2.0), ("batch_size", True),
        ("seed", 1.5), ("seed", np.int64(0)), ("plateau_patience", 2.5),
        ("learning_rate", True), ("momentum", "0.9"), ("plateau_rel_tol", None)])
    def test_rejects_wrong_type_by_name(self, key, value):
        # batch_size=True and plateau_patience=2.5 trained; the rest raised a
        # bare TypeError that named no key
        message = f"^{key} must be an? (int|number), not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{key: value})

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_accepts_the_edges(self):
        TrainConfig(plateau_patience=1, plateau_rel_tol=0.0, seed=0)
        TrainConfig(plateau_rel_tol=0.999)
        TrainConfig(learning_rate=np.float64(0.01), momentum=np.float64(0.5))


class TestClassify:
    def test_argmax_plus_one(self):
        p = MLPParams((2, 3), [np.array([[1.0, 0], [0, 0], [0, 0]])], [np.zeros(3)])
        assert classify(p, np.array([1.0, 0.0])) == 1

    def test_tie_breaks_to_smallest(self):
        p = MLPParams((1, 3), [np.array([[0.0], [1.0], [1.0]])], [np.zeros(3)])
        assert classify(p, np.array([0.7])) == 2

    def test_invariant_to_uniform_scaling_of_preactivation(self):
        # tanh is monotone, so scaling the final pre-activation by any
        # positive constant cannot change the argmax
        rng = np.random.default_rng(5)
        p = init_mlp([4, 6, 3], seed=6)
        for _ in range(10):
            x = rng.standard_normal(4)
            base = classify(p, x)
            scaled = MLPParams(p.layer_sizes,
                               [p.weights[0], 3.7 * p.weights[1]],
                               [p.biases[0], 3.7 * p.biases[1]])
            assert classify(scaled, x) == base


class TestComplexityCount:
    def test_reference_network(self):
        # direct evaluation of the operation-count formula:
        # 2*600*(64*48 + 48*32 + 32*24) + 2*600*24*6 + 2*600*6
        #   = 6,451,200 + 172,800 + 7,200 = 6,631,200
        p = init_mlp([4800, 64, 48, 32, 24, 6], seed=0)
        assert complexity_count(p, 600) == 6_631_200

    def test_minimal_network(self):
        p = init_mlp([3, 1, 1], seed=0)
        assert complexity_count(p, 1) == 4

    def test_linear_in_samples(self):
        p = init_mlp([10, 8, 6, 4], seed=0)
        assert complexity_count(p, 34) == 2 * complexity_count(p, 17)

    def test_rejects_no_training_samples(self):
        with pytest.raises(ValueError, match="^n_training must be >= 1$"):
            complexity_count(init_mlp([9, 1, 1], seed=0), 0)


def _floats(payload: str) -> np.ndarray:
    """The values of one model-file payload: base64 of little-endian float64."""
    return np.frombuffer(base64.b64decode(payload), dtype="<f8")


def _payload(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _edit_payload(doc, key, h, change):
    """Replace ``doc[key][h]`` by the payload of ``change(its values)``."""
    doc[key][h] = _payload(change(_floats(doc[key][h])))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        for sizes in ([5, 4, 3], [4800, 64, 48, 32, 24, 6]):  # the latter the experiment's
            p = init_mlp(sizes, seed=13)
            save_mlp(p, path, config_fingerprint(TrainConfig()))
            doc = json.loads(path.read_text())
            assert doc["format"] == "chanident-mlp-v2"
            # each payload is the row-major values as little-endian float64, in base64
            for a, payload in zip(p.weights + p.biases, doc["weights"] + doc["biases"]):
                assert _floats(payload).tobytes() == a.astype("<f8").tobytes()
            q, fp = load_mlp(path)
            assert q.layer_sizes == p.layer_sizes
            for a, b in zip(p.weights + p.biases, q.weights + q.biases):
                assert b.dtype == np.float64 and b.shape == a.shape and b.flags.writeable
                assert a.tobytes() == b.tobytes()
            assert fp["digest"] == config_fingerprint(TrainConfig())["digest"]

    def test_byte_stable(self, tmp_path):
        x, t = _toy_blobs()
        cfg = TrainConfig(epochs=30, seed=2)
        pa, _ = train(init_mlp([2, 4, 2], seed=1), x, t, cfg)
        pb, _ = train(init_mlp([2, 4, 2], seed=1), x, t, cfg)
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_mlp(pa, f1, config_fingerprint(cfg))
        save_mlp(pb, f2, config_fingerprint(cfg))
        assert f1.read_bytes() == f2.read_bytes()

    def test_save_rejects_non_finite_parameters(self, tmp_path):
        p = init_mlp([5, 4, 3], seed=13)
        p.weights[1][0, 0] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="non-finite"):
            save_mlp(p, path)
        assert not path.exists()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="format"):
            load_mlp(path)
        # a file of the decimal-list format this version no longer reads
        p = init_mlp([5, 4, 3], seed=13)
        path.write_text(json.dumps({
            "format": "chanident-mlp-v1", "layer_sizes": [5, 4, 3],
            "weights": [w.reshape(-1).tolist() for w in p.weights],
            "biases": [b.tolist() for b in p.biases], "train_fingerprint": {}}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "chanident-mlp-v1 .*retrain"):
            load_mlp(path)

    @pytest.mark.parametrize("content, message", [
        (b"", "Expecting value"),
        (b'{"format": "chanident-mlp-v2"', "Expecting"),
        (b"\xff\xfe", "codec can't decode"),
    ], ids=["empty", "cut-short", "not-utf8"])
    def test_refuses_unparsable_file_naming_it(self, tmp_path, content, message):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_mlp(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("layer_sizes"), "no 'layer_sizes'"),
        (lambda doc: doc.pop("biases"), "no 'biases'"),
        (lambda doc: doc.update(weights=doc["weights"][:1]), "1 weights arrays for the 2 layers"),
        (lambda doc: doc.update(biases=doc["biases"] + [_payload([0.0])]), "3 biases arrays"),
        (lambda doc: _edit_payload(doc, "biases", 1, lambda v: np.append(v, 0.0)),
         "layer 1 holds 12 weights and 4 biases"),
        (lambda doc: _edit_payload(doc, "weights", 0, lambda v: v[:-1]), "layer 0 holds 19 weights"),
        (lambda doc: _edit_payload(doc, "weights", 0, lambda v: np.append(v, 0.5)),
         "layer 0 holds 21 weights"),
        (lambda doc: doc["weights"].__setitem__(1, "not base64!"), "layer 1: weights is not base64"),
        # the last four base64 characters of 4 biases hold 2 of their 32 bytes
        (lambda doc: doc["biases"].__setitem__(0, doc["biases"][0][:-4]),
         "layer 0: biases holds 30 bytes, not a whole number"),
        # the v1 layout under the v2 name
        (lambda doc: doc["weights"].__setitem__(0, _floats(doc["weights"][0]).tolist()),
         "layer 0: weights must be a base64 string, got list"),
        (lambda doc: _edit_payload(doc, "weights", 1, lambda v: np.where(v == v[3], np.nan, v)),
         "non-finite"),
        (lambda doc: _edit_payload(doc, "biases", 0, lambda v: v - np.inf), "non-finite"),
    ], ids=["no-layer_sizes", "no-biases", "weights-short", "biases-long", "bias-long",
            "weight-short", "weight-long", "not-base64", "partial-float", "list-payload",
            "nan-weight", "inf-bias"])
    def test_refuses_parameters_that_do_not_fit_layer_sizes(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_mlp(init_mlp([5, 4, 3], seed=13), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_mlp(path)
