"""The benchmark's workloads: what a set-up makes and what one unit does.

One client with one unit in flight: a unit starts only after the previous
one has finished.  The seed fixes every input of a unit.  A workload makes
``seeds`` datasets per run: unit k works on the dataset at
``unit_seed(seed, k)``, so the first ``seeds`` units differ in their data
and later units repeat them in turn.  Every unit does the same amount of
work, because record counts are fixed and training runs a fixed number of
epochs (the plateau stop is set out of reach), so per-unit times of one run
are directly comparable.  Accuracy is the mean over the first ``seeds``
units, which pools their test vectors.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from chanident import mlp, pipeline
from chanident.features import ENVELOPE_BINS, FEATURE_LENGTH, N_SCENARIOS, one_hot
from chanident.profiles import MAX_DELAY_UNITS
from chanident.simulate import SimConfig

# The network of scripts/run_table2.py.
LAYER_SIZES = (FEATURE_LENGTH, 64, 48, 32, 24, N_SCENARIOS)
TEST_SNRS = (0.0, 10.0, 20.0, 30.0, 40.0)
TWICE_CHANCE = 2.0 / N_SCENARIOS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "table2" | "generate" | "retrain"
    normalized_doppler: float
    vectors_per_condition: int
    samples_per_vector: int
    epochs: int  # fixed epoch count of the unit's training; 0 if it trains none
    threads: int = 1
    test_vectors: int = 0  # retrain: vectors per test condition
    seeds: int = 1  # distinct datasets per run

    def unit_seed(self, seed: int, k: int = 0) -> int:
        """Master seed of unit ``k``'s dataset."""
        return pipeline.derive_seed(seed, "unit", k % self.seeds)

    def spec(self, seed: int, snrs=(None,) + TEST_SNRS, vectors=None) -> pipeline.DatasetSpec:
        return pipeline.DatasetSpec(
            vectors_per_condition=vectors or self.vectors_per_condition,
            snr_list_db=snrs,
            samples_per_vector=self.samples_per_vector,
            sim=SimConfig(normalized_doppler=self.normalized_doppler),
            estimation="bem-ls",
            master_seed=seed)

    def unit_spec(self, seed: int) -> pipeline.DatasetSpec:
        """The dataset a unit generates, or for retrain the one it reads."""
        if self.mode == "retrain":
            return self.spec(seed, snrs=(None,))
        return self.spec(seed)

    def test_spec(self, seed: int) -> pipeline.DatasetSpec:
        return self.spec(seed, snrs=TEST_SNRS, vectors=self.test_vectors)

    def train_batch(self, seed: int) -> int:
        """Vectors per training step: the unit's noiseless records in one
        batch, or retrain's batch where retrain's set makes the classifier."""
        if self.mode == "generate":
            return RETRAIN.train_batch(seed)
        spec = self.unit_spec(seed)
        vectors = len(spec.scenario_labels) * spec.vectors_per_condition
        return min(vectors, self.train_config(seed).batch_size)

    def train_config(self, seed: int, epochs: int | None = None) -> mlp.TrainConfig:
        epochs = epochs or self.epochs
        return mlp.TrainConfig(seed=seed, epochs=epochs, plateau_patience=epochs)


TABLE2 = Workload(
    "table2",
    "the Table-2 job users run: generate at nu=0.004, write, train, save/load, "
    "evaluate, report; fading and BEM-LS share the records, the MLP about half",
    mode="table2", normalized_doppler=0.004, vectors_per_condition=1,
    samples_per_vector=25600, epochs=2000, seeds=3)

RETRAIN = Workload(
    "retrain",
    "the CLI train/eval loop over a fixed dataset: read, train on 120 noiseless "
    "vectors, save/load, evaluate, report; the MLP does most of the work",
    mode="retrain", normalized_doppler=0.02, vectors_per_condition=20,
    samples_per_vector=2048, epochs=500, test_vectors=2)

WORKLOADS = {w.name: w for w in (
    TABLE2,
    Workload(
        "fast-fading",
        "the same dataset at nu=0.02, generated, written, read back and classified: "
        "BEM-LS dominates each record and the unit trains nothing",
        mode="generate", normalized_doppler=0.02, vectors_per_condition=1,
        samples_per_vector=25600, epochs=0, seeds=2),  # see train_classifier
    # Not in BENCHMARK.json (see NOTES.md): retrain, whose set-ups do not fit
    # the evaluation time beside the other two and whose 0-dB accuracy
    # spreads widely, and dataset-threads2, which is too unsteady while the
    # pool oversubscribes BLAS threads.
    RETRAIN,
    replace(TABLE2, name="dataset-threads2",
            why="the table2 dataset made by generate_records(threads=2), the only "
                "use of the process pool",
            threads=2, seeds=1),
)}

# A fast-fading classifier trains in this many calls of equal epoch counts,
# each from the last one's weights, so that its epoch rate is a median over
# chunks.
CLASSIFIER_CHUNKS = 5


def reference_coords(spec: pipeline.DatasetSpec):
    """One record per scenario: the first noiseless vector."""
    return [(label, None, 0) for label in spec.scenario_labels]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _train_arrays(records):
    x = np.stack([r.feature.values for r in records])
    t = np.stack([one_hot(r.label) for r in records])
    return x, t


def setup(work: Workload, seed: int, out: Path) -> dict:
    """Everything a run needs before its first unit; runs in a fresh
    interpreter so that its time includes importing the package."""
    unit_seed = work.unit_seed(seed)
    spec = work.unit_spec(unit_seed)
    refs = [pipeline.make_record(spec, *c) for c in reference_coords(spec)]
    np.save(out / "refs.npy", np.stack([r.feature.values for r in refs]))
    info = {"ref_seeds": [r.realization_seed for r in refs]}
    if work.mode == "retrain":
        test_spec = work.test_spec(unit_seed)
        pipeline.write_dataset(out / "train.txt", spec, pipeline.generate_records(spec))
        pipeline.write_dataset(out / "test.txt", test_spec,
                               pipeline.generate_records(test_spec))
    (out / "setup.json").write_text(json.dumps(info))
    return info


def train_classifier(unit_seed: int) -> tuple[mlp.MLPParams, list[float]]:
    """The classifier of one dataset of a workload whose unit trains nothing.

    It trains on retrain's dataset at the dataset's master seed: 120 short
    noiseless records at nu = 0.02, cheap to make, which give a classifier
    that is far steadier across seeds than one trained on the six reference
    records.  Returns the model and the wall time of each training chunk.
    """
    x, t = _train_arrays(pipeline.generate_records(RETRAIN.unit_spec(unit_seed)))
    config = RETRAIN.train_config(unit_seed, RETRAIN.epochs // CLASSIFIER_CHUNKS)
    params = mlp.init_mlp(LAYER_SIZES, seed=unit_seed)
    chunk_s = []
    for _ in range(CLASSIFIER_CHUNKS):
        t0 = time.perf_counter()
        params, _ = mlp.train(params, x, t, config)
        chunk_s.append(time.perf_counter() - t0)
    return params, chunk_s


@dataclass
class SetupState:
    refs: np.ndarray  # the reference records of unit 0's dataset
    ref_seeds: list[int]
    directory: Path
    models: list[mlp.MLPParams] = field(default_factory=list)  # one per dataset
    classifier_epochs: int = 0
    classifier_chunk_s: list[float] = field(default_factory=list)


def load_setup(work: Workload, seed: int, directory: Path) -> SetupState:
    """The set-up's outputs; for a workload whose unit trains nothing, also
    its classifiers, trained here and not timed as set-up."""
    info = json.loads((directory / "setup.json").read_text())
    state = SetupState(np.load(directory / "refs.npy", allow_pickle=False),
                       info["ref_seeds"], directory)
    if work.mode == "generate":
        for d in range(work.seeds):
            model, chunk_s = train_classifier(work.unit_seed(seed, d))
            state.models.append(model)
            state.classifier_chunk_s += chunk_s
        state.classifier_epochs = RETRAIN.epochs // CLASSIFIER_CHUNKS
    return state


@dataclass
class UnitResult:
    seed: int = 0  # master seed of the unit's dataset
    wall_s: float = 0.0
    cpu_s: float = 0.0
    gen_s: float = 0.0
    records: int = 0  # generated and written
    records_read: int = 0
    train_s: float = 0.0
    epochs: int = 0
    steps: int = 0
    accuracy: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> failure detail or ""

    @property
    def ok(self) -> bool:
        return not any(self.checks.values())


def check_records(records, spec, state: SetupState | None) -> dict:
    """Feature rows of every record; with ``state``, also the records at the
    set-up's reference coordinates, which the set-up made alone."""
    out = {}
    if state is not None:
        by_coord = {(r.label, r.snr_db, i): r for r, i in zip(records, _indices(records))}
        bad = []
        for (label, snr, index), ref, ref_seed in zip(reference_coords(spec), state.refs,
                                                      state.ref_seeds):
            rec = by_coord.get((label, snr, index))
            if rec is None or rec.realization_seed != ref_seed or not np.array_equal(
                    rec.feature.values, ref):
                bad.append(f"scenario {label}")
        out["record_equals_made_alone"] = ", ".join(bad)
    rows = np.stack([r.feature.values for r in records]).reshape(-1, MAX_DELAY_UNITS,
                                                                 ENVELOPE_BINS)
    finite = np.isfinite(rows).all()
    worst = float(np.max(np.abs(rows.sum(axis=2) - 1.0))) if finite else float("inf")
    out["feature_rows_finite_sum_1"] = "" if finite and worst <= 1e-12 else (
        f"worst row-sum error {worst:g}")
    return out


def _indices(records):
    """Per-(label, SNR) running index, i.e. the records' coordinates."""
    seen: dict = {}
    for r in records:
        key = (r.label, r.snr_db)
        seen[key] = seen.get(key, -1) + 1
        yield seen[key]


def _evaluate_and_report(params, test_by_snr, out: Path, result: UnitResult) -> None:
    report = pipeline.evaluate(params, test_by_snr)
    pipeline.write_report(out / "report.txt", report)
    result.digests["report"] = sha256_file(out / "report.txt")
    result.accuracy = dict(report.per_snr_accuracy)
    low = [f"{s:g} dB: {100 * a:.1f} %" for s, a in result.accuracy.items()
           if a < TWICE_CHANCE - 1e-12]
    result.checks["accuracy_at_least_twice_chance"] = ", ".join(low)


def _train_save_load(work: Workload, train_records, out: Path, result: UnitResult):
    x, t = _train_arrays(train_records)
    config = work.train_config(result.seed)
    t0 = time.perf_counter()
    params, report = mlp.train(mlp.init_mlp(LAYER_SIZES, seed=result.seed), x, t, config)
    result.train_s = time.perf_counter() - t0
    result.epochs = len(report.epoch_losses)
    result.steps = result.epochs * -(-len(x) // config.batch_size)
    mlp.save_mlp(params, out / "model.json",
                 mlp.config_fingerprint(config, extra={"layer_sizes": list(LAYER_SIZES)}))
    result.digests["model"] = sha256_file(out / "model.json")
    loaded, _ = mlp.load_mlp(out / "model.json")
    same = loaded.layer_sizes == params.layer_sizes and all(
        np.array_equal(a, b) for a, b in zip(loaded.weights + loaded.biases,
                                             params.weights + params.biases))
    result.checks["model_roundtrip_bit_exact"] = "" if same else "loaded model differs"
    return loaded


def run_unit(work: Workload, seed: int, k: int, state: SetupState, out: Path,
             serial_digest: str | None = None) -> UnitResult:
    """Unit ``k`` of ``work``; ``out`` receives its dataset, model and report.

    Units on unit 0's dataset are checked against the set-up's reference
    records and, for the pool, against the serial dataset's bytes.
    """
    result = UnitResult(seed=work.unit_seed(seed, k))
    spec = work.unit_spec(result.seed)
    first_dataset = k % work.seeds == 0
    refs = state if first_dataset else None
    if work.mode == "retrain":
        _, train_records = pipeline.read_dataset(state.directory / "train.txt")
        _, test_records = pipeline.read_dataset(state.directory / "test.txt")
        result.records_read = len(train_records) + len(test_records)
        result.checks.update(check_records(train_records + test_records, spec, refs))
        params = _train_save_load(work, train_records, out, result)
        _, test_by_snr = pipeline.split_train_test(train_records + test_records)
        _evaluate_and_report(params, test_by_snr, out, result)
        return result
    t0 = time.perf_counter()
    records = pipeline.generate_records(spec, threads=work.threads)
    result.gen_s = time.perf_counter() - t0
    result.records = len(records)
    pipeline.write_dataset(out / "dataset.txt", spec, records)
    result.digests["dataset"] = sha256_file(out / "dataset.txt")
    if work.mode == "generate":
        # As the CLI's eval step does, classify the records read back.
        _, records = pipeline.read_dataset(out / "dataset.txt")
        result.records_read = len(records)
    result.checks.update(check_records(records, spec, refs))
    if serial_digest is not None and first_dataset:
        result.checks["threads_bytes_equal_serial"] = (
            "" if result.digests["dataset"] == serial_digest else "dataset bytes differ")
    train_records, test_by_snr = pipeline.split_train_test(records)
    if work.mode == "table2":
        params = _train_save_load(work, train_records, out, result)
    else:
        params = state.models[k % work.seeds]
    _evaluate_and_report(params, test_by_snr, out, result)
    return result
