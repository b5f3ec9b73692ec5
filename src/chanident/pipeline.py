"""End-to-end orchestration: dataset generation, train/test split, classifier
training, scenario evaluation and the experiment driver.  This module owns
the dataset and report file formats.

Every record derives its own seed from the master seed and the record's
(scenario, SNR, index) coordinates, so any single record is reproducible in
isolation and generation order (or parallelism) cannot change the output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import profiles
from .bem import DEFAULT_WINDOW_LEN, estimate_cir_windowed, window_plan
from .errors import IdentifiabilityError, InvalidSplitError
from .features import DDPDP, FEATURE_LENGTH, N_SCENARIOS, build_ddpdp, one_hot
from .modulation import random_frame
from .mlp import (MLPParams, TrainConfig, TrainReport, classify, config_fingerprint,
                  init_mlp, save_mlp, train)
from .simulate import SimConfig, add_awgn, apply_channel, generate_fading

DATASET_FORMAT = "chanident-dataset v2"
REPORT_FORMAT = "chanident-report v1"
NOISELESS = "noiseless"

ESTIMATION_MODES = ("bem-ls", "oracle-cir")
# Largest |SNR| in dB a dataset takes; add_awgn's 10^(snr/10) leaves the
# float range near +-3000 dB.
MAX_ABS_SNR_DB = 300.0
# The classifier's hidden layer widths in the accuracy-vs-SNR experiment.
HIDDEN_SIZES = (64, 48, 32, 24)


def _known_fields(cls, doc: dict) -> dict:
    """The entries of ``doc`` that name fields of the dataclass ``cls``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, not {doc!r}")
    return {f.name: doc[f.name] for f in fields(cls) if f.name in doc}


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset byte-for-byte."""

    scenario_labels: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    vectors_per_condition: int = 20
    snr_list_db: tuple[float | None, ...] = (None, 0.0, 10.0, 20.0, 30.0, 40.0)
    samples_per_vector: int = 25600
    sim: SimConfig = field(default_factory=SimConfig)
    estimation: str = "bem-ls"
    window_len: int = DEFAULT_WINDOW_LEN
    master_seed: int = 0

    def __post_init__(self):
        # bool is an int subclass, and a str or float would fail below
        # without naming its key, or build a record count of 2.5
        for name in ("vectors_per_condition", "samples_per_vector", "master_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if self.vectors_per_condition < 1:
            raise ValueError("vectors_per_condition must be >= 1")
        if self.samples_per_vector < 400:
            raise ValueError("samples_per_vector must be >= 400")
        if self.estimation not in ESTIMATION_MODES:
            raise ValueError(f"estimation must be one of {ESTIMATION_MODES}")
        # bool is an int subclass; a numpy integer would not serialize
        if type(self.window_len) is not int or self.window_len < 2:
            raise ValueError(f"window_len must be an int >= 2, not {self.window_len!r}")
        for name in ("scenario_labels", "snr_list_db"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ValueError(f"{name} must be a list, not {getattr(self, name)!r}")
            if not len(getattr(self, name)):
                raise ValueError(f"{name} must not be empty")
        for label in self.scenario_labels:
            if type(label) is not int:
                raise ValueError(f"scenario_labels entries must be ints, not {label!r}")
            if not 1 <= label <= N_SCENARIOS:
                raise ValueError(f"scenario_labels entries must lie in 1..{N_SCENARIOS}, "
                                 f"not {label}")
        labels = tuple(self.scenario_labels)
        # bool is an int, and float() would take a string
        if any(s is not None and (isinstance(s, bool) or not isinstance(s, (int, float)))
               for s in self.snr_list_db):
            raise ValueError(f"snr_list_db entries must be numbers or None (noiseless), "
                             f"not {list(self.snr_list_db)}")
        snrs = tuple(None if s is None else float(s) for s in self.snr_list_db)
        bad = [s for s in snrs if s is not None and not math.isfinite(s)]
        if bad:
            raise ValueError(f"snr_list_db entries must be finite or None (noiseless), not {bad}")
        bad = [s for s in snrs if s is not None and abs(s) > MAX_ABS_SNR_DB]
        if bad:
            raise ValueError(f"snr_list_db entries must lie in [-{MAX_ABS_SNR_DB:g}, "
                             f"{MAX_ABS_SNR_DB:g}] dB, not {bad}")
        # A repeated entry would repeat its records, seeds and all.
        for name, entries in (("scenario_labels", labels), ("snr_list_db", snrs)):
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} entries must be unique")
        object.__setattr__(self, "scenario_labels", labels)
        object.__setattr__(self, "snr_list_db", snrs)
        if self.estimation == "bem-ls":
            window_plan(self.samples_per_vector, self.window_len, self.sim.normalized_doppler,
                        max(len(profiles.load_profile(label).delay_units) for label in labels))

    @property
    def record_count(self) -> int:
        return len(self.scenario_labels) * len(self.snr_list_db) * self.vectors_per_condition

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["scenario_labels"] = list(self.scenario_labels)
        doc["snr_list_db"] = [NOISELESS if s is None else s for s in self.snr_list_db]
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "DatasetSpec":
        """The spec of ``doc``; absent keys take the dataclass defaults."""
        kwargs = _known_fields(DatasetSpec, doc)
        if isinstance(kwargs.get("snr_list_db"), (tuple, list)):
            kwargs["snr_list_db"] = tuple(None if s == NOISELESS else s
                                          for s in kwargs["snr_list_db"])
        if "sim" in kwargs:
            kwargs["sim"] = SimConfig(**_known_fields(SimConfig, kwargs["sim"]))
        return DatasetSpec(**kwargs)

    def fingerprint(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset line; it refuses a label, SNR or seed no file may hold."""

    feature: DDPDP
    label: int
    snr_db: float | None  # None: noiseless
    realization_seed: int

    def __post_init__(self):
        # type(), not isinstance: a bool is an int, and a label of True or
        # 1.5 would be written as a line read_dataset refuses
        for name in ("label", "realization_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if not 1 <= self.label <= N_SCENARIOS:
            raise ValueError(f"label must lie in 1..{N_SCENARIOS}, got {self.label}")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"SNR must be finite, got {self.snr_db}")


@dataclass(frozen=True)
class EvalReport:
    per_snr_accuracy: dict
    confusions: dict  # snr -> (6, 6) int array, rows true, cols predicted
    average_accuracy: float


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and record coordinates."""
    text = "|".join([str(int(master))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)


def _snr_token(snr_db: float | None) -> str:
    return NOISELESS if snr_db is None else repr(float(snr_db))


def make_record(spec: DatasetSpec, label: int, snr_db: float | None, index: int) -> DatasetRecord:
    """Simulate, estimate and featurize one dataset record.

    BEM-LS runs on the scenario's delay profile (the sounding stage's
    output; delays are a scenario constant), and ``build_ddpdp`` fills the
    feature rows of the delay units with no tap as zero gain.  Estimating
    all 12 grid rows instead would put each unused row's noise floor into
    the histograms - consistently zero under noiseless training but
    SNR-dependent at test time, which defeats a noiselessly trained
    classifier.
    """
    seed = derive_seed(spec.master_seed, label, _snr_token(snr_db), index)
    profile = profiles.load_profile(label)
    n = spec.samples_per_vector
    true_cir = generate_fading(profile, n, spec.sim, seed=derive_seed(seed, "fading"))
    if spec.estimation == "oracle-cir":
        return DatasetRecord(build_ddpdp(true_cir), label, snr_db, seed)
    frame = random_frame(n, seed=derive_seed(seed, "frame"))
    received = add_awgn(apply_channel(frame, true_cir), snr_db,
                        seed=derive_seed(seed, "noise"))
    del true_cir  # BEM-LS sees only the received signal; free L x n gains before the fit
    try:
        cir = estimate_cir_windowed(received, frame.samples, profile.delay_units,
                                    spec.sim.normalized_doppler, spec.window_len)
    except IdentifiabilityError as exc:
        raise IdentifiabilityError(
            f"record (scenario {label}, snr {_snr_token(snr_db)}, index {index}): "
            f"{exc}") from exc
    return DatasetRecord(build_ddpdp(cir), label, snr_db, seed)


def generate_records(spec: DatasetSpec, threads: int = 1) -> list[DatasetRecord]:
    """All records of ``spec`` in canonical (scenario, SNR, index) order.

    Records are seeded independently, so the result is identical for any
    ``threads`` value.  The pool starts all its workers at once, so their
    count is capped at the record count and the CPU count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    labels, snrs, indices = zip(*itertools.product(
        spec.scenario_labels, spec.snr_list_db, range(spec.vectors_per_condition)))
    workers = min(threads, spec.record_count, os.cpu_count() or 1)
    if workers <= 1:
        return list(map(make_record, itertools.repeat(spec), labels, snrs, indices))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(make_record, itertools.repeat(spec), labels, snrs, indices,
                             chunksize=max(1, spec.record_count // (8 * workers))))


def write_dataset(path, spec: DatasetSpec, records: list[DatasetRecord]) -> None:
    """Line-delimited text: header with version + spec fingerprint, then one
    record per line as "label snr seed v0 ... v4799" with round-trip-stable
    shortest-repr floats."""
    with open(path, "w") as fh:
        fh.write(f"# {DATASET_FORMAT} fingerprint={spec.fingerprint()}\n")
        fh.write(f"# spec {json.dumps(spec.to_dict(), sort_keys=True, separators=(',', ':'))}\n")
        for rec in records:
            values = " ".join(map(repr, rec.feature.values.tolist()))
            fh.write(f"{rec.label} {_snr_token(rec.snr_db)} {rec.realization_seed} {values}\n")


def read_dataset(path) -> tuple[DatasetSpec, list[DatasetRecord]]:
    """The spec and records of a dataset file, read one line at a time, so
    that only the records, never the whole text, are held."""
    with open(path) as fh:
        head = fh.readline().split()[:3]
        if head[:2] != ["#", DATASET_FORMAT.split()[0]]:
            raise ValueError(f"{path}: not a {DATASET_FORMAT} file")
        if head[1:] != DATASET_FORMAT.split():
            raise ValueError(f"{path}: {' '.join(head[1:])} file; this version reads "
                             f"{DATASET_FORMAT} only, so regenerate the dataset")
        spec_line = fh.readline().rstrip("\n")
        if not spec_line.startswith("# spec "):
            raise ValueError(f"{path}: missing spec header line")
        try:
            spec = DatasetSpec.from_dict(json.loads(spec_line[len("# spec "):]))
        except (ValueError, TypeError) as exc:  # json's decode error is a ValueError
            raise ValueError(f"{path}: line 2: {exc}") from None
        records = []
        for lineno, line in enumerate(fh, start=3):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3 + FEATURE_LENGTH:
                raise ValueError(
                    f"{path}: line {lineno}: expected {3 + FEATURE_LENGTH} fields, "
                    f"got {len(fields)}")
            try:
                records.append(DatasetRecord(
                    DDPDP(np.array([float(v) for v in fields[3:]])), int(fields[0]),
                    None if fields[1] == NOISELESS else float(fields[1]), int(fields[2])))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return spec, records


def split_train_test(records: list[DatasetRecord]):
    """Noiseless records train; finite-SNR records test, grouped by SNR."""
    train = [r for r in records if r.snr_db is None]
    if not train:
        raise InvalidSplitError("dataset has no noiseless records to train on")
    test: dict[float, list[DatasetRecord]] = {}
    for r in records:
        if r.snr_db is not None:
            test.setdefault(r.snr_db, []).append(r)
    if not test:
        warnings.warn("dataset has no finite-SNR records: test set is empty")
    return train, dict(sorted(test.items()))


def evaluate(params: MLPParams, test_by_snr: dict) -> EvalReport:
    """Per-SNR accuracy and confusion matrices using the trained classifier."""
    per_snr = {}
    confusions = {}
    for snr, group in sorted(test_by_snr.items()):
        if not group:
            warnings.warn(f"empty test group at SNR {snr}; skipped")
            continue
        confusion = np.zeros((N_SCENARIOS, N_SCENARIOS), dtype=np.int64)
        for rec in group:
            confusion[rec.label - 1, classify(params, rec.feature.values) - 1] += 1
        per_snr[snr] = int(np.trace(confusion)) / len(group)
        confusions[snr] = confusion
    average = float(np.mean(list(per_snr.values()))) if per_snr else float("nan")
    return EvalReport(per_snr, confusions, average)


def write_report(path, report: EvalReport) -> None:
    """Tab-separated accuracy table (one row of SNRs + Avg, one of percent
    accuracies) followed by per-SNR confusion matrix blocks."""
    snrs = list(report.per_snr_accuracy)
    with open(path, "w") as fh:
        fh.write(f"# {REPORT_FORMAT}\n")
        fh.write("SNR/dB\t" + "\t".join(f"{s:g}" for s in snrs) + "\tAvg\n")
        fh.write("Accuracy/%\t"
                 + "\t".join(f"{100 * report.per_snr_accuracy[s]:.1f}" for s in snrs)
                 + f"\t{100 * report.average_accuracy:.1f}\n")
        for s in snrs:
            fh.write(f"# confusion snr={s:g} dB (rows: true label 1..6, cols: predicted)\n")
            for row in report.confusions[s]:
                fh.write("\t".join(str(int(v)) for v in row) + "\n")


def format_accuracy_table(report: EvalReport) -> str:
    """The accuracy-vs-SNR table as two aligned console lines."""
    snrs = list(report.per_snr_accuracy)
    return ("SNR/dB    " + "  ".join(f"{s:>6g}" for s in snrs) + "     Avg\n"
            + "Acc/%     "
            + "  ".join(f"{100 * report.per_snr_accuracy[s]:>6.1f}" for s in snrs)
            + f"  {100 * report.average_accuracy:>6.1f}")


def train_classifier(records: list[DatasetRecord], hidden_sizes, config: TrainConfig,
                     init_seed: int) -> tuple[MLPParams, TrainReport, dict]:
    """Train a fresh classifier on ``records``, the noiseless split.

    Returns the trained parameters, the training report and the fingerprint
    that the model file carries.
    """
    if type(init_seed) is not int:  # the fingerprint is JSON, and bool is an int
        raise ValueError(f"init_seed must be an int, not {init_seed!r}")
    if init_seed < 0:
        raise ValueError(f"init_seed must be >= 0, got {init_seed}")
    x = np.stack([r.feature.values for r in records])
    t = np.stack([one_hot(r.label) for r in records])
    sizes = [FEATURE_LENGTH, *hidden_sizes, N_SCENARIOS]
    try:
        initial = init_mlp(sizes, seed=init_seed)
    except ValueError as exc:
        raise ValueError(f"hidden_sizes {list(hidden_sizes)}: {exc}") from exc
    params, report = train(initial, x, t, config)
    fingerprint = config_fingerprint(config, extra={"init_seed": init_seed,
                                                    "layer_sizes": sizes})
    return params, report, fingerprint


def run_experiment(spec: DatasetSpec, out_dir, hidden_sizes, config: TrainConfig,
                   init_seed: int, threads: int = 1
                   ) -> tuple[list[DatasetRecord], TrainReport, EvalReport]:
    """The accuracy-vs-SNR experiment: generate ``spec``'s records, train on
    the noiseless ones and evaluate per SNR.

    Writes ``dataset.txt``, ``model.json`` and ``report.txt`` into
    ``out_dir``, byte for byte the files of the CLI's ``dataset``, ``train``
    and ``eval`` run with the same settings.
    """
    records = generate_records(spec, threads)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # not before a refusal
    write_dataset(out_dir / "dataset.txt", spec, records)
    train_records, test = split_train_test(records)
    params, train_report, fingerprint = train_classifier(train_records, hidden_sizes,
                                                         config, init_seed)
    save_mlp(params, out_dir / "model.json", fingerprint)
    report = evaluate(params, test)
    write_report(out_dir / "report.txt", report)
    return records, train_report, report

