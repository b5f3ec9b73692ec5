import re
import tracemalloc

import numpy as np
import pytest

from _oracles import static_probe
from chanident import pipeline
from chanident.errors import InsufficientSignalError, InvalidSplitError
from chanident.features import DDPDP, ENVELOPE_BINS, FEATURE_LENGTH
from chanident.mlp import TrainConfig
from chanident.mseq import generate_mseq
from chanident.pipeline import (DATASET_FORMAT, DatasetRecord, DatasetSpec, derive_seed,
                                evaluate, generate_records, make_record, read_dataset,
                                split_train_test, write_dataset, write_report)
from chanident.profiles import load_profile
from chanident.simulate import ComplexSignal, SimConfig
from chanident.sounding import probe_signal, sound_and_profile

TINY = DatasetSpec(scenario_labels=(1, 3), vectors_per_condition=2,
                   snr_list_db=(None, 10.0), samples_per_vector=400,
                   estimation="oracle-cir", master_seed=99)


def _synthetic_record(label, snr, tag=0):
    values = np.zeros(FEATURE_LENGTH)
    values[::ENVELOPE_BINS] = 1.0  # every row a point mass in bin 0 ...
    values[:2] = label / 10.0, 1.0 - label / 10.0  # ... but row 0 lets a stub read the truth
    return DatasetRecord(DDPDP(values), label, snr, tag)


class TestDatasetSpec:
    def test_record_count_arithmetic(self):
        spec = DatasetSpec(vectors_per_condition=100)
        assert spec.record_count == 6 * 6 * 100 == 3600

    def test_single_record_spec(self):
        spec = DatasetSpec(scenario_labels=(1,), vectors_per_condition=1,
                           snr_list_db=(20.0,), samples_per_vector=400)
        assert spec.record_count == 1

    def test_round_trips_through_dict(self):
        assert DatasetSpec.from_dict(TINY.to_dict()) == TINY

    def test_absent_keys_take_the_dataclass_defaults(self):
        assert DatasetSpec.from_dict({}) == DatasetSpec()
        spec = DatasetSpec.from_dict({"sim": {"normalized_doppler": 0.02}})
        assert spec == DatasetSpec(sim=SimConfig(normalized_doppler=0.02))

    def test_fingerprint_stable_and_sensitive(self):
        assert TINY.fingerprint() == DatasetSpec.from_dict(TINY.to_dict()).fingerprint()
        other = DatasetSpec(scenario_labels=(1, 3), vectors_per_condition=2,
                            snr_list_db=(None, 10.0), samples_per_vector=400,
                            estimation="oracle-cir", master_seed=100)
        assert other.fingerprint() != TINY.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(vectors_per_condition=0)
        with pytest.raises(ValueError):
            DatasetSpec(samples_per_vector=100)
        with pytest.raises(ValueError):
            DatasetSpec(estimation="other")
        with pytest.raises(ValueError):
            DatasetSpec(scenario_labels=(0,))
        with pytest.raises(ValueError, match="scenario_labels entries must be unique"):
            DatasetSpec(scenario_labels=(1, 1))
        with pytest.raises(ValueError, match="snr_list_db entries must be unique"):
            DatasetSpec(snr_list_db=(None, 10, 10.0))

    @pytest.mark.parametrize("key", ["scenario_labels", "snr_list_db"])
    def test_rejects_empty_list_by_name(self, key):
        # an empty list wrote a dataset of 0 records
        with pytest.raises(ValueError, match=f"^{key} must not be empty"):
            DatasetSpec(**{key: ()})

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_rejects_snr_not_finite(self, snr):
        # NaN failed inside the first record and inf made records
        with pytest.raises(ValueError, match="snr_list_db entries must be finite"):
            DatasetSpec(snr_list_db=(None, 10.0, snr))

    @pytest.mark.parametrize("snr", [100000, 3100, -3100, -100000, 300.5])
    def test_rejects_snr_past_the_bound(self, snr):
        # 3100 and 100000 raised OverflowError in add_awgn, -100000 ZeroDivisionError
        with pytest.raises(ValueError, match=r"^snr_list_db entries must lie in \[-300, 300\] dB"):
            DatasetSpec(snr_list_db=(None, snr))

    def test_snr_bound_is_inclusive(self):
        assert DatasetSpec(snr_list_db=(-300, 300.0)).snr_list_db == (-300.0, 300.0)

    @pytest.mark.parametrize("labels", [(True,), (1.0,), (np.int64(1),)])
    def test_rejects_labels_not_int(self, labels):
        # a float or bool label was written as "1.0" or "True", which no reader takes
        with pytest.raises(ValueError, match="scenario_labels entries must be ints"):
            DatasetSpec(scenario_labels=labels)

    @pytest.mark.parametrize("snr", [True, False, "10"])
    def test_rejects_snr_not_number(self, snr):
        with pytest.raises(ValueError, match="snr_list_db entries must be numbers or None"):
            DatasetSpec(snr_list_db=(None, snr))

    @pytest.mark.parametrize("window_len", [1, 0, -512, 512.0, True, "512"])
    def test_rejects_window_len_not_int_at_least_two(self, window_len):
        with pytest.raises(ValueError, match="window_len must be an int >= 2"):
            DatasetSpec(window_len=window_len)

    @pytest.mark.parametrize("key, value", [
        ("vectors_per_condition", "3"), ("vectors_per_condition", 2.5),
        ("vectors_per_condition", True), ("samples_per_vector", "25600"),
        ("samples_per_vector", 25600.0), ("samples_per_vector", np.int64(25600)),
        ("master_seed", "x"), ("master_seed", 1.5), ("master_seed", False)])
    def test_rejects_count_or_seed_not_int_by_name(self, key, value):
        # "3" raised a bare "'<' not supported", and 2.5 or "x" were taken
        with pytest.raises(ValueError, match=f"^{key} must be an int, not"):
            DatasetSpec.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("scenario_labels", 1), ("scenario_labels", "12"), ("snr_list_db", 10.0),
        ("snr_list_db", "noiseless"), ("snr_list_db", {"a": 1})])
    def test_rejects_list_key_not_a_list_by_name(self, key, value):
        # 10.0 raised a bare "'float' object is not iterable"
        with pytest.raises(ValueError, match=f"^{key} must be a list, not"):
            DatasetSpec.from_dict({key: value})

    @pytest.mark.parametrize("labels, window_len", [
        ((1, 2, 3, 4, 5, 6), 2), ((6,), 8), ((6,), 40), ((1,), 8)])
    def test_window_too_short_for_bem_ls_refused_by_name(self, labels, window_len):
        with pytest.raises(ValueError, match=f"^window_len {window_len} leaves a"):
            DatasetSpec(scenario_labels=labels, window_len=window_len)
        # no window is fitted
        DatasetSpec(scenario_labels=labels, window_len=window_len, estimation="oracle-cir")

    def test_window_check_covers_every_window(self):
        # 4 taps x 4 basis terms fit a 24-sample window, 12 taps need 48
        DatasetSpec(scenario_labels=(1,), window_len=24)
        DatasetSpec(scenario_labels=(6,), window_len=48)
        # one window when the record is shorter: 12 x 7 = 84 unknowns in 450
        DatasetSpec(scenario_labels=(6,), window_len=25600, samples_per_vector=450)
        # 400 = 6 x 60 + 40: the 40-sample tail is at least half a window,
        # so it is fitted on its own, and cannot hold 48 unknowns
        with pytest.raises(ValueError, match="^window_len 60 leaves a 40-sample window"):
            DatasetSpec(scenario_labels=(6,), window_len=60, samples_per_vector=400)


@pytest.mark.parametrize("label, snr, message", [
    (0, 10.0, "label must lie in 1..6, got 0"), (7, None, "label must lie in 1..6, got 7"),
    (1, float("nan"), "SNR must be finite, got nan"),
    (1, float("inf"), "SNR must be finite, got inf"),
    (1, float("-inf"), "SNR must be finite, got -inf")])
def test_record_refuses_label_or_snr_by_name(label, snr, message):
    feature = _synthetic_record(1, None).feature
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DatasetRecord(feature, label, snr, 1)


@pytest.mark.parametrize("label, seed, message", [
    (True, 5, "label must be an int, not True"), (1.5, 5, "label must be an int, not 1.5"),
    (np.int64(2), 5, "label must be an int, not np.int64(2)"),
    (1, 5.0, "realization_seed must be an int, not 5.0"),
    (1, "5", "realization_seed must be an int, not '5'"),
    (1, False, "realization_seed must be an int, not False")])
def test_record_refuses_label_or_seed_of_another_type_by_name(label, seed, message):
    # DatasetRecord(feature, True, None, 5) was written as "True noiseless 5 ...",
    # a line read_dataset refuses
    feature = _synthetic_record(1, None).feature
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DatasetRecord(feature, label, None, seed)


def test_int_labels_and_seeds_round_trip_through_a_file(tmp_path):
    records = [DatasetRecord(_synthetic_record(label, snr).feature, label, snr, seed)
               for label, snr, seed in ((1, None, 0), (6, -3.5, 2 ** 63 - 1), (3, 20.0, 7))]
    write_dataset(tmp_path / "data.txt", TINY, records)
    _, back = read_dataset(tmp_path / "data.txt")
    assert [(r.label, r.snr_db, r.realization_seed) for r in back] == [
        (r.label, r.snr_db, r.realization_seed) for r in records]
    assert all(type(r.label) is int and type(r.realization_seed) is int for r in back)
    assert all(np.array_equal(a.feature.values, b.feature.values)
               for a, b in zip(back, records))


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert 0 <= derive_seed(123, "noiseless", 7) < 2 ** 63


class TestGenerateRecords:
    def test_tiny_dataset_counts_and_labels(self):
        records = generate_records(TINY)
        assert len(records) == TINY.record_count == 8
        assert [r.label for r in records] == [1, 1, 1, 1, 3, 3, 3, 3]
        assert {r.snr_db for r in records} == {None, 10.0}
        for r in records:
            assert r.feature.values.shape == (FEATURE_LENGTH,)

    def test_deterministic(self):
        a = generate_records(TINY)
        b = generate_records(TINY)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.feature.values, rb.feature.values)
            assert ra.realization_seed == rb.realization_seed

    def test_threads_do_not_change_output(self):
        a = generate_records(TINY)
        b = generate_records(TINY, threads=2)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.feature.values, rb.feature.values)
            # a record pickled back from a worker is as read-only as one made here
            assert not (rb.feature.bins.flags.writeable or rb.feature.values.flags.writeable)

    def test_record_working_set_bounded_by_the_record(self):
        # BUx12 at 25 600 samples: the 12 x n gains are 4.9 MB.  Fading one tap
        # at a time, BEM-LS regressors built per window and the true gains
        # released before the fit keep the per-record peak near two copies of
        # them; holding every tap's residues and a whole-record regressor copy
        # peaked at 18 MB.  A first record fills the caches, so only the
        # per-record working set is traced.
        spec = DatasetSpec(scenario_labels=(6,), vectors_per_condition=1,
                           snr_list_db=(20.0,), sim=SimConfig(0.004))
        make_record(spec, 6, 20.0, 0)
        tracemalloc.start()
        try:
            make_record(spec, 6, 20.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_worker_count_capped_by_records_and_cpus(self, monkeypatch):
        # the pool forks all max_workers processes at the first submit
        started = []

        class FakePool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 3)
        two = DatasetSpec(scenario_labels=(1,), vectors_per_condition=1,
                          snr_list_db=(None, 10.0), samples_per_vector=400,
                          estimation="oracle-cir")
        serial = generate_records(two)
        pooled = generate_records(two, threads=5000)
        assert started == [2]
        for a, b in zip(serial, pooled, strict=True):
            assert np.array_equal(a.feature.values, b.feature.values)
        generate_records(TINY, threads=5000)  # 8 records
        assert started == [2, 3]
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
        generate_records(TINY, threads=5000)  # an unknown CPU count runs serially
        assert started == [2, 3]

    def test_one_record_spec_walks_to_one_record(self):
        spec = DatasetSpec(scenario_labels=(4,), vectors_per_condition=1,
                           snr_list_db=(20.0,), samples_per_vector=400,
                           estimation="oracle-cir", master_seed=7)
        (rec,) = generate_records(spec)
        assert (rec.label, rec.snr_db) == (4, 20.0)
        assert rec.realization_seed == derive_seed(7, 4, "20.0", 0)

    def test_threads_below_one_refused_by_name(self):
        # it ran serially, as threads=1 does
        with pytest.raises(ValueError, match="^threads must be >= 1, got 0$"):
            generate_records(TINY, threads=0)

    def test_bem_ls_mode_runs(self):
        spec = DatasetSpec(scenario_labels=(2,), vectors_per_condition=1,
                           snr_list_db=(30.0,), samples_per_vector=512,
                           estimation="bem-ls", master_seed=5)
        (rec,) = generate_records(spec)
        assert rec.feature.values.shape == (FEATURE_LENGTH,)
        assert rec.label == 2

    def test_identifiability_error_carries_record_context(self):
        from chanident.errors import IdentifiabilityError

        # 12-tap scenario in a 24-sample window: far fewer equations than
        # unknowns, so the estimator must refuse and name the record.
        # DatasetSpec refuses such a window itself, so the spec is altered
        # after its checks, as a record whose fit fails all the same would be.
        spec = DatasetSpec(scenario_labels=(6,), vectors_per_condition=1,
                           snr_list_db=(10.0,), samples_per_vector=400,
                           estimation="bem-ls", master_seed=5)
        object.__setattr__(spec, "window_len", 24)
        with pytest.raises(IdentifiabilityError, match="scenario 6, snr 10.0, index 0"):
            generate_records(spec)


class TestDatasetFile:
    def test_round_trip_lossless(self, tmp_path):
        records = generate_records(TINY)
        path = tmp_path / "data.txt"
        write_dataset(path, TINY, records)
        spec2, records2 = read_dataset(path)
        assert spec2 == TINY
        assert len(records2) == len(records)
        for a, b in zip(records, records2):
            assert a.label == b.label and a.snr_db == b.snr_db
            assert a.realization_seed == b.realization_seed
            assert np.array_equal(a.feature.values, b.feature.values)
        # blank record lines are skipped
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:] + [""]) + "\n")
        spec3, records3 = read_dataset(path)
        assert spec3 == TINY
        for a, b in zip(records2, records3, strict=True):
            assert a.realization_seed == b.realization_seed
            assert np.array_equal(a.feature.values, b.feature.values)

    def test_same_spec_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(p1, TINY, generate_records(TINY))
        write_dataset(p2, TINY, generate_records(TINY))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "data.txt"
        write_dataset(path, TINY, generate_records(TINY)[:2])
        good = path.read_text().splitlines()
        fields = good[3].split()
        bad_lines = {
            "expected": " ".join(fields[:-1]),  # one value short
            "finite": " ".join(fields[:-1] + ["nan"]),
            "label must lie": " ".join(["7"] + fields[1:]),
            "label must lie in 1..6, got 0": " ".join(["0"] + fields[1:]),
            "non-negative": " ".join(fields[:3] + ["-0.5", "7.25"] + fields[5:]),  # row sum 7.75
            "sum to 1": " ".join(fields[:3] + ["0.25", "0.75"] + fields[5:]),
            "SNR must be finite, got nan": " ".join(fields[:1] + ["nan"] + fields[2:]),
        }
        for message, bad in bad_lines.items():
            path.write_text("\n".join(good[:3] + [bad]) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: .*{message}"):
                read_dataset(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("not a dataset\n")
        with pytest.raises(ValueError, match="dataset"):
            read_dataset(path)

    @pytest.mark.parametrize("spec_line, message", [
        # a list or a string read as the default spec
        ("# spec [1, 2]", "line 2: DatasetSpec must be a JSON object, not [1, 2]"),
        ('# spec "sim"', "line 2: DatasetSpec must be a JSON object, not 'sim'"),
        # these four ended in a TypeError
        ('# spec {"sim": 5}', "line 2: SimConfig must be a JSON object, not 5"),
        ('# spec {"scenario_labels": 5}', "line 2: "),
        ('# spec {"vectors_per_condition": "3"}', "line 2: "),
        ('# spec {"sim": {"normalized_doppler": "x"}}', "line 2: "),
        # read as 0 and written back as false
        ('# spec {"sim": {"normalized_doppler": false}}',
         "line 2: normalized_doppler must be finite and in [0, 0.5), got False"),
        ('# spec {"sim": ', "line 2: Expecting value"),
        ("label snr seed", "missing spec header line"),
    ], ids=["list", "string", "sim-5", "labels-5", "vectors-str", "doppler-str",
            "doppler-false", "json", "no-spec-line"])
    def test_bad_spec_line_refused_by_line(self, tmp_path, spec_line, message):
        path = tmp_path / "data.txt"
        write_dataset(path, TINY, [])
        header = path.read_text().splitlines()[0]
        path.write_text(f"{header}\n{spec_line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
            read_dataset(path)

    def test_v2_header_with_the_removed_sim_keys_reads(self, tmp_path):
        # files written before SimConfig lost its rate and seed keys
        path = tmp_path / "data.txt"
        records = generate_records(TINY)
        write_dataset(path, TINY, records)
        lines = path.read_text().splitlines()
        old = '"sim":{"normalized_doppler":0.004,"samples_per_symbol":1,"seed":0,' \
              '"symbol_rate_hz":100000.0}'
        assert '"sim":{"normalized_doppler":0.004}' in lines[1]
        lines[1] = lines[1].replace('"sim":{"normalized_doppler":0.004}', old)
        path.write_text("\n".join(lines) + "\n")
        spec, back = read_dataset(path)
        assert spec == TINY
        for a, b in zip(records, back, strict=True):
            assert np.array_equal(a.feature.values, b.feature.values)

    @pytest.mark.parametrize("version", ["v1", "v20", "v2.1"])
    def test_other_format_version_rejected(self, tmp_path, version):
        spec = DatasetSpec(scenario_labels=(1,), vectors_per_condition=1,
                           snr_list_db=(None,), samples_per_vector=400,
                           estimation="oracle-cir")
        path = tmp_path / "data.txt"
        write_dataset(path, spec, generate_records(spec))
        lines = path.read_text().splitlines()
        assert lines[0].startswith(f"# {DATASET_FORMAT} fingerprint=")
        assert len(read_dataset(path)[1]) == 1
        lines[0] = lines[0].replace(DATASET_FORMAT, f"chanident-dataset {version}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"chanident-dataset {re.escape(version)} file;"
                                             ".* regenerate the dataset$"):
            read_dataset(path)


class TestSplit:
    def test_counts(self):
        records = ([_synthetic_record(1, None, i) for i in range(6)]
                   + [_synthetic_record(1, s, i) for s in (0.0, 10.0) for i in range(4)])
        train, test = split_train_test(records)
        assert len(train) == 6
        assert sorted(test) == [0.0, 10.0]
        assert all(len(g) == 4 for g in test.values())

    def test_full_scale_counts(self):
        spec = DatasetSpec(vectors_per_condition=100)
        n_noiseless = sum(1 for s in spec.snr_list_db if s is None)
        assert n_noiseless * len(spec.scenario_labels) * 100 == 600
        assert (len(spec.snr_list_db) - n_noiseless) * len(spec.scenario_labels) * 100 == 3000

    def test_no_noiseless_rejected(self):
        with pytest.raises(InvalidSplitError):
            split_train_test([_synthetic_record(1, 10.0)])

    def test_only_noiseless_warns(self):
        with pytest.warns(UserWarning, match="test set is empty"):
            train, test = split_train_test([_synthetic_record(1, None)])
        assert not test


def test_refused_run_experiment_leaves_no_directory(tmp_path):
    out = tmp_path / "run" / "nested"
    with pytest.raises(ValueError, match="^threads must be >= 1"):
        pipeline.run_experiment(TINY, out, (4,), TrainConfig(epochs=1), 0, threads=0)
    assert not (tmp_path / "run").exists()


def test_train_classifier_rejects_negative_init_seed_by_name():
    with pytest.raises(ValueError, match="^init_seed must be >= 0"):
        pipeline.train_classifier([_synthetic_record(1, None)], (4,), TrainConfig(), -1)


@pytest.mark.parametrize("init_seed", [True, 1.5, "0", np.int64(0)])
def test_train_classifier_rejects_init_seed_not_int_by_name(init_seed):
    # True trained and was written into the fingerprint as "init_seed": true
    message = f"^init_seed must be an int, not {re.escape(repr(init_seed))}$"
    with pytest.raises(ValueError, match=message):
        pipeline.train_classifier([_synthetic_record(1, None)], (4,), TrainConfig(), init_seed)


class TestEvaluate:
    def _grouped(self, labels=(1, 2, 3, 4, 5, 6), snrs=(0.0, 10.0), per=3):
        return {s: [_synthetic_record(l, s, i) for l in labels for i in range(per)]
                for s in snrs}

    def test_perfect_classifier(self, monkeypatch):
        monkeypatch.setattr(pipeline, "classify",
                            lambda params, f: int(round(f[0] * 10)))
        report = evaluate(None, self._grouped())
        assert all(a == 1.0 for a in report.per_snr_accuracy.values())
        assert report.average_accuracy == 1.0
        for conf in report.confusions.values():
            assert np.array_equal(conf, np.diag(np.diag(conf)))

    def test_constant_classifier_on_balanced_set(self, monkeypatch):
        monkeypatch.setattr(pipeline, "classify", lambda params, f: 1)
        report = evaluate(None, self._grouped())
        assert all(a == pytest.approx(1 / 6) for a in report.per_snr_accuracy.values())

    def test_confusion_rows_sum_to_group_counts(self, monkeypatch):
        monkeypatch.setattr(pipeline, "classify", lambda params, f: 4)
        report = evaluate(None, self._grouped(per=5))
        for conf in report.confusions.values():
            assert conf.sum(axis=1).tolist() == [5] * 6

    def test_average_is_mean_of_per_snr(self, monkeypatch):
        calls = iter([1, 2] * 1000)
        monkeypatch.setattr(pipeline, "classify", lambda params, f: next(calls))
        report = evaluate(None, self._grouped())
        assert report.average_accuracy == pytest.approx(
            np.mean(list(report.per_snr_accuracy.values())))

    def test_label_zero_record_never_reaches_it(self):
        # evaluate scored such a record into BUx12's row, confusion[-1]
        with pytest.raises(ValueError, match="^label must lie in 1..6, got 0$"):
            evaluate(None, {10.0: [_synthetic_record(0, 10.0)]})

    def test_empty_group_skipped_with_notice(self, monkeypatch):
        monkeypatch.setattr(pipeline, "classify", lambda params, f: 1)
        groups = self._grouped(snrs=(0.0,))
        groups[20.0] = []
        with pytest.warns(UserWarning, match="empty test group"):
            report = evaluate(None, groups)
        assert 20.0 not in report.per_snr_accuracy


def test_write_report_format(tmp_path):
    report = pipeline.EvalReport({0.0: 0.587, 10.0: 0.833}, {
        0.0: np.eye(6, dtype=np.int64), 10.0: np.eye(6, dtype=np.int64)}, 0.71)
    path = tmp_path / "report.txt"
    write_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[1] == "SNR/dB\t0\t10\tAvg"
    assert lines[2] == "Accuracy/%\t58.7\t83.3\t71.0"
    assert "# confusion snr=0 dB" in lines[3]


def test_probe_signal_is_tiled_chips():
    mseq = generate_mseq(5)
    probe = probe_signal(mseq, periods=3)
    assert len(probe) == 3 * mseq.period
    assert np.array_equal(probe.samples, np.tile(mseq.chips, 3).astype(complex))
    with pytest.raises(ValueError):
        probe_signal(mseq, periods=0)


class TestSoundAndProfile:
    MSEQ = generate_mseq(8)

    def test_rax4_style_static_channel(self):
        profile = load_profile(1)
        rng = np.random.default_rng(2)
        amps = np.sqrt(profile.gains_linear()) * np.exp(2j * np.pi * rng.uniform(size=4))
        received = static_probe(self.MSEQ, amps, profile.delay_units)
        order, delays = sound_and_profile(received, self.MSEQ)
        assert order.order == 4
        assert delays.delays == (0, 1, 2, 3)
        assert np.allclose(delays.amplitudes, amps, atol=1e-9)

    def test_single_path(self):
        received = static_probe(self.MSEQ, [0.9j], [0])
        order, delays = sound_and_profile(received, self.MSEQ)
        assert order.order == 1
        assert delays.delays == (0,)

    def test_pure_noise_rejected(self):
        rng = np.random.default_rng(0)
        rejected = 0
        n = 4 * self.MSEQ.period
        for _ in range(100):
            noise = np.sqrt(10 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            probe = ComplexSignal(noise)
            try:
                sound_and_profile(probe, self.MSEQ)
            except InsufficientSignalError:
                rejected += 1
        assert rejected >= 95

    def test_delays_fitted_over_the_whole_period(self):
        received = static_probe(self.MSEQ, [1.0, 0.8], [2, self.MSEQ.period - 1])
        order, delays = sound_and_profile(received, self.MSEQ)
        assert delays.delays == (2, self.MSEQ.period - 1)
