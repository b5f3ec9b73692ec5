import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import static_probe
from chanident import _blas, cli
from chanident.cli import read_signal_file, run, write_signal_file
from chanident.mlp import init_mlp, save_mlp
from chanident.mlp import TrainConfig
from chanident.modulation import random_frame
from chanident.mseq import generate_mseq
from chanident.pipeline import DatasetSpec, read_dataset, run_experiment
from chanident.simulate import ComplexSignal

TINY_DATASET_CFG = {
    "scenario_labels": [1],
    "vectors_per_condition": 1,
    "snr_list_db": ["noiseless", 10.0],
    "samples_per_vector": 400,
    "estimation": "oracle-cir",
    "master_seed": 3,
}

FAST_TRAIN_CFG = {"hidden_sizes": [8], "epochs": 3, "batch_size": 4}


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _make_dataset(tmp_path, cfg=None, name="data.txt"):
    cfg_path = _write_cfg(tmp_path, "ds.json", cfg or TINY_DATASET_CFG)
    out = str(tmp_path / name)
    assert run(["dataset", "--config", cfg_path, "--output", out]) == 0
    return out, cfg_path


class TestDatasetCommand:
    def test_minimal_config_single_record(self, tmp_path, capsys):
        cfg = dict(TINY_DATASET_CFG, snr_list_db=["noiseless"])
        out, _ = _make_dataset(tmp_path, cfg)
        _, records = read_dataset(out)
        assert len(records) == 1
        assert "wrote 1 records" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run(["dataset", "--config", str(tmp_path / "absent.json"),
                  "--output", str(tmp_path / "x.txt")])
        assert rc != 0
        assert "absent.json" in capsys.readouterr().err

    def test_config_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "vectors_per_condition": }\n')
        rc = run(["dataset", "--config", str(bad), "--output", str(tmp_path / "x.txt")])
        assert rc != 0
        assert "line 2" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "c.json", {"vector_count": 3})
        rc = run(["dataset", "--config", cfg, "--output", str(tmp_path / "x.txt")])
        assert rc != 0
        assert "vector_count" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, key", [
        ("dataset", {"sim": None}, "sim"),
        ("dataset", {"sim": {"normalized_doppler": "0.02"}}, "sim.normalized_doppler"),
        ("dataset", {"window_len": 600.5}, "window_len"),
        ("estimate", {"window_len": 600.5}, "window_len"),
        ("train", {"epochs": "10"}, "epochs"),
        ("train", {"learning_rate": True}, "learning_rate"),
        ("dataset", [1], "top level"),
    ])
    def test_wrong_typed_value_rejected(self, tmp_path, capsys, command, payload, key):
        cfg = _write_cfg(tmp_path, "c.json", payload)
        assert run([command, "--config", cfg, "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"chanident {command}: config file {cfg}: "
                                                  f"{key} must be ")

    def test_nan_doppler_rejected(self, tmp_path, capsys):
        # json accepts the NaN literal, so the value reaches SimConfig
        cfg = tmp_path / "c.json"
        cfg.write_text('{"sim": {"normalized_doppler": NaN}}')
        out = tmp_path / "x.txt"
        assert run(["dataset", "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("chanident dataset: normalized_doppler")
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key", [
        ("dataset", {"sim": {"symbol_rate_hz": 1e5}}, "symbol_rate_hz"),
        ("dataset", {"sim": {"samples_per_symbol": 1}}, "samples_per_symbol"),
        ("dataset", {"sim": {"seed": 0}}, "seed"),
        ("simulate", {"symbol_rate_hz": 1e5}, "symbol_rate_hz"),
        ("simulate", {"samples_per_symbol": 1}, "samples_per_symbol"),
    ])
    def test_removed_sim_keys_are_unknown(self, tmp_path, capsys, command, payload, key):
        # they changed no record; simulate keeps "seed" as its own key
        cfg = _write_cfg(tmp_path, "c.json", payload)
        out = tmp_path / "x.txt"
        assert run([command, "--config", cfg, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"chanident {command}: config file {cfg}: unknown key")
        assert key in err
        assert not out.exists()

    def test_unknown_sim_key_quotes_the_whole_path(self, tmp_path, capsys):
        # it read "unknown key sim.'seed'"
        cfg = _write_cfg(tmp_path, "c.json", {"sim": {"seed": 1}})
        assert run(["dataset", "--config", cfg, "--output", str(tmp_path / "x.txt")]) == 1
        assert capsys.readouterr().err.rstrip().endswith("unknown key 'sim.seed'")

    @pytest.mark.parametrize("payload, field", [
        ({"scenario_labels": [True]}, "scenario_labels"),
        ({"snr_list_db": ["noiseless", True]}, "snr_list_db"),
    ])
    def test_bool_label_or_snr_rejected(self, tmp_path, capsys, payload, field):
        # bool is an int: these made records labelled True, or at 1.0 dB
        cfg = _write_cfg(tmp_path, "c.json", {"vectors_per_condition": 1,
                                              "snr_list_db": ["noiseless"],
                                              "samples_per_vector": 512, **payload})
        out = tmp_path / "x.txt"
        assert run(["dataset", "--config", cfg, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"chanident dataset: {field} entries must be")
        assert not out.exists()

    def test_int_stands_for_number_and_null_default_is_free(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "c.json", {"sim": {"normalized_doppler": 0}})
        assert run(["dataset", "--config", cfg, "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["sim"]["normalized_doppler"] == 0

    def test_print_config(self, tmp_path, capsys):
        assert run(["dataset", "--print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vectors_per_condition"] == 20
        assert doc["samples_per_vector"] == 25600

    def test_manifest_written_and_reproducible(self, tmp_path):
        out, _ = _make_dataset(tmp_path)
        manifest = json.loads((tmp_path / "data.txt.manifest.json").read_text())
        assert manifest["subcommand"] == "dataset"
        assert manifest["outputs"] == [out]
        # re-run from the manifest's config snapshot: byte-identical output
        cfg2 = _write_cfg(tmp_path, "from_manifest.json", manifest["config"])
        out2 = str(tmp_path / "data2.txt")
        assert run(["dataset", "--config", cfg2, "--output", out2]) == 0
        assert (tmp_path / "data.txt").read_bytes() == (tmp_path / "data2.txt").read_bytes()

    def test_threads_flag_does_not_change_bytes(self, tmp_path):
        out1, cfg = _make_dataset(tmp_path, name="a.txt")
        out2 = str(tmp_path / "b.txt")
        assert run(["dataset", "--config", cfg, "--output", out2, "--threads", "2"]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_threads_below_one_refused(self, tmp_path, capsys):
        # it wrote the dataset serially and exited 0
        cfg = _write_cfg(tmp_path, "ds.json", TINY_DATASET_CFG)
        out = tmp_path / "d.txt"
        assert run(["dataset", "--config", cfg, "--output", str(out), "--threads", "-3"]) == 1
        assert capsys.readouterr().err.startswith("chanident dataset: threads must be >= 1")
        assert not out.exists()

    def test_manifest_records_blas_threads(self, tmp_path):
        _make_dataset(tmp_path)
        manifest = json.loads((tmp_path / "data.txt.manifest.json").read_text())
        pools = _blas.pools()
        assert manifest["blas"] == [{"library": p.library, "threads": 1} for p in pools]
        if pools:  # numpy's and scipy's bundled OpenBLAS, one entry each
            names = [b["library"] for b in manifest["blas"]]
            assert len(names) == 2 and all(n.startswith("libscipy_openblas") for n in names)
            assert sum("openblas64_" in n for n in names) == 1

    def test_negative_master_seed_still_runs(self, tmp_path):
        cfg = _write_cfg(tmp_path, "ds.json", TINY_DATASET_CFG)
        assert run(["dataset", "--config", cfg, "--seed", "-1",
                    "--output", str(tmp_path / "d.txt")]) == 0

    def test_seed_flag_overrides(self, tmp_path):
        out1, cfg = _make_dataset(tmp_path, name="a.txt")
        out2 = str(tmp_path / "b.txt")
        assert run(["dataset", "--config", cfg, "--output", out2, "--seed", "77"]) == 0
        assert (tmp_path / "a.txt").read_bytes() != (tmp_path / "b.txt").read_bytes()
        manifest = json.loads((tmp_path / "b.txt.manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 77


class TestTrainCommand:
    def test_train_and_roundtrip(self, tmp_path):
        data, _ = _make_dataset(tmp_path)
        cfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
        model = str(tmp_path / "model.json")
        assert run(["train", "--config", cfg, "--dataset", data, "--output", model]) == 0
        from chanident.mlp import load_mlp

        params, fp = load_mlp(model)
        assert params.layer_sizes == (4800, 8, 6)
        assert fp["config"]["epochs"] == 3

    def test_rerun_identical_model(self, tmp_path):
        data, _ = _make_dataset(tmp_path)
        cfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        assert run(["train", "--config", cfg, "--dataset", data, "--output", m1]) == 0
        assert run(["train", "--config", cfg, "--dataset", data, "--output", m2]) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_manifest_timings_are_seconds(self, tmp_path):
        data, _ = _make_dataset(tmp_path)
        cfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
        model = str(tmp_path / "model.json")
        assert run(["train", "--config", cfg, "--dataset", data, "--output", model]) == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["timings_s"]
        assert all(isinstance(v, float) for v in manifest["timings_s"].values())
        assert manifest["epochs_run"] == 3

    @pytest.mark.parametrize("overrides, stopped_on", [
        ({}, "epoch_limit"),
        ({"epochs": 50, "plateau_patience": 1, "plateau_rel_tol": 0.5}, "plateau"),
    ])
    def test_manifest_records_why_training_stopped(self, tmp_path, overrides, stopped_on):
        data, _ = _make_dataset(tmp_path)
        cfg = _write_cfg(tmp_path, "train.json", dict(FAST_TRAIN_CFG, **overrides))
        model = str(tmp_path / "model.json")
        assert run(["train", "--config", cfg, "--dataset", data, "--output", model]) == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["stopped_on"] == stopped_on
        assert 1 <= manifest["best_epoch"] <= manifest["epochs_run"]
        if stopped_on == "plateau":
            assert manifest["epochs_run"] == manifest["best_epoch"] + 1 < 50

    def test_missing_dataset_fails(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
        rc = run(["train", "--config", cfg, "--dataset", str(tmp_path / "no.txt"),
                  "--output", str(tmp_path / "m.json")])
        assert rc != 0
        assert "no.txt" in capsys.readouterr().err

    def test_nan_learning_rate_rejected(self, tmp_path, capsys):
        # json accepts the NaN literal, so the value reaches TrainConfig
        data, _ = _make_dataset(tmp_path)
        cfg = tmp_path / "train.json"
        cfg.write_text('{"hidden_sizes": [8], "epochs": 3, "learning_rate": NaN}')
        model = tmp_path / "m.json"
        rc = run(["train", "--config", str(cfg), "--dataset", data, "--output", str(model)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("chanident train: learning_rate")
        assert not model.exists()

    def test_non_integer_hidden_sizes_rejected(self, tmp_path, capsys):
        # int() made these a 16-1 network while the fingerprint kept them as given
        data, _ = _make_dataset(tmp_path)
        cfg = _write_cfg(tmp_path, "train.json", dict(FAST_TRAIN_CFG, hidden_sizes=[16.7, True]))
        model = tmp_path / "m.json"
        rc = run(["train", "--config", cfg, "--dataset", data, "--output", str(model)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "chanident train: hidden_sizes [16.7, True]: layer sizes must be ")
        assert not model.exists()

    def test_dataset_without_noiseless_fails(self, tmp_path, capsys):
        cfg = dict(TINY_DATASET_CFG, snr_list_db=[10.0])
        data, _ = _make_dataset(tmp_path, cfg)
        tcfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
        rc = run(["train", "--config", tcfg, "--dataset", data,
                  "--output", str(tmp_path / "m.json")])
        assert rc != 0
        assert "noiseless" in capsys.readouterr().err


class TestEvalCommand:
    def _trained(self, tmp_path):
        data, _ = _make_dataset(tmp_path)
        cfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
        model = str(tmp_path / "model.json")
        assert run(["train", "--config", cfg, "--dataset", data, "--output", model]) == 0
        return data, model

    def test_report_columns(self, tmp_path, capsys):
        data, model = self._trained(tmp_path)
        report = str(tmp_path / "report.txt")
        assert run(["eval", "--model", model, "--dataset", data, "--output", report]) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[1].startswith("SNR/dB\t10\tAvg")
        assert lines[2].startswith("Accuracy/%\t")
        out = capsys.readouterr().out
        assert "SNR/dB" in out and "Avg" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        data, model = self._trained(tmp_path)
        cfg = _write_cfg(tmp_path, "eval.json", {"threshold": 0.5})
        rc = run(["eval", "--config", cfg, "--model", model, "--dataset", data,
                  "--output", str(tmp_path / "r.txt")])
        assert rc != 0
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "r.txt.manifest.json").exists()

    def test_incompatible_model_named(self, tmp_path, capsys):
        data, _ = _make_dataset(tmp_path)
        bad_model = str(tmp_path / "bad.json")
        save_mlp(init_mlp([10, 6], seed=0), bad_model)
        rc = run(["eval", "--model", bad_model, "--dataset", data,
                  "--output", str(tmp_path / "r.txt")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "10" in err and "4800" in err

    @pytest.mark.parametrize("edit, message", [
        # a 4800-8 network whose file still says [4800, 8, 6]
        (lambda doc: doc.update(weights=doc["weights"][:1], biases=doc["biases"][:1]),
         "1 weights arrays for the 2 layers"),
        (lambda doc: doc.pop("layer_sizes"), "no 'layer_sizes'"),
        # these three ended in a TypeError traceback or a 4800-wide layer
        (lambda doc: doc.update(layer_sizes=5), "layer_sizes must be a list"),
        (lambda doc: doc.update(weights=5), "weights must be a list"),
        (lambda doc: doc["layer_sizes"].__setitem__(0, 4800.7), "got [4800.7, 8, 6]"),
    ], ids=["cut-to-first-layer", "no-layer_sizes", "layer_sizes-5", "weights-5",
            "layer_size-4800.7"])
    def test_model_that_does_not_fit_its_layer_sizes_refused(self, tmp_path, capsys,
                                                              edit, message):
        data, model = self._trained(tmp_path)
        doc = json.loads(Path(model).read_text())
        edit(doc)
        Path(model).write_text(json.dumps(doc))
        report = tmp_path / "r.txt"
        assert run(["eval", "--model", model, "--dataset", data, "--output", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"chanident eval: {model}: ") and message in err
        assert not report.exists()

    def test_malformed_dataset_line_number(self, tmp_path, capsys):
        data, model = self._trained(tmp_path)
        lines = (tmp_path / "data.txt").read_text().splitlines()
        lines[2] = "3 10.0 nonsense " + " ".join(["0.1"] * 4800)
        (tmp_path / "data.txt").write_text("\n".join(lines) + "\n")
        rc = run(["eval", "--model", model, "--dataset", data,
                  "--output", str(tmp_path / "r.txt")])
        assert rc != 0
        assert "line 3" in capsys.readouterr().err


class TestSignalFiles:
    def test_round_trip(self, tmp_path):
        sig = ComplexSignal(np.array([1 + 2j, -0.25 - 1e-9j, 0j]))
        path = tmp_path / "sig.txt"
        write_signal_file(path, sig)
        back = read_signal_file(path)
        assert np.array_equal(back.samples, sig.samples)

    def test_hand_written_grid_rate_reads(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# chanident-signal v1 sample_rate_hz=100000 count=1\n1.0 -2.0\n")
        assert read_signal_file(path).samples.tolist() == [1 - 2j]

    def test_truncated_file_byte_offset(self, tmp_path, capsys):
        sig = ComplexSignal(np.ones(10))
        path = tmp_path / "sig.txt"
        write_signal_file(path, sig)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(cli.CliError, match="byte"):
            read_signal_file(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(cli.CliError, match="header"):
            read_signal_file(path)

    @pytest.mark.parametrize("fields", ["sample_rate_hz=oops count=1", "sample_rate_hz=1e5"])
    def test_malformed_header_refused(self, tmp_path, fields):
        path = tmp_path / "sig.txt"
        path.write_text(f"# chanident-signal v1 {fields}\n1.0 0.0\n")
        with pytest.raises(cli.CliError, match=r"byte 0: malformed signal header "):
            read_signal_file(path)

    @pytest.mark.parametrize("rate", ["0.0", "-1e5", "inf", "nan", "2e5"])
    def test_rate_not_finite_positive_rejected(self, tmp_path, rate):
        path = tmp_path / "sig.txt"
        path.write_text(f"# chanident-signal v1 sample_rate_hz={rate} count=1\n1.0 0.0\n")
        with pytest.raises(cli.CliError, match=r"byte 0: sample_rate_hz must be 100000, "):
            read_signal_file(path)


def _set_rate(path, rate: str) -> None:
    """Rewrite the rate in the header of the signal file at ``path``."""
    header, rest = Path(path).read_text().split("\n", 1)
    fields = [f"sample_rate_hz={rate}" if f.startswith("sample_rate_hz=") else f
              for f in header.split(" ")]
    Path(path).write_text(" ".join(fields) + "\n" + rest)


class TestSoundCommand:
    def _probe_file(self, tmp_path, amps, delays):
        mseq = generate_mseq(8)
        probe = static_probe(mseq, amps, delays)
        path = tmp_path / "probe.txt"
        write_signal_file(path, probe)
        return str(path)

    def test_four_path_fixture(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        amps = np.array([1.0, 0.794, 0.316, 0.1]) * np.exp(2j * np.pi * rng.uniform(size=4))
        probe = self._probe_file(tmp_path, amps, [0, 1, 2, 3])
        result = str(tmp_path / "sounding.json")
        assert run(["sound", "--signal", probe, "--output", result]) == 0
        out = capsys.readouterr().out
        assert "estimated channel order: 4" in out
        doc = json.loads((tmp_path / "sounding.json").read_text())
        assert doc["order"] == 4
        assert [p["delay_units"] for p in doc["paths"]] == [0, 1, 2, 3]

    def test_single_path_fixture(self, tmp_path, capsys):
        probe = self._probe_file(tmp_path, [1.0], [0])
        assert run(["sound", "--signal", probe]) == 0
        assert "estimated channel order: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("amp, phase", [(1 - 1e-12j, "0.0"), (-1 - 1e-12j, "180.0")])
    def test_rounding_level_phase_prints_one_value(self, tmp_path, capsys, amp, phase):
        probe = self._probe_file(tmp_path, [amp], [0])
        assert run(["sound", "--signal", probe]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[-1] for row in rows if row[0] == "0"] == [phase]

    def test_zero_sample_rate_is_an_error_not_a_traceback(self, tmp_path):
        # 1 / rate raised ZeroDivisionError past the CLI's error handling
        probe = self._probe_file(tmp_path, [1.0], [0])
        lines = Path(probe).read_text().split("\n")
        lines[0] = f"# {cli.SIGNAL_FORMAT} sample_rate_hz=0.0 count={len(lines) - 2}"
        Path(probe).write_text("\n".join(lines))
        proc = TestModuleEntryPoint._run_module("sound", "--signal", probe)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"chanident sound: {probe}: byte 0: sample_rate_hz")

    @pytest.mark.parametrize("key, value", [
        ("normalized_doppler", "x"), ("normalized_doppler", True),
        ("feedback_taps", 5), ("feedback_taps", [8.0, 4, 3, 2]),
        ("feedback_taps", [8, True, 3, 2]), ("feedback_taps", ["8", 4, 3, 2]),
        ("initial_state", 5), ("initial_state", [1, 1, 1, 1, 1, 1, 1, 2]),
        ("initial_state", [True] * 8), ("initial_state", [1.0] * 8),
        ("max_candidate_delay", 3.7), ("max_candidate_delay", True),
        ("max_candidate_delay", "7"), ("max_candidate_delay", -1),
        # values the removed keys took before they were removed
        ("feedback_taps", [8, 4, 3, 2]), ("initial_state", [1] * 8),
        ("max_candidate_delay", 40), ("normalized_doppler", 0.004),
        ("normalized_doppler", None),
    ])
    def test_null_default_key_takes_only_its_type(self, tmp_path, capsys, key, value):
        # Each of these was a null-default key of sound; normalized_doppler, the
        # last, only switched on a quasi-static warning. They are gone, and any
        # value of them, null included, is refused as an unknown key, by name.
        probe = self._probe_file(tmp_path, [1.0], [0])
        out = tmp_path / "sounding.json"
        cfg = _write_cfg(tmp_path, "s.json", {key: value})
        assert run(["sound", "--config", cfg, "--signal", probe, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"chanident sound: config file {cfg}: unknown key {key!r} for 'sound'\n")
        assert not out.exists()

    def test_probe_shorter_than_a_period_refused_before_generating(self, tmp_path, capsys):
        # A register the table lacks is refused by name before any chip is
        # made; 13 and 30 were both refused as a probe too short for them.
        probe = self._probe_file(tmp_path, [1.0], [0])
        out = tmp_path / "sounding.json"
        for p, reason in [(10, f"{probe}: 1020 samples hold no whole period of the "
                               "m-sequence, 1023 chips"),
                          (13, "register_length must be one of [2, 3, 4, 5, 6, 7, 8, 9, "
                               "10, 11, 12], not 13"),
                          (30, "register_length must be one of [2, 3, 4, 5, 6, 7, 8, 9, "
                               "10, 11, 12], not 30")]:
            cfg = _write_cfg(tmp_path, "s.json", {"register_length": p})
            assert run(["sound", "--config", cfg, "--signal", probe,
                        "--output", str(out)]) == 1
            assert capsys.readouterr().err == f"chanident sound: {reason}\n"
            assert not out.exists()
            assert not (tmp_path / "sounding.json.manifest.json").exists()

    @pytest.mark.parametrize("literal", ["-1", "NaN", "0.7"])
    def test_normalized_doppler_out_of_range_refused(self, tmp_path, capsys, literal):
        # -1 and NaN turned the quasi-static warning off and 0.7 was past
        # SimConfig's range; the key is gone, so each is refused as unknown
        probe = self._probe_file(tmp_path, [1.0], [0])
        cfg = tmp_path / "s.json"
        cfg.write_text(f'{{"normalized_doppler": {literal}}}')
        out = tmp_path / "sounding.json"
        assert run(["sound", "--config", str(cfg), "--signal", probe,
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"chanident sound: config file {cfg}: unknown key 'normalized_doppler' for 'sound'")
        assert not out.exists()
        assert not (tmp_path / "sounding.json.manifest.json").exists()

    def test_probe_off_the_grid_rate_refused(self, tmp_path, capsys):
        # a 200 kHz probe printed delay unit 2 as 10.0 us; features read it as 20 us
        probe = self._probe_file(tmp_path, [1.0, 0.5j], [0, 2])
        _set_rate(probe, "200000.0")
        out = tmp_path / "sounding.json"
        assert run(["sound", "--signal", probe, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"chanident sound: {probe}: byte 0: sample_rate_hz must be 100000")
        assert not out.exists()

    def test_truncated_signal_file(self, tmp_path, capsys):
        probe = self._probe_file(tmp_path, [1.0], [0])
        Path(probe).write_bytes(Path(probe).read_bytes()[:-40])
        rc = run(["sound", "--signal", probe])
        assert rc != 0
        assert "byte" in capsys.readouterr().err


class TestEstimateCommand:
    def test_estimates_gains(self, tmp_path):
        from chanident.modulation import random_frame
        from chanident.profiles import load_profile
        from chanident.simulate import SimConfig, apply_channel, generate_fading

        n = 512
        frame = random_frame(n, seed=2)
        cir = generate_fading(load_profile(1), n, SimConfig(), seed=3)
        rx = apply_channel(frame, cir)
        write_signal_file(tmp_path / "rx.txt", rx)
        write_signal_file(tmp_path / "frame.txt", frame)
        cfg = _write_cfg(tmp_path, "est.json", {"delay_grid": [0, 1, 2, 3],
                                                "window_len": 512})
        out = str(tmp_path / "cir.txt")
        assert run(["estimate", "--signal", str(tmp_path / "rx.txt"),
                    "--frame", str(tmp_path / "frame.txt"),
                    "--config", cfg, "--output", out]) == 0
        lines = (tmp_path / "cir.txt").read_text().splitlines()
        assert lines[0].startswith("# chanident-trace v2 taps=4 count=512")
        assert len(lines) == 1 + n
        # spot-check accuracy of the strongest tap
        row0 = np.array([float(lines[1].split()[0]), float(lines[1].split()[1])])
        assert abs(complex(row0[0], row0[1]) - cir.gains[0, 0]) < 0.2

    def test_frame_off_the_grid_rate_refused(self, tmp_path, capsys):
        # a frame at another rate than the received signal was taken silently
        write_signal_file(tmp_path / "rx.txt", random_frame(512, seed=2))
        write_signal_file(tmp_path / "frame.txt", random_frame(512, seed=2))
        _set_rate(tmp_path / "frame.txt", "200000.0")
        out = tmp_path / "cir.txt"
        assert run(["estimate", "--signal", str(tmp_path / "rx.txt"),
                    "--frame", str(tmp_path / "frame.txt"), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"chanident estimate: {tmp_path / 'frame.txt'}: byte 0: sample_rate_hz must be 100000")
        assert not out.exists()

    def test_length_mismatch_fails(self, tmp_path, capsys):
        # BEM-LS refuses the frame; the CLI keeps no check of its own
        write_signal_file(tmp_path / "rx.txt", random_frame(1020, seed=1))
        write_signal_file(tmp_path / "fr.txt", random_frame(1019, seed=2))
        out = tmp_path / "o.txt"
        rc = run(["estimate", "--signal", str(tmp_path / "rx.txt"),
                  "--frame", str(tmp_path / "fr.txt"), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "chanident estimate: frame length 1019 != received length 1020\n")
        assert not out.exists()
        assert not (tmp_path / "o.txt.manifest.json").exists()


    @pytest.mark.parametrize("grid", [[0.7, True, 2.9], [[1]], [0, "1"], [0, 1.0], [False]])
    def test_delay_grid_entries_must_be_integers(self, tmp_path, capsys, grid):
        # int() turned [0.7, true, 2.9] into delays 0, 1, 2; [[1]] was a TypeError
        write_signal_file(tmp_path / "rx.txt", ComplexSignal(np.ones(64)))
        cfg = _write_cfg(tmp_path, "est.json", {"delay_grid": grid})
        out = tmp_path / "cir.txt"
        assert run(["estimate", "--signal", str(tmp_path / "rx.txt"),
                    "--frame", str(tmp_path / "rx.txt"),
                    "--config", cfg, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chanident estimate: delay_grid entries must be integers")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("literal, key", [
        ('{"normalized_doppler": NaN}', "normalized_doppler"),
        ('{"normalized_doppler": 0.7}', "normalized_doppler"),
        ('{"normalized_doppler": Infinity}', "normalized_doppler"),
        ('{"delay_grid": []}', "delay_grid"),
    ])
    def test_bad_doppler_or_empty_grid_refused_by_name(self, tmp_path, capsys, literal, key):
        # each failed deep in BEM-LS without naming its key; Infinity raised
        # OverflowError out of the CLI
        write_signal_file(tmp_path / "rx.txt", random_frame(64, seed=1))
        cfg = tmp_path / "est.json"
        cfg.write_text(literal)
        out = tmp_path / "cir.txt"
        assert run(["estimate", "--signal", str(tmp_path / "rx.txt"),
                    "--frame", str(tmp_path / "rx.txt"),
                    "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"chanident estimate: {key} ")
        assert not out.exists()
        assert not (tmp_path / "cir.txt.manifest.json").exists()


class TestSimulateCommand:
    def test_writes_trace(self, tmp_path):
        cfg = _write_cfg(tmp_path, "sim.json", {"label": 2, "n_samples": 64})
        out = str(tmp_path / "trace.txt")
        assert run(["simulate", "--config", cfg, "--output", out]) == 0
        lines = (tmp_path / "trace.txt").read_text().splitlines()
        assert lines[0].startswith("# chanident-trace v2 taps=6 count=64")
        assert len(lines[1].split()) == 12  # re/im per tap

    def test_deterministic_given_seed(self, tmp_path):
        cfg = _write_cfg(tmp_path, "sim.json", {"label": 1, "n_samples": 32, "seed": 5})
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert run(["simulate", "--config", cfg, "--output", a]) == 0
        assert run(["simulate", "--config", cfg, "--output", b]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_unknown_label_refused_without_quotes(self, tmp_path, capsys):
        # str(KeyError) quoted the message
        cfg = _write_cfg(tmp_path, "sim.json", {"label": 7, "n_samples": 32})
        out = tmp_path / "trace.txt"
        assert run(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "chanident simulate: no channel profile registered for label 7\n")
        assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("sound", "cannot read signal file"), ("eval", "cannot read model")])
def test_unreadable_input_refused_by_path(tmp_path, capsys, command, message):
    absent = str(tmp_path / "absent")
    # eval reads its model before its dataset
    inputs = {"sound": ["--signal", absent], "eval": ["--model", absent, "--dataset", absent]}
    out = tmp_path / "out"
    assert run([command, *inputs[command], "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"chanident {command}: {message} {absent}: ")
    assert not out.exists()


def test_missing_file_option_named(tmp_path, capsys):
    model = tmp_path / "m.json"
    assert run(["train", "--output", str(model)]) == 1
    assert capsys.readouterr().err == "chanident train: train: missing required --dataset\n"
    assert not model.exists()


class TestFlagScope:
    @pytest.mark.parametrize("argv", [
        ["eval", "--seed", "3"],
        ["sound", "--seed", "3"],
        ["estimate", "--seed", "3"],
        ["train", "--threads", "2"],
        ["eval", "--threads", "2"],
        ["simulate", "--threads", "2"],
        ["simulate", "--dataset", "d.txt"],
        ["experiment", "--dataset", "d.txt"],
        ["experiment", "--model", "m.json"],
        ["dataset", "--model", "m.json"],
        ["eval", "--signal", "s.txt"],
        ["sound", "--frame", "f.txt"],
        ["estimate", "--model", "m.json"],
    ])
    def test_flag_rejected_where_it_does_nothing(self, argv):
        with pytest.raises(SystemExit):
            run(argv)


# The config edge values: each must run, or exit 1 naming its key.
EDGE_VALUES = [0, 1, -1, 2, 0.5, -0.5, float("nan"), float("inf"), float("-inf"), 1e6,
               [], [-1], [0, 0], [1.5], [100000]]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A dataset file of TINY_DATASET_CFG's two records."""
    tmp = tmp_path_factory.mktemp("tiny")
    return _make_dataset(tmp)[0]


_EDGE_KEYS = [
    ("dataset", "sim.normalized_doppler"), ("dataset", "snr_list_db"),
    ("dataset", "scenario_labels"), ("dataset", "window_len"),
    ("dataset", "vectors_per_condition"), ("dataset", "samples_per_vector"),
    ("estimate", "normalized_doppler"), ("estimate", "delay_grid"),
    ("estimate", "window_len"),
    # not register_length: 2 is a valid register that the probe was not made
    # with, refused as a probe that "looks like noise", a refusal of the
    # signal rather than of the key
    # sound's normalized_doppler is a removed key, refused as unknown by name
    ("sound", "threshold_factor"), ("sound", "normalized_doppler"),
    ("simulate", "normalized_doppler"), ("simulate", "seed"),
    ("train", "seed"), ("train", "init_seed"), ("train", "hidden_sizes"),
    ("train", "epochs"), ("train", "batch_size"), ("train", "learning_rate"),
    ("train", "momentum"), ("train", "plateau_patience"), ("train", "plateau_rel_tol"),
]


@pytest.mark.parametrize("command, key, value", [
    pytest.param(command, key, value, id=f"{command}-{key}-{json.dumps(value)}")
    for command, key in _EDGE_KEYS for value in EDGE_VALUES
])
def test_config_edge_value_runs_or_is_refused_by_name(tmp_path, capsys, tiny_dataset,
                                                      command, key, value):
    section, _, leaf = key.rpartition(".")
    base = {"dataset": TINY_DATASET_CFG, "estimate": {}, "sound": {},
            "simulate": {"n_samples": 64}, "train": FAST_TRAIN_CFG}
    payload = dict(base[command], **({section: {leaf: value}} if section else {leaf: value}))
    if (command, key) == ("dataset", "window_len"):
        payload["estimation"] = "bem-ls"  # only BEM-LS fits windows
    cfg = _write_cfg(tmp_path, "c.json", payload)
    files = []
    if command == "estimate":
        write_signal_file(tmp_path / "frame.txt", random_frame(512, seed=2))
        files = ["--signal", str(tmp_path / "frame.txt"), "--frame", str(tmp_path / "frame.txt")]
    elif command == "sound":
        write_signal_file(tmp_path / "probe.txt", static_probe(generate_mseq(8), [1.0], [0]))
        files = ["--signal", str(tmp_path / "probe.txt")]
    elif command == "train":
        files = ["--dataset", tiny_dataset]
    out = tmp_path / "out.txt"
    rc = run([command, "--config", cfg, *files, "--output", str(out)])
    err = capsys.readouterr().err
    if rc == 0:
        assert out.exists()
    else:
        assert rc == 1 and leaf in err, err
        assert not out.exists()


SUBCOMMANDS = ("dataset", "train", "eval", "experiment", "sound", "estimate", "simulate")


@pytest.fixture(scope="module")
def every_manifest(tmp_path_factory):
    """Each subcommand run once on tiny inputs: name -> (manifest, config path
    or None, output path)."""
    from chanident.modulation import random_frame

    tmp = tmp_path_factory.mktemp("every")
    write_signal_file(tmp / "probe.txt", static_probe(generate_mseq(8), [1.0, 0.5j], [0, 2]))
    write_signal_file(tmp / "frame.txt", random_frame(512, seed=2))
    paths = {name: str(tmp / f"{name}.out") for name in SUBCOMMANDS}
    configs = {"dataset": _write_cfg(tmp, "ds.json", TINY_DATASET_CFG),
               "train": _write_cfg(tmp, "train.json", FAST_TRAIN_CFG),
               "experiment": _write_cfg(tmp, "exp.json", {**TINY_DATASET_CFG, **FAST_TRAIN_CFG}),
               "simulate": _write_cfg(tmp, "sim.json", {"n_samples": 64})}
    files = {"train": ["--dataset", paths["dataset"]],
             "eval": ["--model", paths["train"], "--dataset", paths["dataset"]],
             "sound": ["--signal", str(tmp / "probe.txt")],
             "estimate": ["--signal", str(tmp / "frame.txt"), "--frame", str(tmp / "frame.txt")]}
    manifests = {}
    for name in SUBCOMMANDS:
        cfg = ["--config", configs[name]] if name in configs else []
        assert run([name, *cfg, *files.get(name, []), "--output", paths[name]]) == 0, name
        manifest = json.loads(Path(paths[name] + ".manifest.json").read_text())
        manifests[name] = (manifest, configs.get(name), paths[name])
    return manifests


class TestManifests:
    def test_every_subcommand_writes_the_same_top_level_keys(self, every_manifest):
        common = {"format", "subcommand", "config_path", "config", "outputs", "timings_s"}
        training = {"epochs_run", "best_epoch", "stopped_on"}
        extra = {"dataset": {"blas"}, "train": training, "experiment": {"blas"} | training}
        for name, (manifest, _, out) in every_manifest.items():
            assert set(manifest) == common | extra.get(name, set()), name
            assert manifest["format"] == "chanident-manifest v1"
            assert manifest["subcommand"] == name
            assert manifest["outputs"] == [out]
            assert manifest["timings_s"], name
            assert all(isinstance(v, float) for v in manifest["timings_s"].values()), name

    def test_dataset_train_eval_manifests_are_pinned(self, every_manifest):
        # the manifests as the CLI wrote them before the subcommand table, bar timing
        # values and the sim keys that changed no record
        dataset_config = {
            "estimation": "oracle-cir", "master_seed": 3, "samples_per_vector": 400,
            "scenario_labels": [1], "sim": {"normalized_doppler": 0.004},
            "snr_list_db": ["noiseless", 10.0], "vectors_per_condition": 1, "window_len": 512}
        train_config = {"batch_size": 4, "epochs": 3, "hidden_sizes": [8], "init_seed": 0,
                        "learning_rate": 0.01, "momentum": 0.9, "plateau_patience": 100,
                        "plateau_rel_tol": 0.0001, "seed": 0}
        expected = {
            "dataset": ({"config": dataset_config, "blas": _blas.describe()},
                        ["generate", "write"]),
            "train": ({"config": train_config, "epochs_run": 3, "best_epoch": 3,
                       "stopped_on": "epoch_limit"}, ["read", "train"]),
            "eval": ({"config": {}}, ["evaluate"]),
        }
        for name, (fields, stages) in expected.items():
            manifest, cfg, out = every_manifest[name]
            assert sorted(manifest["timings_s"]) == stages, name
            assert {k: v for k, v in manifest.items() if k != "timings_s"} == {
                "format": "chanident-manifest v1", "subcommand": name, "config_path": cfg,
                "outputs": [out], **fields}, name

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_print_config_round_trips(self, tmp_path, capsys, name):
        assert run([name, "--print-config"]) == 0
        printed = capsys.readouterr().out
        cfg = tmp_path / "printed.json"
        cfg.write_text(printed)
        assert run([name, "--config", str(cfg), "--print-config"]) == 0
        assert capsys.readouterr().out == printed


def test_cli_chain_writes_the_files_of_run_experiment(tmp_path):
    cfg = dict(TINY_DATASET_CFG, scenario_labels=[1, 2], estimation="bem-ls")
    spec = DatasetSpec.from_dict(dict(cfg, master_seed=6))
    run_experiment(spec, tmp_path / "exp", (8,), TrainConfig(epochs=3, batch_size=4, seed=6),
                   init_seed=6)

    data, ds_cfg = str(tmp_path / "dataset.txt"), _write_cfg(tmp_path, "ds.json", cfg)
    model, report = str(tmp_path / "model.json"), str(tmp_path / "report.txt")
    train_cfg = _write_cfg(tmp_path, "train.json", FAST_TRAIN_CFG)
    assert run(["dataset", "--config", ds_cfg, "--output", data, "--seed", "6"]) == 0
    assert run(["train", "--config", train_cfg, "--dataset", data, "--output", model,
                "--seed", "6"]) == 0
    assert run(["eval", "--model", model, "--dataset", data, "--output", report]) == 0
    exp_cfg = _write_cfg(tmp_path, "exp.json", {**cfg, **FAST_TRAIN_CFG})
    assert run(["experiment", "--config", exp_cfg, "--output", str(tmp_path / "cli"),
                "--seed", "6", "--threads", "2"]) == 0
    # a rerun from the manifest's config snapshot
    manifest = json.loads((tmp_path / "cli.manifest.json").read_text())
    rerun_cfg = _write_cfg(tmp_path, "rerun.json", manifest["config"])
    assert run(["experiment", "--config", rerun_cfg, "--output", str(tmp_path / "rerun")]) == 0
    for name in ("dataset.txt", "model.json", "report.txt"):
        expected = (tmp_path / "exp" / name).read_bytes()
        for got in (tmp_path / name, tmp_path / "cli" / name, tmp_path / "rerun" / name):
            assert got.read_bytes() == expected, got


def test_experiment_manifest_sits_beside_a_run_directory_given_with_a_slash(tmp_path):
    cfg = _write_cfg(tmp_path, "exp.json", {**TINY_DATASET_CFG, **FAST_TRAIN_CFG})
    assert run(["experiment", "--config", cfg, "--output", f"{tmp_path / 'run'}/"]) == 0
    assert (tmp_path / "run.manifest.json").exists()
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "dataset.txt", "model.json", "report.txt"]


def test_experiment_takes_the_dataset_and_train_keys():
    dataset, train = cli._COMMANDS["dataset"].defaults, cli._COMMANDS["train"].defaults
    assert not set(dataset) & set(train)
    assert cli._COMMANDS["experiment"].defaults == {**dataset, **train}


class TestModuleEntryPoint:
    """``python -m chanident.cli`` runs the same CLI as the installed script."""

    @staticmethod
    def _run_module(*argv):
        import chanident

        src = str(Path(chanident.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run([sys.executable, "-m", "chanident.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_help_prints_usage(self):
        proc = self._run_module("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: chanident")
        assert "dataset" in proc.stdout

    def test_dataset_writes_its_file(self, tmp_path):
        cfg = _write_cfg(tmp_path, "ds.json", dict(TINY_DATASET_CFG, snr_list_db=["noiseless"]))
        out = tmp_path / "data.txt"
        proc = self._run_module("dataset", "--config", cfg, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(read_dataset(out)[1]) == 1
