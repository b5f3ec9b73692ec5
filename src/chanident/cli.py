"""Command-line surface.

Subcommands: ``dataset``, ``train``, ``eval``, ``experiment``, ``sound``,
``estimate``, ``simulate``, each described once in ``_COMMANDS``;
``experiment`` runs ``pipeline.run_experiment`` on the ``dataset`` and
``train`` keys, writing the files of that chain and ``eval`` into one
directory.  Each takes a JSON config file (defaults shown by
``--print-config``) and writes its outputs plus a manifest recording the
fully resolved configuration, output paths and the seconds each stage took
(``timings_s``, never empty); ``sound`` writes its result and manifest only
when given ``--output``.  ``SimConfig`` checks every ``normalized_doppler``.
Re-running a subcommand with the manifest's config snapshot reproduces the
outputs byte for byte.
``dataset``, ``train``, ``experiment`` and ``simulate`` take a ``--seed``
override, and ``dataset`` and ``experiment`` a ``--threads`` worker cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _blas, pipeline, profiles, sounding
from .bem import DEFAULT_WINDOW_LEN, estimate_cir_windowed
from .features import FEATURE_LENGTH, N_SCENARIOS
from .mlp import TrainConfig, load_mlp, save_mlp
from .mseq import generate_mseq
from .pipeline import DatasetSpec
from .profiles import SAMPLE_PERIOD_S
from .simulate import ComplexSignal, SimConfig, generate_fading
from .sounding import DelayAmplitudeEstimate, OrderEstimate

SIGNAL_FORMAT = "chanident-signal v1"
# Signal files are on the simulation grid, one sample per delay unit.
SAMPLE_RATE_HZ = 1.0 / SAMPLE_PERIOD_S
TRACE_FORMAT = "chanident-trace v2"
MANIFEST_FORMAT = "chanident-manifest v1"

# Help text of the file options: --output, and those a _COMMANDS entry requires.
_FILE_HELP = {"output": "primary output path", "dataset": "dataset file",
              "model": "model file", "signal": "received signal file",
              "frame": "known transmitted frame (signal file)"}


class CliError(Exception):
    """Fatal CLI problem; message goes to stderr, exit status 1."""


def _load_config(subcommand: str, path: str | None) -> dict:
    resolved = json.loads(json.dumps(_COMMANDS[subcommand].defaults))  # deep copy
    if path is None:
        return resolved
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(user, dict):
        raise CliError(f"config file {path}: top level must be a JSON object")
    for key, value in user.items():
        if key not in resolved:
            raise CliError(f"config file {path}: unknown key {key!r} for {subcommand!r}")
        _check_type(path, key, resolved[key], value)
        if isinstance(resolved[key], dict):  # "sim", the one nested section
            for sk, sv in value.items():
                if sk not in resolved[key]:
                    raise CliError(f"config file {path}: unknown key {f'{key}.{sk}'!r}")
                _check_type(path, f"{key}.{sk}", resolved[key][sk], sv)
                resolved[key][sk] = sv
        else:
            resolved[key] = value
    return resolved


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _check_type(path: str, key: str, default, value) -> None:
    """``value`` must have the JSON type of ``default``; an integer may stand
    for a number, and the one key whose default is null,
    ``normalized_doppler``, takes null or a number.  JSON true and false
    parse to bool, which is not an integer here."""
    if default is None:
        if value is not None and type(value) not in (float, int):
            raise CliError(f"config file {path}: {key} must be null or a number, "
                           f"got {json.dumps(value)}")
        return
    allowed = (float, int) if type(default) is float else (type(default),)
    if type(value) not in allowed:
        raise CliError(f"config file {path}: {key} must be "
                       f"{_JSON_TYPES[type(default)]}, got {json.dumps(value)}")


def write_signal_file(path, signal: ComplexSignal) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {SIGNAL_FORMAT} sample_rate_hz={SAMPLE_RATE_HZ!r} count={len(signal)}\n")
        for z in signal.samples:
            fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")


def read_signal_file(path) -> ComplexSignal:
    """Parse a signal file; errors carry the byte offset of the bad line.
    Its rate must be the grid's, ``SAMPLE_RATE_HZ``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read signal file {path}: {exc}") from exc
    offset = 0
    lines = data.split(b"\n")
    header = lines[0].decode("utf-8", "replace") if lines else ""
    if not header.startswith(f"# {SIGNAL_FORMAT}"):
        raise CliError(f"{path}: byte 0: missing '{SIGNAL_FORMAT}' header")
    try:
        fields = dict(f.split("=", 1) for f in header.split()[3:])
        rate = float(fields["sample_rate_hz"])
        count = int(fields["count"])
    except (KeyError, ValueError, IndexError):
        raise CliError(f"{path}: byte 0: malformed signal header {header!r}") from None
    if not math.isclose(rate, SAMPLE_RATE_HZ, rel_tol=1e-9):
        raise CliError(f"{path}: byte 0: sample_rate_hz must be {SAMPLE_RATE_HZ:g}, "
                       f"got {fields['sample_rate_hz']}")
    offset = len(lines[0]) + 1
    samples = []
    for raw in lines[1:]:
        line = raw.decode("utf-8", "replace").strip()
        if line:
            parts = line.split()
            try:
                if len(parts) != 2:
                    raise ValueError("expected two decimals")
                samples.append(complex(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise CliError(f"{path}: byte {offset}: {exc}: {line!r}") from None
        offset += len(raw) + 1
    if len(samples) != count:
        raise CliError(
            f"{path}: byte {offset - 1}: truncated signal file: header promises "
            f"{count} samples, found {len(samples)}")
    return ComplexSignal(np.array(samples))


def _write_json(path, doc: dict) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path, gains: np.ndarray, delays) -> None:
    """Gain trace file: a header, then one line of re/im pairs per sample."""
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_FORMAT} taps={len(delays)} count={gains.shape[1]} "
                 f"delay_units={','.join(str(d) for d in delays)}\n")
        for row in gains.T:
            fh.write(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n")


def _read_records(path):
    try:
        return pipeline.read_dataset(path)[1]
    except OSError as exc:
        raise CliError(f"cannot read dataset {path}: {exc}") from exc


def _cmd_dataset(args, config, timed) -> dict:
    spec = DatasetSpec.from_dict(config)
    with timed("generate"):
        records = pipeline.generate_records(spec, threads=args.threads)
    with timed("write"):
        pipeline.write_dataset(args.output, spec, records)
    print(f"wrote {len(records)} records to {args.output}")
    return {"config": spec.to_dict(), "blas": _blas.describe()}


def _train_config(config) -> TrainConfig:
    return TrainConfig(**{k: config[k] for k in asdict(TrainConfig())})


def _training_fields(report) -> dict:
    """The manifest fields of a training run."""
    return {"epochs_run": len(report.epoch_losses), "best_epoch": report.best_epoch,
            "stopped_on": report.stopped_on}


def _cmd_train(args, config, timed) -> dict:
    with timed("read"):
        records = _read_records(args.dataset)
    train_records, _ = pipeline.split_train_test(records)
    with timed("train"):
        params, report, fingerprint = pipeline.train_classifier(
            train_records, config["hidden_sizes"], _train_config(config), config["init_seed"])
    save_mlp(params, args.output, fingerprint)
    print(f"trained on {len(train_records)} noiseless vectors, "
          f"{len(report.epoch_losses)} epochs, final training accuracy "
          f"{report.final_accuracy:.3f}")
    return _training_fields(report)


def _cmd_eval(args, config, timed) -> dict:
    try:
        params, _ = load_mlp(args.model)
    except OSError as exc:
        raise CliError(f"cannot read model {args.model}: {exc}") from exc
    records = _read_records(args.dataset)
    if params.layer_sizes[0] != FEATURE_LENGTH or params.layer_sizes[-1] != N_SCENARIOS:
        raise CliError(
            f"model dims {params.layer_sizes[0]}->{params.layer_sizes[-1]} incompatible "
            f"with dataset features {FEATURE_LENGTH}->{N_SCENARIOS}")
    with timed("evaluate"):
        _, test = pipeline.split_train_test(records)
        report = pipeline.evaluate(params, test)
    pipeline.write_report(args.output, report)
    print(pipeline.format_accuracy_table(report))
    return {}


def _cmd_experiment(args, config, timed) -> dict:
    spec = DatasetSpec.from_dict(config)
    with timed("experiment"):
        records, train_report, report = pipeline.run_experiment(
            spec, args.output, config["hidden_sizes"], _train_config(config),
            config["init_seed"], threads=args.threads)
    print(f"{len(records)} records, {len(train_report.epoch_losses)} epochs, final training "
          f"accuracy {train_report.final_accuracy:.3f}; outputs in {args.output}")
    print(pipeline.format_accuracy_table(report))
    return {"config": {**config, **spec.to_dict()}, "blas": _blas.describe(),
            **_training_fields(train_report)}


def _cmd_sound(args, config, timed) -> dict:
    received = read_signal_file(args.signal)
    p, n = config["register_length"], len(received)
    if p >= (n + 1).bit_length():  # 2^p - 1 > n, without forming 2^p for a huge p
        raise CliError(f"{args.signal}: {n} samples hold no whole period of the "
                       f"m-sequence, 2^{p} - 1 chips")
    mseq = generate_mseq(p)
    with timed("sound"):
        order_est, delays = sounding.sound_and_profile(
            received, mseq, threshold_factor=config["threshold_factor"],
            normalized_doppler=config["normalized_doppler"])
    _print_sounding(order_est, delays)
    if args.output:
        _write_json(args.output, _sounding_doc(order_est, delays))
    return {}


def _print_sounding(order_est: OrderEstimate, delays: DelayAmplitudeEstimate) -> None:
    print(f"estimated channel order: {order_est.order}")
    print("delay_units  delay_us  |amplitude|  phase_deg")
    for d, a in delays.paths:
        # one value each for a real path (not -0.0) and a negative one (not -180.0)
        phase = round(float(np.degrees(np.angle(a))), 1)
        phase = 180.0 if phase == -180.0 else phase + 0.0
        print(f"{d:>11d}  {d * SAMPLE_PERIOD_S * 1e6:>8.1f}  {abs(a):>11.4f}  {phase:>9.1f}")
    print(f"residual cost {delays.residual_cost:.6g} after {delays.iterations} sweeps")


def _sounding_doc(order_est: OrderEstimate, delays: DelayAmplitudeEstimate) -> dict:
    """The document ``sound --output`` writes: the printed table, unrounded."""
    return {
        "format": "chanident-sounding v1",
        "order": order_est.order,
        "peak_lags": list(order_est.peak_lags),
        "peak_values": list(order_est.peak_values),
        "threshold": order_est.threshold,
        "paths": [{"delay_units": d, "delay_us": d * SAMPLE_PERIOD_S * 1e6,
                   "amplitude_re": a.real, "amplitude_im": a.imag}
                  for d, a in delays.paths],
        "residual_cost": delays.residual_cost,
        "iterations": delays.iterations,
    }


def _cmd_estimate(args, config, timed) -> dict:
    received = read_signal_file(args.signal)
    frame = read_signal_file(args.frame)
    if len(frame) != len(received):
        raise CliError(f"frame length {len(frame)} != received length {len(received)}")
    with timed("estimate"):
        cir = estimate_cir_windowed(received, frame.samples, config["delay_grid"],
                                    config["normalized_doppler"], config["window_len"])
    _write_trace(args.output, cir.gains, cir.delay_units)
    print(f"wrote {cir.tap_count} x {cir.n_samples} gain estimates to {args.output}")
    return {}


def _cmd_simulate(args, config, timed) -> dict:
    profile = profiles.load_profile(config["label"])
    sim = SimConfig(config["normalized_doppler"])
    with timed("generate"):
        cir = generate_fading(profile, config["n_samples"], sim, config["seed"])
    _write_trace(args.output, cir.gains, cir.delay_units)
    print(f"wrote {cir.tap_count}-tap fading trace ({cir.n_samples} samples) to {args.output}")
    return {}


class _Command(NamedTuple):
    """A subcommand.  ``handler(args, config, timed)`` writes the outputs, runs
    each stage under ``with timed(stage):`` and returns extra manifest fields."""

    handler: Callable[..., dict]
    help: str
    defaults: dict
    files: tuple[str, ...]           # the file options it cannot run without
    seed_keys: tuple[str, ...] = ()  # the config keys --seed overrides; none: no --seed
    threads: bool = False            # takes --threads, the worker-process cap


_DATASET_DEFAULTS = DatasetSpec().to_dict()
_TRAIN_DEFAULTS = {"hidden_sizes": list(pipeline.HIDDEN_SIZES), "init_seed": 0,
                   **asdict(TrainConfig())}

_COMMANDS = {
    "dataset": _Command(_cmd_dataset, "generate a feature dataset", _DATASET_DEFAULTS,
                        ("output",), ("master_seed",), threads=True),
    "train": _Command(_cmd_train, "train the scenario classifier on noiseless records",
                      _TRAIN_DEFAULTS, ("dataset", "output"), ("seed", "init_seed")),
    "eval": _Command(_cmd_eval, "evaluate a trained classifier per SNR", {},
                     ("model", "dataset", "output")),
    "experiment": _Command(_cmd_experiment,
                           "generate, train and evaluate per SNR into one run directory",
                           {**_DATASET_DEFAULTS, **_TRAIN_DEFAULTS}, ("output",),
                           ("master_seed", "seed", "init_seed"), threads=True),
    "sound": _Command(_cmd_sound, "estimate channel order, delays and amplitudes from a probe",
                      {"register_length": 8,
                       "threshold_factor": sounding.DEFAULT_THRESHOLD_FACTOR,
                       "normalized_doppler": None},  # used only for the quasi-static warning
                      ("signal",)),
    "estimate": _Command(_cmd_estimate, "BEM-LS gain estimation on a received signal",
                         {"delay_grid": list(range(profiles.MAX_DELAY_UNITS)),
                          "normalized_doppler": 0.004, "window_len": DEFAULT_WINDOW_LEN},
                         ("signal", "frame", "output")),
    "simulate": _Command(_cmd_simulate, "emit fading gain traces for one scenario",
                         {"label": 1, "n_samples": 4096, **asdict(SimConfig()), "seed": 0},
                         ("output",), ("seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanident",
        description="Multipath channel scenario identification toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="JSON config file")
        if cmd.seed_keys:
            p.add_argument("--seed", type=int, help="override the config's seed")
        if cmd.threads:
            p.add_argument("--threads", type=int, default=1, help="worker process cap")
        p.add_argument("--output", help=_FILE_HELP["output"])
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved config and exit")
        for option in cmd.files:
            if option != "output":
                p.add_argument(f"--{option}", help=_FILE_HELP[option])
    return parser


def _dispatch(args) -> int:
    name = args.subcommand
    cmd = _COMMANDS[name]
    config = _load_config(name, args.config)
    if getattr(args, "seed", None) is not None:
        for key in cmd.seed_keys:
            config[key] = args.seed
    if args.print_config:
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0
    missing = [f"--{o}" for o in cmd.files if getattr(args, o) is None]
    if missing:
        raise CliError(f"{name}: missing required {', '.join(missing)}")
    timings = {}

    @contextmanager
    def timed(stage):
        t0 = time.perf_counter()
        yield
        timings[stage] = time.perf_counter() - t0

    fields = cmd.handler(args, config, timed)  # may replace "config"
    if args.output:
        # beside the output, also a directory given with a trailing separator
        _write_json(f"{Path(args.output)}.manifest.json", {
            "format": MANIFEST_FORMAT, "subcommand": name, "config_path": args.config,
            "config": config, "outputs": [args.output],
            "timings_s": {k: round(v, 6) for k, v in timings.items()}, **fields})
    return 0


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"chanident {args.subcommand}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
