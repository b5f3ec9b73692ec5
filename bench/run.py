#!/usr/bin/env python3
"""chanident benchmark: one closed-loop client driving the public API.

    python3 bench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  A run sets up three times in fresh interpreters (the
median is ``setup_s``), makes one warm-up record, then runs units of the
workload one after another until the next one would end past ``--seconds``
(at least one unit per dataset of the workload).  Every unit is checked; a
failed check counts the unit as failed and the run goes on.  ``--trace 0``
reports the end-to-end metrics: times are medians over units, accuracy is
the mean over the workload's datasets.  ``--trace 1`` runs one untraced
unit and then traced ones, and reports per-layer metrics from the traced
units' spans.  The last line of standard output is the result as one JSON
object.

BLAS thread variables are recorded, never set: the run sees the
environment a user gets.  Scratch files go under ``bench/_work`` and are
removed at exit; a summary (and for traced runs the spans) is kept under
``bench/_results``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3


def _import_program() -> None:
    """Import chanident from this checkout's ``src``; exit non-zero without it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chanident
    except ImportError as exc:
        sys.exit(f"bench: cannot import chanident from {src}: {exc}")
    if not Path(chanident.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: chanident resolved outside {src}: {chanident.__file__}")


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_setups(args, work_root: Path) -> tuple[list[float], list[dict], Path]:
    times, infos = [], []
    for i in range(SETUPS):
        out = work_root / f"setup{i}"
        out.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(out),
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"bench: set-up {i} failed with exit code {proc.returncode}")
        infos.append(json.loads((out / "setup.json").read_text()))
    return times, infos, out


def _traced_wrappers(tracer):
    from chanident import bem, mlp, pipeline

    def record_key(args):
        _spec, label, snr, index = args[:4]
        return (label, pipeline._snr_token(snr), index)

    tracer.wrap(pipeline, "generate_records", children_cpu=True)
    tracer.wrap(pipeline, "make_record", record_key=record_key)
    for name in ("generate_fading", "random_frame", "apply_channel", "add_awgn",
                 "estimate_cir_windowed", "build_ddpdp", "write_dataset", "read_dataset",
                 "evaluate", "classify", "write_report"):
        tracer.wrap(pipeline, name)
    tracer.wrap(bem, "generate_dpss", key=lambda a: tuple(a[:3]))
    for name in ("train", "save_mlp", "load_mlp"):
        tracer.wrap(mlp, name)


def _measure(args, work, state, work_root: Path, serial_digest):
    """Units one after another until the next would end past --seconds."""
    from tracing import Tracer
    from workloads import run_unit

    tracer = Tracer()
    units, traced_from = [], 1 if args.trace else 0
    t_start = time.perf_counter()
    while True:
        k = len(units)
        traced = args.trace and k >= traced_from
        out = work_root / f"unit{k}"
        out.mkdir()
        if traced:
            _traced_wrappers(tracer)
        cpu0, w0 = _cpu_seconds(), time.perf_counter()
        try:
            result = run_unit(work, args.seed, k, state, out, serial_digest)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        finally:
            tracer.unwrap_all()
        wall, cpu = time.perf_counter() - w0, _cpu_seconds() - cpu0
        shutil.rmtree(out)
        if result is not None:
            result.wall_s, result.cpu_s = wall, cpu
        units.append((traced, result))
        elapsed = time.perf_counter() - t_start
        walls = [r.wall_s for _, r in units if r is not None] or [wall]
        if (elapsed + max(walls) > args.seconds and len(units) >= work.seeds
                and (not args.trace or traced)):
            return units, tracer


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _end_to_end(work, units, setup_times, state) -> dict:
    done = [r for _, r in units if r is not None]
    if work.mode == "retrain":
        records_per_s = _median(r.records_read / r.wall_s for r in done)
    else:
        records_per_s = _median(r.records / r.gen_s for r in done)
    if work.mode == "generate":
        epochs_per_s = _median(state.classifier_epochs / s for s in state.classifier_chunk_s)
    else:
        epochs_per_s = _median(r.epochs / r.train_s for r in done)
    # One accuracy per dataset, from the first unit on it; a dataset whose
    # unit raised counts as 0 %.
    accs = [r.accuracy if r is not None else {0.0: 0.0} for _, r in units[:work.seeds]]
    return {
        "wall_s": (_median(r.wall_s for r in done), "s"),
        "records_per_s": (records_per_s, "1/s"),
        "epochs_per_s": (epochs_per_s, "1/s"),
        "cpu_s": (_median(r.cpu_s for r in done), "s"),
        "accuracy_avg_pct": (100.0 * statistics.mean(
            sum(a.values()) / len(a) for a in accs), "%"),
        "accuracy_0db_pct": (100.0 * statistics.mean(a[0.0] for a in accs), "%"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(BENCH))
    from counts import computed_counts
    from envinfo import environment, steal_seconds
    from layers import per_layer
    from workloads import LAYER_SIZES, WORKLOADS, load_setup, sha256_file, setup

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = WORKLOADS[args.workload]
    if args.setup_into:
        setup(work, args.seed, args.setup_into)
        return 0

    from chanident import pipeline

    work_root = BENCH / "_work" / f"{work.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results_dir = BENCH / "_results"
    results_dir.mkdir(exist_ok=True)
    stem = results_dir / f"{work.name}-s{args.seed}-t{args.trace}"
    work_root.mkdir(parents=True)
    try:
        env = environment(ROOT)
        setup_times, setup_infos, setup_dir = _run_setups(args, work_root)
        state = load_setup(work, args.seed, setup_dir)
        spec = work.unit_spec(work.unit_seed(args.seed))
        pipeline.make_record(spec, spec.scenario_labels[0], None, 0)  # warm-up
        serial_digest = None
        if work.threads > 1:
            serial = pipeline.generate_records(spec)
            pipeline.write_dataset(work_root / "serial.txt", spec, serial)
            serial_digest = sha256_file(work_root / "serial.txt")
        steal0 = steal_seconds()
        units, tracer = _measure(args, work, state, work_root, serial_digest)
        steal1 = steal_seconds()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    env["steal_s_during_units"] = None if steal0 is None else round(steal1 - steal0, 3)

    done = [r for _, r in units if r is not None]
    if not done:
        sys.exit("bench: every unit raised; no result")
    for k in range(work.seeds, len(units)):
        first, r = units[k % work.seeds][1], units[k][1]
        if first is not None and r is not None:
            r.checks["outputs_repeat_across_units"] = (
                "" if r.digests == first.digests else
                f"digests differ from unit {k % work.seeds} on the same dataset")
    failed = sum(1 for _, r in units if r is None or not r.ok)
    computed = computed_counts(spec, LAYER_SIZES, work.train_batch(work.unit_seed(args.seed)))

    if args.trace:
        untraced = [r.wall_s for t, r in units if not t and r is not None]
        traced = [r for t, r in units if t and r is not None]
        metrics = per_layer(tracer, traced, _median(untraced))
    else:
        metrics = _end_to_end(work, units, setup_times, state)

    check_names = sorted({name for r in done for name in r.checks})
    print(f"workload {work.name}: {work.why}")
    print(f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"units {len(units)}  failed {failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("computed " + json.dumps(computed, sort_keys=True))
    for name in check_names:
        ran = [r.checks[name] for r in done if name in r.checks]
        bad = [detail for detail in ran if detail]
        print(f"check {name}: {'FAIL ' + bad[0] if bad else 'pass'} "
              f"({len(ran) - len(bad)}/{len(ran)} units)")
    for k, (_, r) in enumerate(units[:work.seeds]):
        for kind, digest in sorted(r.digests.items() if r else ()):
            print(f"sha256 dataset{k} {kind} {digest}")
    for i, (t, r) in enumerate(units):
        if r is None:
            print(f"unit {i}: raised")
            continue
        print(f"unit {i}{' traced' if t else ''} (dataset {i % work.seeds}): "
              f"wall {r.wall_s:.3f} s  cpu {r.cpu_s:.3f} s  "
              f"records {r.records}  epochs {r.epochs}  "
              f"accuracy " + " ".join(f"{s:g}dB={100 * a:.1f}%" for s, a in r.accuracy.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    summary = {
        "workload": work.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "computed": computed,
        "setup_s": setup_times, "setup_info": setup_infos,
        "classifier_chunk_s": state.classifier_chunk_s,
        "units": [None if r is None else {**vars(r), "traced": t,
                                          "accuracy": {str(k): v for k, v in r.accuracy.items()}}
                  for t, r in units],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (stem.with_suffix(".json")).write_text(json.dumps(summary, indent=1, default=str))
    if args.trace:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
