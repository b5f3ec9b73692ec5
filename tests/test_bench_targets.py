"""The benchmark's per-layer spans find the functions they wrap.

``bench/run.py --trace 1`` replaces module attributes (``pipeline.random_frame``
and so on) with span-recording wrappers.  A refactor that stops calling one
of them through that name leaves its layer reading 0 with no error, so this
test runs one record under the benchmark's own wrappers and asserts that
every layer recorded a span; the trainer and the model file get the same
check.  It reads ``bench/`` and changes nothing there.

The benchmark also keeps copies of a few library rules (the network's layer
sizes, the BEM-LS window plan, the fading synthesis grid) to count work from
a spec alone; the last tests hold those copies to the library's rules.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from chanident import mlp, pipeline
from chanident.bem import window_plan
from chanident.features import FEATURE_LENGTH, N_SCENARIOS
from chanident.pipeline import DatasetSpec
from chanident.profiles import load_profile
from chanident.simulate import SimConfig, _synthesis_grid

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(monkeypatch):
    run, tracing = _load("run", monkeypatch), _load("tracing", monkeypatch)
    tracer = tracing.Tracer()
    spec = DatasetSpec(scenario_labels=(1,), vectors_per_condition=1, snr_list_db=(10.0,),
                       samples_per_vector=1200, estimation="bem-ls")
    run._traced_wrappers(tracer)
    try:
        pipeline.make_record(spec, 1, 10.0, 0)
    finally:
        tracer.unwrap_all()
    names = {span.name for span in tracer.spans}
    for name in ("pipeline.make_record", "pipeline.random_frame", "pipeline.apply_channel",
                 "pipeline.add_awgn", "pipeline.generate_fading",
                 "pipeline.estimate_cir_windowed", "pipeline.build_ddpdp",
                 "bem.generate_dpss"):
        assert name in names, f"no span named {name}; recorded {sorted(names)}"
    # slepian.generate_dpss.calls_per_record counts one basis per window
    plan = window_plan(spec.samples_per_vector, spec.window_len, spec.sim.normalized_doppler,
                       len(load_profile(1).delay_units))
    assert len(tracer.named("bem.generate_dpss")) == len(plan) == 2


def test_trainer_spans_resolve(monkeypatch, tmp_path):
    """``mlp.train.ms_per_step`` and the model-file metrics read these spans."""
    run, tracing = _load("run", monkeypatch), _load("tracing", monkeypatch)
    tracer = tracing.Tracer()
    x, t = np.eye(3), np.eye(3)
    run._traced_wrappers(tracer)
    try:
        params, _ = mlp.train(mlp.init_mlp((3, 4, 3), seed=0), x, t, mlp.TrainConfig(epochs=2))
        mlp.save_mlp(params, tmp_path / "model.json")
        mlp.load_mlp(tmp_path / "model.json")
    finally:
        tracer.unwrap_all()
    names = {span.name for span in tracer.spans}
    for name in ("mlp.train", "mlp.save_mlp", "mlp.load_mlp"):
        assert name in names, f"no span named {name}; recorded {sorted(names)}"


def test_bench_layer_sizes_are_the_experiments(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert workloads.LAYER_SIZES == (FEATURE_LENGTH, *pipeline.HIDDEN_SIZES, N_SCENARIOS)


@pytest.mark.parametrize("window_len", [300, 512])
@pytest.mark.parametrize("n", [400, 1200, 2048, 5000, 25600, 25856])
def test_bench_windows_are_the_window_plans(monkeypatch, n, window_len):
    counts = _load("counts", monkeypatch)
    for nu in (0.0, 0.004, 0.02):
        plan = window_plan(n, window_len, nu, 1)
        assert counts.bem_windows(n, window_len) == [w1 - w0 for w0, w1, _, _ in plan]


@pytest.mark.parametrize("nu", [0.0, 1e-4, 0.004, 0.02])
@pytest.mark.parametrize("n", [400, 2048, 25600])
def test_bench_fading_grid_is_the_synthesis_grid(monkeypatch, n, nu):
    counts = _load("counts", monkeypatch)
    spec = DatasetSpec(samples_per_vector=n, sim=SimConfig(nu), estimation="oracle-cir")
    assert counts.fading_grid(spec) == _synthesis_grid(n, spec.sim.doppler_per_sample)
