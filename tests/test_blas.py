import _ctypes
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chanident
from chanident import _blas, bem, mlp, pipeline
from chanident.modulation import random_frame
from chanident.pipeline import DatasetSpec

SPEC = DatasetSpec(scenario_labels=(1, 4), vectors_per_condition=2,
                   snr_list_db=(None, 10.0), samples_per_vector=600, master_seed=5)


def _counts():
    return [p.get() for p in _blas.pools()]


@pytest.fixture
def pools():
    found = _blas.pools()
    if not found:
        pytest.skip("no bundled OpenBLAS loaded")
    return found


@pytest.fixture
def prior(pools):
    """Distinct counts other than 1 in the bundled pools for the test, and
    the counts found before it restored after it."""
    found = _counts()
    counts = [2 + i for i in range(len(pools))]
    for p, n in zip(pools, counts):
        p.set(n)
    yield counts
    for p, n in zip(pools, found):
        p.set(n)


def test_bundled_pools_of_numpy_and_scipy_found(pools):
    libraries = [p.library for p in pools]
    assert len(libraries) == 2
    assert sum("openblas64_" in name for name in libraries) == 1  # numpy's


def test_pin_sets_one_thread_in_every_pool(prior):
    _blas.pin_one_thread()
    assert _counts() == [1] * len(prior)


# Loads _blas.py on its own, which imports no chanident module, to read the
# counts before and after the package's import in one interpreter.
_FRESH = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("probe", sys.argv[1])
probe = sys.modules["probe"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
before = [p.get() for p in probe.pools()]
import chanident
print(json.dumps({"before": before, "after": [p.get() for p in probe.pools()]}))
"""


def test_import_pins_one_thread_whatever_the_environment_says(pools):
    src = str(Path(chanident.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", _FRESH, _blas.__file__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    if (os.cpu_count() or 1) >= 2:  # OpenBLAS caps the count at the cores
        assert counts["before"] == [2] * len(pools)
    assert counts["after"] == [1] * len(pools)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_run_on_one_thread(pools, method):
    # forked workers inherit the count; spawned ones import the package again
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        docs = [f.result() for f in [pool.submit(_blas.describe) for _ in range(2)]]
    assert docs == [[{"library": p.library, "threads": 1} for p in pools]] * 2


def test_no_library_found_is_a_no_op(prior, monkeypatch):
    assert _blas.find_pools([]) == ()
    assert _blas.find_pools(["/nonexistent/libscipy_openblas-0.so",
                             "/nonexistent/libm.so.6"]) == ()
    # a loaded library with no thread controls, and a map that cannot be read
    assert _blas._controls(_ctypes.__file__) is None

    def unreadable(*args, **kwargs):
        raise PermissionError("maps")

    monkeypatch.setattr(_blas, "open", unreadable, raising=False)
    assert _blas._mapped_paths() == []
    real = _blas.pools()
    monkeypatch.setattr(_blas, "pools", lambda: ())
    _blas.pin_one_thread()
    assert [p.get() for p in real] == prior
    assert _blas.describe() == []


def test_describe_reports_counts_outside_a_record(prior):
    assert _blas.describe() == [{"library": p.library, "threads": n}
                                for p, n in zip(_blas.pools(), prior)]


@pytest.mark.parametrize("estimation", ["bem-ls", "oracle-cir"])
def test_record_stages_run_on_one_thread(pools, monkeypatch, estimation):
    seen = []
    build = pipeline.build_ddpdp

    def spy(cir):
        seen.append(_counts())
        return build(cir)

    monkeypatch.setattr(pipeline, "build_ddpdp", spy)
    pipeline.make_record(replace(SPEC, estimation=estimation), 4, 10.0, 0)
    assert seen == [[1] * len(pools)]


def test_bem_entry_points_run_on_one_thread(pools, monkeypatch):
    seen = []
    normal_equations = bem._normal_equations

    def spy(*args):
        seen.append(_counts())
        return normal_equations(*args)

    monkeypatch.setattr(bem, "_normal_equations", spy)
    frame = random_frame(1024, seed=2)
    bem.estimate_cir_windowed(frame, frame.samples, (0, 1), 0.02)
    basis = bem.generate_dpss(1024, 0.004, 4)
    bem.bem_ls_estimate(frame, frame.samples, (0, 1), basis)
    assert len(seen) == 3 and all(c == [1] * len(pools) for c in seen)


def test_training_runs_on_one_thread(pools, monkeypatch):
    seen = []
    backprop = mlp._backprop

    def spy(*args):
        seen.append(_counts())
        return backprop(*args)

    monkeypatch.setattr(mlp, "_backprop", spy)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(6, 20))
    mlp.train(mlp.init_mlp([20, 8, 6], seed=0), x, np.eye(6),
              mlp.TrainConfig(epochs=2, batch_size=4))
    assert len(seen) == 4 and all(c == [1] * len(pools) for c in seen)
