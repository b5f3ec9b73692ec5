import sys
import threading
from dataclasses import replace

import pytest

from chanident import _blas, bem, pipeline
from chanident.modulation import random_frame
from chanident.pipeline import DatasetSpec

SPEC = DatasetSpec(scenario_labels=(1, 4), vectors_per_condition=2,
                   snr_list_db=(None, 10.0), samples_per_vector=600, master_seed=5)


def _counts():
    return [p.get() for p in _blas.pools()]


@pytest.fixture
def prior():
    """Distinct counts other than 1 in the bundled pools for the test, and
    the counts found before it restored after it."""
    pools = _blas.pools()
    if not pools:
        pytest.skip("no bundled OpenBLAS loaded")
    found = _counts()
    counts = [2 + i for i in range(len(pools))]
    for p, n in zip(pools, counts):
        p.set(n)
    yield counts
    for p, n in zip(pools, found):
        p.set(n)


class _FakePool:
    def __init__(self, count):
        self.count, self.calls = count, []

    def get(self):
        return self.count

    def set(self, n):
        self.calls.append(n)
        self.count = n


def test_bundled_pools_of_numpy_and_scipy_found():
    libraries = [p.library for p in _blas.pools()]
    if not libraries:
        pytest.skip("no bundled OpenBLAS loaded")
    assert len(libraries) == 2
    assert sum("openblas64_" in name for name in libraries) == 1  # numpy's


def test_scope_sets_one_thread_and_restores(prior):
    with _blas.single_thread():
        assert _counts() == [1] * len(prior)
    assert _counts() == prior


def test_scope_restores_when_it_raises(prior):
    with pytest.raises(RuntimeError, match="boom"):
        with _blas.single_thread():
            raise RuntimeError("boom")
    assert _counts() == prior


def test_nested_scopes_restore_once(monkeypatch):
    fakes = (_FakePool(3), _FakePool(2))
    monkeypatch.setattr(_blas, "pools", lambda: fakes)
    with _blas.single_thread():
        with _blas.single_thread():
            pass
        assert [f.count for f in fakes] == [1, 1]
    assert [f.calls for f in fakes] == [[1, 3], [1, 2]]


def test_overlapping_scopes_in_two_threads(prior):
    """The first thread leaves while the second is still inside; the second
    must still see one thread, and the counts come back when both are out."""
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with _blas.single_thread():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with _blas.single_thread():
            second_in.set()
            first_out.wait(10)
            seen["after_first_left"] = _counts()

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(20)
    assert seen["after_first_left"] == [1] * len(prior)
    assert _counts() == prior


def test_scope_count_survives_thread_switches(monkeypatch):
    """More threads than cores, switching often: a lost update of the scope
    count would restore the pools while another thread is still inside."""
    fakes = (_FakePool(3), _FakePool(2))
    monkeypatch.setattr(_blas, "pools", lambda: fakes)
    inside = []

    def work():
        for _ in range(300):
            with _blas.single_thread():
                with _blas.single_thread():
                    inside.append(tuple(f.count for f in fakes))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 8 * 300 and set(inside) == {(1, 1)}
    assert [f.count for f in fakes] == [3, 2]


def test_no_library_found_is_a_no_op(prior, monkeypatch):
    assert _blas.find_pools([]) == ()
    assert _blas.find_pools(["/nonexistent/libscipy_openblas-0.so",
                             "/nonexistent/libm.so.6"]) == ()
    real = _blas.pools()
    monkeypatch.setattr(_blas, "pools", lambda: ())
    with _blas.single_thread():
        assert [p.get() for p in real] == prior
    assert _blas.describe() == []


def test_describe_reports_counts_outside_a_record(prior):
    doc = _blas.describe()
    assert [d["library"] for d in doc] == [p.library for p in _blas.pools()]
    assert [d["threads_default"] for d in doc] == prior
    assert all(d["threads_per_record"] == 1 for d in doc)


@pytest.mark.parametrize("estimation", ["bem-ls", "oracle-cir"])
def test_record_stages_run_on_one_thread(prior, monkeypatch, estimation):
    seen = []
    build = pipeline.build_ddpdp

    def spy(cir):
        seen.append(_counts())
        return build(cir)

    monkeypatch.setattr(pipeline, "build_ddpdp", spy)
    pipeline.make_record(replace(SPEC, estimation=estimation), 4, 10.0, 0)
    assert seen == [[1] * len(prior)]
    assert _counts() == prior


def test_bem_entry_points_run_on_one_thread(prior, monkeypatch):
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
    assert len(seen) == 3 and all(c == [1] * len(prior) for c in seen)
    assert _counts() == prior


@pytest.mark.parametrize("threads", [1, 2])
def test_generate_records_restores_counts(prior, threads):
    records = pipeline.generate_records(SPEC, threads=threads)
    assert len(records) == SPEC.record_count
    assert _counts() == prior
