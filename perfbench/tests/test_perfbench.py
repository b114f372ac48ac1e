"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers     # noqa: E402
import workloads  # noqa: E402
import worker     # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

TIMING = ("_s", ".rerun_share")


@pytest.fixture(scope="module")
def lib():
    return worker.import_program()


def test_tracer_restores_every_name(lib):
    targets = layers.targets(lib)
    before = {(id(o), a): vars(o)[a] for o, a, _, _ in targets}
    assert len(before) == len(targets)
    tracer = Tracer()
    try:
        layers.install(tracer, lib)
        assert tracer.missing == []
        for o, a, _, _ in targets:
            assert vars(o)[a] is not before[(id(o), a)]
            assert vars(o)[a].__wrapped__ is before[(id(o), a)]
    finally:
        tracer.restore()
    for o, a, _, _ in targets:
        assert vars(o)[a] is before[(id(o), a)]


def test_failed_call_is_recorded_and_restored():
    class Owner:
        @staticmethod
        def boom():
            raise KeyError("x")

    original = vars(Owner)["boom"]
    tracer = Tracer()
    tracer.wrap(Owner, "boom", "boom")
    with pytest.raises(KeyError):
        Owner.boom()
    tracer.restore()
    assert vars(Owner)["boom"] is original
    assert [s.failed for s in tracer.spans] == [True]


def _span(name, start, end, parent):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_times_share_overlap_and_sum_to_wall():
    # root [0, 10]; a [1, 4] with child g [2, 3]; b [2, 6] on another thread
    spans = [_span("root", 0.0, 10.0, None), _span("a", 1.0, 4.0, 0),
             _span("b", 2.0, 6.0, 0), _span("g", 2.0, 3.0, 1)]
    st = self_times(spans)
    assert st == pytest.approx([5.0, 1.5, 3.0, 0.5])
    assert sum(st) == pytest.approx(10.0)


def test_worker_thread_spans_attach_to_main_span():
    tracer = Tracer()
    with tracer.span("outer"):
        t = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None


def test_self_times_sum_within_traced_wall(lib):
    calls = workloads.make_calls("crosscheck", 3)
    tracer = Tracer()
    try:
        layers.install(tracer, lib)
        with tracer.span("bench.pass"):
            workloads.run_pass("crosscheck", calls, lib)
    finally:
        tracer.restore()
    spans = tracer.spans
    wall = spans[0].duration
    st = self_times(spans)
    assert sum(st) <= wall * (1 + 1e-9)
    assert sum(st) == pytest.approx(wall, rel=1e-9)
    metrics = layers.layer_metrics(spans, st, 1)
    named = sum(v for k, v in metrics.items()
                if k.endswith(".self_s") or k == "simulate.mc.rng_s")
    assert named <= wall * (1 + 1e-9)
    assert named + metrics["trace.remainder_s"] == pytest.approx(wall,
                                                                 rel=1e-6)


def test_pinned_references_reproduce(lib):
    sc = lib["scaling"]
    r = sc.fixedpoint_probability(sc.FixedPointSpec(**workloads.FP2_SPEC),
                                  order=64, target=1e-10)
    assert r.value == pytest.approx(workloads.PINNED["fp2"]["value"],
                                    abs=1e-14)
    assert r.error_estimate <= 10 * workloads.PINNED["fp2"]["err"]


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_calls(w, 7) == workloads.make_calls(w, 7)
        assert workloads.make_calls(w, 7) != workloads.make_calls(w, 8)


def test_seeded_run_is_deterministic_except_timings():
    a = worker.work("crosscheck", 5, 0.1, trace=1)
    b = worker.work("crosscheck", 5, 0.1, trace=1)
    assert a["repeats"] and b["repeats"]
    assert a["values"] == b["values"] and a["raised"] == b["raised"] == {}
    counts_a = {k: v for k, v in a["layers"].items() if not k.endswith(TIMING)}
    counts_b = {k: v for k, v in b["layers"].items() if not k.endswith(TIMING)}
    assert counts_a == counts_b
    assert counts_a["simulate.mc.paths"] == workloads.MC_PATHS


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "step_cdf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
