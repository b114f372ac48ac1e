"""Child process of the benchmark: ``setup``, ``refs`` or ``work``.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py refs --workload W --seed S
    python3 perfbench/worker.py work --workload W --seed S --seconds R --trace T

``run.py`` starts each role in a fresh process with the BLAS thread count
pinned in its environment, and reads one JSON object from its standard
output.  The program is imported from ``src/`` of the checkout the script
lives in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers      # noqa: E402
import workloads   # noqa: E402
from tracer import Tracer, self_times   # noqa: E402

MODULES = ("special", "initial_data", "hitting", "biorth", "kernel",
           "fredholm", "simulate", "scaling", "quad")


def import_program() -> dict:
    """Import rbmdet from this checkout's ``src`` and return its modules."""
    src = ROOT / "src"
    if not (src / "rbmdet" / "__init__.py").is_file():
        raise SystemExit(f"no program sources at {src / 'rbmdet'}")
    sys.path.insert(0, str(src))
    import rbmdet
    if Path(rbmdet.__file__).resolve().parent != (src / "rbmdet").resolve():
        raise SystemExit(f"rbmdet imported from {rbmdet.__file__}, "
                         f"not from {src}")
    return {name: importlib.import_module(f"rbmdet.{name}")
            for name in MODULES}


def warm(lib) -> None:
    """Fill the first-use caches (Airy anchor table, Gauss-Legendre rules)
    with one tiny query."""
    lib["special"].airy_eval(1.0)
    spec = lib["kernel"].KernelSpec(t=1.0, indices=(1,),
                                    ic=lib["initial_data"].packed(0.0))
    lib["fredholm"].rbm_probability(spec, [0.0])


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workloads.threads(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _passes(workload, calls, lib, until, tracer=None):
    """Timed passes until the next one would end after ``until``; at least
    one.  Returns (walls, cpus, values, raised, repeats)."""
    walls, cpus = [], []
    first = None
    raised = {}
    repeats = True
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            values, rs = workloads.run_pass(workload, calls, lib)
        else:
            with tracer.span("bench.pass"):
                values, rs = workloads.run_pass(workload, calls, lib)
        wall = time.perf_counter() - t0
        walls.append(wall)
        cpus.append(time.process_time() - c0)
        raised.update(rs)
        if first is None:
            first = values
        elif values != first:
            repeats = False
        if time.perf_counter() + wall > until:
            return walls, cpus, first, raised, repeats


def work(workload, seed, seconds, trace) -> dict:
    lib = import_program()
    warm(lib)
    calls = workloads.make_calls(workload, seed)
    start = time.perf_counter()
    plain_until = start + (seconds / 2 if trace else seconds)
    walls, cpus, values, raised, repeats = _passes(workload, calls, lib,
                                                   plain_until)
    out = {"walls": walls, "cpus": cpus, "values": values, "raised": raised,
           "repeats": repeats, "env": environment()}
    if trace:
        tracer = Tracer()
        try:
            layers.install(tracer, lib)
            t_walls, _, t_values, t_raised, t_repeats = _passes(
                workload, calls, lib, start + seconds, tracer)
        finally:
            tracer.restore()
        spans = tracer.spans
        selfs = self_times(spans)
        metrics = layers.layer_metrics(spans, selfs, len(t_walls))
        metrics["trace.wall_s"] = statistics.median(t_walls)
        metrics["trace.overhead_s"] = (statistics.median(t_walls)
                                       - statistics.median(walls))
        metrics["src.lines"] = float(layers.src_lines(ROOT))
        out["layers"] = metrics
        out["traced_walls"] = t_walls
        out["trace_missing"] = tracer.missing
        out["raised"].update(t_raised)
        out["repeats"] = repeats and t_repeats and t_values == values
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "refs", "work"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.role == "setup":
        warm(import_program())
        print("ready", flush=True)
        return 0
    if args.role == "refs":
        lib = import_program()
        calls = workloads.make_calls(args.workload, args.seed)
        result = workloads.references(calls, lib)
    else:
        result = work(args.workload, args.seed, args.seconds, args.trace)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
