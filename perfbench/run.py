"""rbmdet benchmark.

    python3 perfbench/run.py --workload step_cdf --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics of one workload (setup_s, wall_s, cpu_s, peak_rss_mb,
pass_frac, digits_min); with ``--trace 1`` the per-layer metrics of a
separate traced run.  Every query is checked against its reference.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts queries, ``failed`` the queries that raised, and
``correct`` is false if any query misses its reference other than the known
defects listed in workloads.KNOWN_DEFECTS, or a value does not repeat from
one pass to the next.  Workloads, metrics and known failures are described
in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads   # noqa: E402

SETUP_REPS = 5
# Every child is killed once the run has taken this long, so that a hung or
# runaway program still ends the run (with an error) within 180 s.
DEADLINE_S = 170.0
# BLAS runs single-threaded in every child: the plain baseline, and the
# steadier one on a small shared machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def remaining(deadline) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def run_worker(args, deadline) -> dict:
    """Run one worker role and return the JSON object it prints."""
    proc = subprocess.run([sys.executable, str(WORKER), *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {args[0]} printed no result: {exc}")


def measure_setup(deadline) -> float:
    """Median time from starting a fresh interpreter to an imported rbmdet
    with warm caches, over SETUP_REPS processes."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), "setup"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(remaining(deadline), proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"setup failed ({proc.returncode}):\n{err}")
    return statistics.median(times)


def evaluate(calls, refs, work):
    """Check every query; returns (rows, summary)."""
    rows = []
    for call in calls:
        for vid in call.value_ids():
            ref = refs[vid]
            row = {"id": vid, "ref": ref}
            if vid in work["raised"]:
                row.update(ok=False, raised=work["raised"][vid])
            elif vid not in work["values"]:
                row.update(ok=False, raised="no value returned")
            else:
                value, spread = work["values"][vid]
                row.update(value=value, spread=spread,
                           **workloads.check(value, spread, ref))
            row["known"] = (not row["ok"] and "raised" not in row and
                            call.id in workloads.KNOWN_DEFECTS)
            rows.append(row)
    digits = [r["digits"] for r in rows if "digits" in r]
    summary = {
        "attempted": len(rows),
        "raised": sum(1 for r in rows if "raised" in r),
        "missed": sum(1 for r in rows if not r["ok"]),
        "unexpected": [r["id"] for r in rows if not r["ok"] and not r["known"]],
        "digits_min": min(digits) if digits else math.nan,
    }
    return rows, summary


def report(calls, rows, summary, work, metrics, units, args):
    print(f"rbmdet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in work["env"].items()))
    for r in rows:
        if "raised" in r:
            status = "RAISED " + r["raised"]
        else:
            status = "pass" if r["ok"] else ("FAIL (known)" if r["known"]
                                             else "FAIL")
            status = (f"value={r['value']:.16g} ref={r['ref']['value']:.16g} "
                      f"miss={r['miss']:.2e} tol={r['tol']:.2e} {status}")
        print(f"  query {r['id']}: {status}  [ref: {r['ref']['how']}]")
    ids = {c.id for c in calls}
    known = [(k, v) for k, v in workloads.KNOWN_DEFECTS.items() if k in ids]
    drops = [(k, v) for k, v in workloads.KNOWN_DIGIT_DROPS.items() if k in ids]
    if known or drops:
        print("expected baseline failures (known defects):")
    for cid, (what, fix) in known:
        hit = [r["id"] for r in rows if r["known"] and
               workloads.call_of(r["id"]) == cid]
        state = (f"fails as expected ({', '.join(hit)})" if hit
                 else "NOW PASSES: update workloads.KNOWN_DEFECTS")
        print(f"  {cid}: {state}; {what}; removed by {fix}")
    for cid, (what, fix) in drops:
        d = [r["digits"] for r in rows
             if workloads.call_of(r["id"]) == cid and "digits" in r]
        shown = f"{min(d):.2f} digits" if d else "no value"
        print(f"  {cid}: {shown}, sets digits_min; {what}; removed by {fix}")
    if summary["unexpected"]:
        print("UNEXPECTED failures: " + ", ".join(summary["unexpected"]))
    if not work["repeats"]:
        print("UNEXPECTED: values differ between passes")
    for miss in work.get("trace_missing", []):
        print(f"trace target missing (layer reads 0): {miss}")
    walls = ", ".join(f"{w:.3f}" for w in work["walls"])
    print(f"untraced passes: {len(work['walls'])} (wall s: {walls})")
    if "traced_walls" in work:
        walls = ", ".join(f"{w:.3f}" for w in work["traced_walls"])
        print(f"traced passes: {len(work['traced_walls'])} (wall s: {walls})")
    print(f"fail_frac: {summary['missed'] / summary['attempted']:.4f} "
          f"({summary['missed']} of {summary['attempted']} queries, "
          f"{summary['raised']} raised)")
    print("metrics:")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "rbmdet" / "__init__.py").is_file():
        print(f"error: no rbmdet sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_s = measure_setup(deadline) if args.trace == 0 else None
        refs = run_worker(["refs", *common], deadline)
        work = run_worker(["work", *common, "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calls = workloads.make_calls(args.workload, args.seed)
    rows, summary = evaluate(calls, refs, work)
    if args.trace == 0:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(work["walls"]),
            "cpu_s": statistics.median(work["cpus"]),
            "peak_rss_mb": work["maxrss_mb"],
            "pass_frac": 1.0 - summary["missed"] / summary["attempted"],
            "digits_min": summary["digits_min"],
        }
    else:
        metrics = work["layers"]
    # BENCHMARK.json names the reported metrics and their units
    listed = spec["end_to_end" if args.trace == 0 else "per_layer"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: metrics[m["name"]] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    report(calls, rows, summary, work, metrics, units, args)
    result = {
        "correct": not summary["unexpected"] and work["repeats"],
        "attempted": summary["attempted"],
        "failed": summary["raised"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
