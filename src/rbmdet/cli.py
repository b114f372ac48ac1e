"""Command-line front end.

Subcommands
-----------
prob      exact P(X_t(n_j) >= a_j) via the Fredholm determinant
mc        Monte Carlo estimate of the same probability
hitting   dump a hitting law as CSV (ell,b,density rows plus an atom row)
validate  run the cross-check suites (duality, gram, representations,
          contour, g0n, or all)
scaling   narrow-wedge convergence study, CSV output
gue       packed one-point determinant vs GUE edge sampling

Each subcommand accepts only the flags it reads (``rbmdet CMD --help``);
``_FLAGS`` and ``_COMMANDS`` declare each flag's type, default and
requiredness once.  Each ``key=value`` line of a --config file is read as
the flag ``--key=value`` right after the subcommand, so explicit flags win.
All randomness derives from --seed, and reports embed every flag with its
resolved value, so equivalent runs give byte-identical JSON.

Exit codes: 0 success, 2 argument error, 3 numerical non-convergence or
failed validation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__, biorth, simulate, special
from .errors import ConvergenceError
from .fredholm import rbm_probability
from .initial_data import InitialCondition, blocks, from_positions, \
    narrow_wedge_approx, packed, read_csv
from .hitting import default_grid, hitting_law_exact, hitting_law_grid, \
    hitting_law_mc
from .kernel import KernelSpec, kernel_eval, s_ops
from .scaling import convergence_study


def _parse_floats(text: str):
    return _parse_list(text, float, "numbers")


def _parse_ints(text: str):
    return _parse_list(text, int, "integers")


def _parse_list(text: str, kind, what: str):
    """``text`` as a list of ``kind``; argparse prints this error as is."""
    items = [v for v in text.split(",") if v.strip() != ""]
    try:
        if items:
            return [kind(v) for v in items]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a comma list of {what}, got {text!r}")


def _load_config(path):
    """The ``key=value`` lines of a config file as ``--key=value`` flags."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return out


def _with_config(argv):
    """``argv`` with the --config file's flags right after the subcommand."""
    pre = argparse.ArgumentParser(prog="rbmdet", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = pre.parse_known_args(argv)
    if known.config is None or not known.rest or \
            {"-h", "--help"} & set(known.rest):    # help reads no file
        return argv
    cut = len(argv) - len(known.rest) + 1
    return [*argv[:cut], *_load_config(known.config), *argv[cut:]]


def _initial_condition(args) -> InitialCondition:
    sources = [s for s in _SOURCE if getattr(args, s) is not None]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --levels, --init-csv, --wedges is required")
    if args.levels is not None:
        return from_positions(_parse_floats(args.levels), extend_last=True)
    if args.init_csv is not None:
        return read_csv(args.init_csv)
    if "@" not in args.wedges:
        raise ValueError("--wedges needs the form a1,a2,...@eps")
    pos, eps = args.wedges.rsplit("@", 1)
    return narrow_wedge_approx(_parse_floats(pos), float(eps))


def _report(args, payload: dict) -> str:
    body = {
        "version": __version__,
        "command": args.cmd,
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("cmd", "func", "config")},
        **payload,
    }
    if args.output == "csv":
        rows = payload.get("rows", [payload])
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    return json.dumps(body, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# -- subcommands -----------------------------------------------------------


def _cmd_prob(args):
    ic = _initial_condition(args)
    if len(args.indices) != len(args.a):
        raise ValueError("--indices and --a must have the same length")
    spec = KernelSpec(t=args.t, indices=tuple(args.indices), ic=ic,
                      representation=args.representation)
    res = rbm_probability(spec, args.a, target=args.target,
                          order=args.quad_order, pad=args.pad)
    return {
        "probability": res.value,
        "error_estimate": res.error_estimate,
        "order_used": res.order_used,
        "pad_used": res.pad_used,
    }


def _cmd_mc(args):
    est, stderr = simulate.mc_distribution(
        _initial_condition(args), args.t, args.indices, args.a,
        paths=args.paths, dt=args.dt, seed=args.seed, threads=args.threads)
    return {
        "estimate": est,
        "stderr": stderr,
        "paths": args.paths,
        "dt": args.dt,
        "seed": args.seed,
        "bias_note": "grid reflection bias is O(sqrt(dt)) toward larger "
                     "values for extreme-value events",
    }


def _cmd_hitting(args):
    ic = _initial_condition(args)
    n_max = args.horizon
    if n_max is None:  # the largest of --indices, else 8
        n_max = max(args.indices) if args.indices is not None else 8
    if args.method == "exact":
        law = hitting_law_exact(blocks(ic), args.eta, n_max)
    elif args.method == "grid":
        grid = default_grid(ic, args.eta, n_max, spacing=args.spacing)
        law = hitting_law_grid(ic, args.eta, grid, n_max)
    else:
        law = hitting_law_mc(ic, args.eta, n_max, paths=args.paths,
                             seed=args.seed)
    rows = []
    if law.atom_mass:
        rows.append({"ell": "atom", "b": law.start, "density": law.atom_mass})
    for ell, comp in sorted(law.components.items()):
        for b, d in zip(comp.nodes, comp.values):
            rows.append({"ell": ell, "b": float(b), "density": float(d)})
    return {"rows": rows, "total_mass": law.total_mass(),
            "masses": {str(k): v for k, v in law.masses().items()}}


def _cmd_gue(args):
    samples = args.paths
    lam = simulate.gue_edge_sample(args.n, samples, args.seed)
    spec = KernelSpec(t=1.0, indices=(args.n,), ic=packed(0.0))
    rows = []
    for a in args.a:
        det = rbm_probability(spec, [a]).value
        emp = float(np.mean(lam <= -a))
        se = math.sqrt(max(emp * (1 - emp), 1.0 / samples) / samples)
        rows.append({"a": a, "determinant": det, "gue_empirical": emp,
                     "stderr": se, "z": abs(det - emp) / se})
    return {"rows": rows, "n": args.n, "samples": samples, "seed": args.seed}


def _cmd_scaling(args):
    if "@" in args.wedges:
        raise ValueError("scaling takes --wedges as positions only "
                         "(eps values come from --eps)")
    rows_out = []
    rows = convergence_study(_parse_floats(args.wedges), args.t, args.x,
                             args.a, args.eps, target=args.target)
    for r in rows:
        rows_out.append({
            "eps": r.eps,
            "prob_rbm": r.prob_rbm if r.prob_rbm is not None else "",
            "prob_fp": r.prob_fp,
            "abs_err": r.abs_err if r.abs_err is not None else "",
            "det_err_rbm": r.det_err_rbm if r.det_err_rbm is not None else "",
            "det_err_fp": r.det_err_fp,
        })
    return {"rows": rows_out}


def _cmd_validate(args):
    seed = args.seed
    results = {}
    for i, suite in enumerate(_SUITES):
        if args.suite not in (suite, "all"):
            continue
        # its own stream, so that alone it draws what it draws within "all"
        rng = np.random.default_rng([seed, i])
        worst = 0.0
        if suite == "duality":
            metric, threshold = "max_pathwise_gap", 1e-12
            for k in range(10):
                n = int(rng.integers(2, 13))
                lv = np.sort(rng.uniform(-2, 2, n))[::-1]
                ic = from_positions(lv)
                noise = simulate.sample_noise(n, 1.0, 1e-3, seed + 100 + k)
                a = simulate.rbm_reflect(ic, noise)
                b = simulate.rbm_variational(ic, noise)
                worst = max(worst, float(np.max(np.abs(a - b))))
        elif suite == "gram":
            metric, threshold = "max_identity_gap", 1e-8
            for k in range(6):
                n = int(rng.integers(2, 11))
                lv = np.sort(rng.uniform(-2, 2, n))[::-1]
                g = biorth.gram(from_positions(lv), n,
                                float(rng.uniform(0.5, 2)))
                worst = max(worst, float(np.max(np.abs(g - np.eye(n)))))
        elif suite == "representations":
            metric, threshold = "max_rel_gap", 1e-7
            ic = from_positions([1.0, 1.0, 0.0, -1.0, -1.0], extend_last=True)
            idx = (2, 5)
            kerns = [kernel_eval(KernelSpec(t=1.0, indices=idx, ic=ic,
                                            representation=rep))
                     for rep in ("hitting", "biorth", "operator_step")]
            for _ in range(30):
                ni = int(rng.choice(idx)); nj = int(rng.choice(idx))
                zi = float(rng.uniform(-5, 2)); zj = float(rng.uniform(-5, 2))
                vals = [k((ni, zi), (nj, zj)) for k in kerns]
                scale = max(1.0, *(abs(v) for v in vals))
                worst = max(worst, (max(vals) - min(vals)) / scale)
        elif suite == "contour":
            metric, threshold = "max_rel_gap", 1e-8
            for _ in range(10):
                t = float(rng.uniform(0.4, 2.5))
                n = int(rng.integers(0, 15))
                z1, z2 = rng.uniform(-2, 2, 2)
                for op in ("S", "Sbar") if n >= 1 else ("S",):
                    a = special.contour_eval(op, t, n, z1, z2)
                    b = s_ops(op, t, n, z1, z2)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        else:
            metric, threshold = "max_gap", 1e-8
            for _ in range(8):
                n = int(rng.integers(2, 7))
                lv = np.sort(rng.uniform(-2, 2, n))[::-1]
                ic = from_positions(lv, extend_last=True)
                x1 = float(rng.uniform(-3, 3))
                if min(abs(x1 - v) for v in lv) < 1e-6:
                    continue
                x2 = float(rng.uniform(-3, 3))
                a = biorth.g0n_eval(ic, n, x1, x2, method="biorth")
                b = biorth.g0n_eval(ic, n, x1, x2, method="hitting")
                worst = max(worst, abs(a - b))
        results[suite] = {metric: worst, "threshold": threshold,
                          "pass": worst < threshold}
    ok = all(v["pass"] for v in results.values())
    if not ok:
        raise ConvergenceError("validation failed: " + json.dumps(results))
    return {"suites": results, "all_pass": ok, "seed": seed}


# the cross-check suites; a suite's place here keys its random stream
_SUITES = ("duality", "gram", "representations", "contour", "g0n")

# every flag a subcommand may take, with its type; --levels, --init-csv and
# --wedges stay strings
_FLAGS = {
    "t": dict(type=float, help="time (or fixed-point time for scaling)"),
    "indices": dict(type=_parse_ints, help="comma list n1,n2,..."),
    "a": dict(type=_parse_floats, help="comma list of thresholds"),
    "levels": dict(help="comma list X0(1),X0(2),... "
                        "(leading 'inf' entries allowed)"),
    "init_csv": dict(help="CSV file with index,position rows"),
    "wedges": dict(help="a1,a2,...@eps narrow-wedge data "
                        "(positions only for 'scaling')"),
    "quad_order": dict(type=int, help="quadrature nodes per panel"),
    "pad": dict(type=float, help="truncation pad for half-lines"),
    "target": dict(type=float, help="determinant error target"),
    "representation": dict(choices=("hitting", "biorth", "operator_step")),
    "paths": dict(type=int, help="Monte Carlo sample count"),
    "dt": dict(type=float, help="simulation step"),
    "seed": dict(type=int, help="master seed"),
    "threads": dict(type=int, help="worker cap (results unchanged)"),
    "eta": dict(type=float, help="walk start"),
    "horizon": dict(type=int, help="epoch horizon"),
    "method": dict(choices=("exact", "grid", "mc")),
    "spacing": dict(type=float, help="grid spacing for --method grid"),
    "suite": dict(choices=(*_SUITES, "all"), help="default all"),
    "x": dict(type=_parse_floats, help="comma list of fixed-point locations"),
    "eps": dict(type=_parse_floats, help="comma list of eps values"),
    "n": dict(type=int, help="matrix size / particle index"),
    "output": dict(choices=("json", "csv"), help="default json"),
}
_SOURCE = dict(levels=None, init_csv=None, wedges=None)
_REQUIRED = ...  # in place of a default: the flag must be given

# each subcommand's flags with their defaults; every subcommand also takes
# --output (default json)
_COMMANDS = (
    ("prob", _cmd_prob, "determinant probability",
     dict(t=_REQUIRED, indices=_REQUIRED, a=_REQUIRED, **_SOURCE,
          quad_order=40, pad=None, target=1e-6, representation="hitting")),
    ("mc", _cmd_mc, "Monte Carlo probability",
     dict(t=_REQUIRED, indices=_REQUIRED, a=_REQUIRED, **_SOURCE,
          paths=10000, dt=1e-3, seed=0, threads=1)),
    ("hitting", _cmd_hitting, "dump a hitting law",
     dict(**_SOURCE, eta=0.0, horizon=None, indices=None, method="exact",
          spacing=1e-3, paths=100000, seed=0)),
    ("validate", _cmd_validate, "cross-check suites",
     dict(seed=0, suite="all")),
    ("scaling", _cmd_scaling, "narrow-wedge convergence study",
     dict(wedges=_REQUIRED, t=1.0, x=[0.0], a=[0.0], eps=[0.2, 0.1, 0.05],
          target=1e-6)),
    ("gue", _cmd_gue, "packed one-point law vs GUE edge",
     dict(n=2, a=[-3.0, -1.5, 0.0, 1.0, 2.0], paths=100000, seed=0)),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rbmdet",
        description="Fredholm-determinant distributions of one-sided "
                    "reflected Brownian motions, with Monte Carlo and "
                    "KPZ-fixed-point cross-checks")
    p.add_argument("--config", help="key=value file; flags override it")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, func, help_, defaults in _COMMANDS:
        sp = sub.add_parser(name, help=help_)
        for flag, default in {**defaults, "output": "json"}.items():
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            default=default, required=default is _REQUIRED,
                            **_FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        payload = args.func(args)
        print(_report(args, payload))
        return 0
    except ConvergenceError as exc:
        print(json.dumps({"error": "non-convergence", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except (OSError, IOError) as exc:
        print(json.dumps({"error": "io", "detail": str(exc)}),
              file=sys.stderr)
        return 4
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(json.dumps({"error": "argument", "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
