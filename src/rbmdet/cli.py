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

Each subcommand accepts only the flags it reads; ``rbmdet CMD --help``
lists them.  Configuration may come from a plain ``key=value`` file
(--config) whose keys are flags of the subcommand; explicit flags override
file values.  All randomness derives from --seed, and reports embed the
resolved configuration, so identical configs give byte-identical JSON.

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
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _parse_ints(text: str):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _parse_levels(text: str):
    out = []
    for v in text.split(","):
        v = v.strip()
        out.append(math.inf if v.lower() in ("inf", "+inf") else float(v))
    return out


def _load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _resolve(args, config):
    """Apply config-file values wherever the command line kept a default,
    then the defaults of the flags that are still unset."""
    for key, raw in config.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        choices = _FLAGS.get(key, {}).get("choices")
        if choices and raw not in choices:
            raise ValueError(f"config key {key!r} must be one of {choices}")
        if getattr(args, key) is None:
            setattr(args, key, raw)
    for key, value in _DEFAULTS.items():
        if getattr(args, key, value) is None:
            setattr(args, key, value)
    return args


def _initial_condition(args) -> InitialCondition:
    sources = [s for s in _SOURCE if getattr(args, s) is not None]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --levels, --init-csv, --wedges is required")
    if args.levels is not None:
        return from_positions(_parse_levels(str(args.levels)),
                              extend_last=True)
    if args.init_csv is not None:
        return read_csv(args.init_csv)
    spec = str(args.wedges)
    if "@" not in spec:
        raise ValueError("--wedges needs the form a1,a2,...@eps")
    pos, eps = spec.rsplit("@", 1)
    return narrow_wedge_approx(_parse_floats(pos), float(eps))


def _report(args, payload: dict) -> str:
    body = {
        "version": __version__,
        "command": args.cmd,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("cmd", "func") and v is not None},
        **payload,
    }
    if args.output == "csv":
        rows = payload.get("rows")
        if rows is None:
            rows = [{k: v for k, v in payload.items()}]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue().rstrip("\n")
    return json.dumps(body, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# -- subcommands -----------------------------------------------------------


def _cmd_prob(args):
    ic = _initial_condition(args)
    indices = _parse_ints(str(args.indices))
    thresholds = _parse_floats(str(args.a))
    if len(indices) != len(thresholds):
        raise ValueError("--indices and --a must have the same length")
    spec = KernelSpec(t=float(args.t), indices=tuple(indices), ic=ic,
                      representation=args.representation or "hitting")
    res = rbm_probability(spec, thresholds,
                          target=float(args.target or 1e-6),
                          order=int(args.quad_order or 40),
                          pad=float(args.pad) if args.pad else None)
    return {
        "probability": res.value,
        "error_estimate": res.error_estimate,
        "order_used": res.order_used,
        "pad_used": res.pad_used,
    }


def _cmd_mc(args):
    ic = _initial_condition(args)
    indices = _parse_ints(str(args.indices))
    thresholds = _parse_floats(str(args.a))
    est, stderr = simulate.mc_distribution(
        ic, float(args.t), indices, thresholds,
        paths=int(args.paths or 10000), dt=float(args.dt or 1e-3),
        seed=int(args.seed or 0), threads=int(args.threads or 1))
    return {
        "estimate": est,
        "stderr": stderr,
        "paths": int(args.paths or 10000),
        "dt": float(args.dt or 1e-3),
        "seed": int(args.seed or 0),
        "bias_note": "grid reflection bias is O(sqrt(dt)) toward larger "
                     "values for extreme-value events",
    }


def _cmd_hitting(args):
    ic = _initial_condition(args)
    eta = float(args.eta if args.eta is not None else 0.0)
    n_max = int(args.horizon or (max(_parse_ints(str(args.indices)))
                                 if args.indices else 8))
    method = args.method or "exact"
    if method == "exact":
        law = hitting_law_exact(blocks(ic), eta, n_max)
    elif method == "grid":
        grid = default_grid(ic, eta, n_max,
                            spacing=float(args.spacing or 1e-3))
        law = hitting_law_grid(ic, eta, grid, n_max)
    elif method == "mc":
        law = hitting_law_mc(ic, eta, n_max,
                             paths=int(args.paths or 100000),
                             seed=int(args.seed or 0))
    else:
        raise ValueError(f"unknown hitting method {method!r}")
    rows = []
    if law.atom_mass:
        rows.append({"ell": "atom", "b": law.start, "density": law.atom_mass})
    for ell, comp in sorted(law.components.items()):
        for b, d in zip(comp.nodes, comp.values):
            rows.append({"ell": ell, "b": float(b), "density": float(d)})
    return {"rows": rows, "total_mass": law.total_mass(),
            "masses": {str(k): v for k, v in law.masses().items()}}


def _cmd_gue(args):
    n = int(args.n or 2)
    thresholds = _parse_floats(str(args.a)) if args.a else \
        [-3.0, -1.5, 0.0, 1.0, 2.0]
    samples = int(args.paths or 100000)
    seed = int(args.seed or 0)
    lam = simulate.gue_edge_sample(n, samples, seed)
    spec = KernelSpec(t=1.0, indices=(n,), ic=packed(0.0))
    rows = []
    for a in thresholds:
        det = rbm_probability(spec, [a]).value
        emp = float(np.mean(lam <= -a))
        se = math.sqrt(max(emp * (1 - emp), 1.0 / samples) / samples)
        rows.append({"a": a, "determinant": det, "gue_empirical": emp,
                     "stderr": se, "z": abs(det - emp) / se})
    return {"rows": rows, "n": n, "samples": samples, "seed": seed}


def _cmd_scaling(args):
    if args.wedges is None or "@" in str(args.wedges):
        raise ValueError("scaling takes --wedges as positions only "
                         "(eps values come from --eps)")
    wedges = _parse_floats(str(args.wedges))
    xs = _parse_floats(str(args.x or "0"))
    thresholds = _parse_floats(str(args.a or "0"))
    eps_list = _parse_floats(str(args.eps or "0.2,0.1,0.05"))
    rows_out = []
    rows = convergence_study(wedges, float(args.t or 1.0), xs, thresholds,
                             eps_list, target=float(args.target or 1e-6))
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
    seed = int(args.seed or 0)
    suites = [args.suite] if args.suite != "all" else \
        ["duality", "gram", "representations", "contour", "g0n"]
    results = {}
    rng = np.random.default_rng(seed)
    if "duality" in suites:
        worst = 0.0
        for k in range(10):
            n = int(rng.integers(2, 13))
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            ic = from_positions(lv)
            noise = simulate.sample_noise(n, 1.0, 1e-3, seed + 100 + k)
            a = simulate.rbm_reflect(ic, noise)
            b = simulate.rbm_variational(ic, noise)
            worst = max(worst, float(np.max(np.abs(a - b))))
        results["duality"] = {"max_pathwise_gap": worst,
                              "threshold": 1e-12, "pass": worst < 1e-12}
    if "gram" in suites:
        worst = 0.0
        for k in range(6):
            n = int(rng.integers(2, 11))
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            g = biorth.gram(from_positions(lv), n, float(rng.uniform(0.5, 2)))
            worst = max(worst, float(np.max(np.abs(g - np.eye(n)))))
        results["gram"] = {"max_identity_gap": worst,
                           "threshold": 1e-8, "pass": worst < 1e-8}
    if "representations" in suites:
        lv = [1.0, 1.0, 0.0, -1.0, -1.0]
        ic = from_positions(lv, extend_last=True)
        idx = (2, 5)
        kerns = {rep: kernel_eval(KernelSpec(t=1.0, indices=idx, ic=ic,
                                             representation=rep))
                 for rep in ("hitting", "biorth", "operator_step")}
        worst = 0.0
        for _ in range(30):
            ni = int(rng.choice(idx)); nj = int(rng.choice(idx))
            zi = float(rng.uniform(-5, 2)); zj = float(rng.uniform(-5, 2))
            vals = [k((ni, zi), (nj, zj)) for k in kerns.values()]
            scale = max(1.0, *(abs(v) for v in vals))
            worst = max(worst, (max(vals) - min(vals)) / scale)
        results["representations"] = {"max_rel_gap": worst,
                                      "threshold": 1e-7,
                                      "pass": worst < 1e-7}
    if "contour" in suites:
        worst = 0.0
        for _ in range(10):
            t = float(rng.uniform(0.4, 2.5))
            n = int(rng.integers(0, 15))
            z1, z2 = rng.uniform(-2, 2, 2)
            a = special.contour_eval("S", t, n, z1, z2)
            b = s_ops("S", t, n, z1, z2)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
            if n >= 1:
                a = special.contour_eval("Sbar", t, n, z1, z2)
                b = s_ops("Sbar", t, n, z1, z2)
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        results["contour"] = {"max_rel_gap": worst, "threshold": 1e-8,
                              "pass": worst < 1e-8}
    if "g0n" in suites:
        worst = 0.0
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
        results["g0n"] = {"max_gap": worst, "threshold": 1e-8,
                          "pass": worst < 1e-8}
    ok = all(v["pass"] for v in results.values())
    if not ok:
        raise ConvergenceError("validation failed: " + json.dumps(results))
    return {"suites": results, "all_pass": ok, "seed": seed}


# every flag a subcommand may take; each subcommand takes only those it reads
_FLAGS = {
    "t": dict(help="time (or fixed-point time for scaling)"),
    "indices": dict(help="comma list n1,n2,..."),
    "a": dict(help="comma list of thresholds"),
    "levels": dict(help="comma list X0(1),X0(2),... "
                        "(leading 'inf' entries allowed)"),
    "init_csv": dict(help="CSV file with index,position rows"),
    "wedges": dict(help="a1,a2,...@eps narrow-wedge data "
                        "(positions only for 'scaling')"),
    "quad_order": dict(help="quadrature nodes per panel"),
    "pad": dict(help="truncation pad for half-lines"),
    "target": dict(help="determinant error target"),
    "representation": dict(choices=("hitting", "biorth", "operator_step")),
    "paths": dict(help="Monte Carlo sample count"),
    "dt": dict(help="simulation step"),
    "seed": dict(help="master seed"),
    "threads": dict(help="worker cap (results unchanged)"),
    "eta": dict(help="walk start"),
    "horizon": dict(help="epoch horizon"),
    "method": dict(choices=("exact", "grid", "mc")),
    "spacing": dict(help="grid spacing for --method grid"),
    "suite": dict(choices=("duality", "gram", "representations", "contour",
                           "g0n", "all"), help="default all"),
    "x": dict(help="comma list of fixed-point locations"),
    "eps": dict(help="comma list of eps values"),
    "n": dict(help="matrix size / particle index"),
    "output": dict(choices=("json", "csv"), help="default json"),
}
_SOURCE = ("levels", "init_csv", "wedges")
# applied after the config merge, so that a config file can set them
_DEFAULTS = {"output": "json", "suite": "all"}

_COMMANDS = (
    ("prob", _cmd_prob, "determinant probability",
     ("t", "indices", "a", *_SOURCE, "quad_order", "pad", "target",
      "representation")),
    ("mc", _cmd_mc, "Monte Carlo probability",
     ("t", "indices", "a", *_SOURCE, "paths", "dt", "seed", "threads")),
    ("hitting", _cmd_hitting, "dump a hitting law",
     (*_SOURCE, "eta", "horizon", "indices", "method", "spacing", "paths",
      "seed")),
    ("validate", _cmd_validate, "cross-check suites", ("seed", "suite")),
    ("scaling", _cmd_scaling, "narrow-wedge convergence study",
     ("wedges", "t", "x", "a", "eps", "target")),
    ("gue", _cmd_gue, "packed one-point law vs GUE edge",
     ("n", "a", "paths", "seed")),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rbmdet",
        description="Fredholm-determinant distributions of one-sided "
                    "reflected Brownian motions, with Monte Carlo and "
                    "KPZ-fixed-point cross-checks")
    p.add_argument("--config", help="key=value file; flags override it")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, func, help_, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_)
        for flag in (*flags, "output"):
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            **_FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args, _load_config(args.config) if args.config else {})
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
    except ValueError as exc:
        print(json.dumps({"error": "argument", "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
