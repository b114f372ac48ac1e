"""The three benchmark workloads: their seeded inputs, one timed pass over
them, their references and the check of each value against its reference.

A workload is a fixed list of calls made from ``--seed``.  A call may yield
several values (a convergence study yields one per epsilon); each value is
one query, checked against its own reference.  References are computed in a
separate process, outside the timed region.

Nothing here is imported by the program; ``lib`` is a dict of the program's
modules, so every call is looked up at call time and the traced run sees it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("step_cdf", "edge_kpz", "crosscheck")

STEP_LEVELS = (2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -1.5)
STEP_INDICES = (3, 9)
# Threshold pairs spread over the joint law (values from about 0.01 to
# 0.93).  The seed moves the index-3 threshold by at most STEP_JITTER, which
# keeps it between the same two levels; the index-9 threshold stays put.
# The kernel rebuilds its discretization whenever a query's nodes reach
# outside the range it was built for, so a threshold that crossed a level,
# or moved the panel layout of an unsplit interval, would change how many
# rebuilds a pass makes and let the cost of a pass follow the seed.
STEP_BASES = ((-1.25, -5.0), (-0.75, -4.5), (-0.25, -3.5), (0.25, -3.0),
              (0.75, -2.5))
STEP_JITTER = 0.1

# Packed data beyond n = 60 at t = 1 is excluded: see NOTES.md ("Excluded").
EDGE_NS = (15, 30, 45, 60)
NW_EPS = (0.03,)
FP2_SPEC = dict(wedges=(0.0, -1.0), T=1.0, x=(0.0, 0.5), a_out=(0.0, 0.5))

# Pinned reference values, with how each was produced.
PINNED = {
    "fp2": {
        "value": 0.9650739346526347,
        "how": "pinned: fixedpoint_probability(FixedPointSpec(**FP2_SPEC), "
               "order=64, target=1e-10), the default order doubled; its "
               "error estimate was 7.8e-16",
        "err": 7.8e-16,
    },
}

HIT_LEVELS = (2.0, 2.0, 0.5, 0.5, -1.0)   # tests/test_hitting.py TestGridLaw
HIT_ETA = 1.7
HIT_HORIZON = 6
HIT_EPOCHS = (2, 4)                        # the block starts the walk can hit
HIT_GRID_SPACING = 1e-3
HIT_GRID_TOL = 1e-6                        # the test's mass tolerance
HIT_MC_PATHS = 400_000

MC_N, MC_A, MC_DT, MC_PATHS = 5, -4.0, 1e-3, 20_000
GUE_N, GUE_SAMPLES = 8, 20_000
GUE_OFFSETS = (-1.0, 0.0, 1.0)             # lambda_max - 2 sqrt(n)

# A deterministic query passes when it meets the accuracy it asked the
# program for: the default target of rbm_probability (also used by
# convergence_study) and of fixedpoint_probability.  Finer accuracy is
# tracked by digits_min, not by pass/fail.
RBM_TARGET = 1e-6
FP_TARGET = 1e-7

# Baseline failures that are known defects, by call id.  They count as
# failures in fail_frac; the run stays "correct" as long as every failure
# is one of these.
KNOWN_DEFECTS = {
    "mc_packed5": (
        "Monte Carlo grid reflection carries an O(sqrt(dt)) bias, about "
        "+0.02 at dt=1e-3 (z near 10 at 2e4 paths)",
        "ROADMAP direction 4 (bridge-corrected reflection)"),
    "hit_grid": (
        "grid hitting law puts 3.5e-4 of spurious mass at epoch 2 "
        "(bound 1e-6): hitting_law_grid raises `top` above the support",
        "ROADMAP defect 1 (top = min(top, idx))"),
}
# Known accuracy drops that stay within the target accuracy, so they lower
# digits_min without failing.
KNOWN_DIGIT_DROPS = {
    "packed_n60": (
        "packed data at the spectral edge at t=1 loses digits: error "
        "1.1e-8 at n=60 (7.95 digits) against about 1e-15 for n<=30",
        "ROADMAP defect 2 (scale-dependent constants, divergence stop)"),
}


@dataclass(frozen=True)
class Call:
    id: str
    kind: str
    params: dict
    values: tuple          # suffixes of the values the call yields

    def value_ids(self):
        if self.values == ("",):
            return [self.id]
        return [f"{self.id}.{v}" for v in self.values]


def threads() -> int:
    """Monte Carlo worker count: the processors this process may use."""
    return len(os.sched_getaffinity(0))


def make_calls(workload: str, seed: int) -> list[Call]:
    """The workload's call list; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "step_cdf":
        calls = []
        for k, (a1, a2) in enumerate(STEP_BASES):
            a1 += float(rng.uniform(-STEP_JITTER, STEP_JITTER))
            calls.append(Call(f"cdf{k}", "step_cdf", {"a": [a1, a2]}, ("",)))
        return calls
    if workload == "edge_kpz":
        calls = []
        # The packed thresholds sit exactly at the edge, a = -2 sqrt(n): the
        # digit loss at n = 60 changes by a factor of 100 within half an
        # Airy width of the edge, so a seeded shift would make digits_min
        # follow the seed rather than the program.
        for n in EDGE_NS:
            calls.append(Call(f"packed_n{n}", "packed_edge",
                              {"n": n, "a": -2.0 * math.sqrt(n)}, ("",)))
        calls.append(Call("nw_study", "nw_study",
                          {"a": float(rng.uniform(-0.25, 0.25)),
                           "eps": list(NW_EPS)},
                          tuple(f"eps{e}" for e in NW_EPS) + ("fp",)))
        calls.append(Call("fp1", "fp1", {"a": float(rng.uniform(-2.5, 1.0))},
                          ("",)))
        calls.append(Call("fp2", "fp2", dict(FP2_SPEC), ("",)))
        return calls
    if workload == "crosscheck":
        mc_seed, gue_seed, hit_seed = (int(v) for v in
                                       rng.integers(1, 2 ** 31, size=3))
        return [
            Call("mc_packed5", "mc",
                 {"n": MC_N, "a": MC_A, "dt": MC_DT, "paths": MC_PATHS,
                  "seed": mc_seed}, ("",)),
            Call(f"gue_n{GUE_N}", "gue",
                 {"n": GUE_N, "samples": GUE_SAMPLES, "seed": gue_seed,
                  "a": [-(2.0 * math.sqrt(GUE_N) + o) for o in GUE_OFFSETS]},
                 tuple(f"a{k}" for k in range(len(GUE_OFFSETS)))),
            Call("hit_grid", "hit_grid", {"spacing": HIT_GRID_SPACING},
                 tuple(f"l{e}" for e in HIT_EPOCHS)),
            Call("hit_mc", "hit_mc", {"paths": HIT_MC_PATHS, "seed": hit_seed},
                 tuple(f"l{e}" for e in HIT_EPOCHS)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _step_ic(lib):
    return lib["initial_data"].from_positions(STEP_LEVELS, extend_last=True)


def _hit_ic(lib):
    return lib["initial_data"].from_positions(HIT_LEVELS, extend_last=True)


def _masses(law):
    return {f"l{e}": float(law.components[e].mass) if e in law.components
            else math.nan for e in HIT_EPOCHS}


def _call(call: Call, lib, shared) -> dict:
    """Run one call; returns {value id: (value, spread)} where spread is the
    program's own error estimate or standard error."""
    fr, kn, idata = lib["fredholm"], lib["kernel"], lib["initial_data"]
    sc, sim, ht = lib["scaling"], lib["simulate"], lib["hitting"]
    p = call.params
    if call.kind == "step_cdf":
        spec, kern = shared
        r = fr.rbm_probability(spec, p["a"], kern=kern)
        return {call.id: (r.value, r.error_estimate)}
    if call.kind == "packed_edge":
        spec = kn.KernelSpec(t=1.0, indices=(p["n"],), ic=idata.packed(0.0))
        r = fr.rbm_probability(spec, [p["a"]])
        return {call.id: (r.value, r.error_estimate)}
    if call.kind == "nw_study":
        rows = sc.convergence_study([0.0], 1.0, [0.0], [p["a"]], p["eps"])
        out = {f"{call.id}.eps{row.eps}": (row.prob_rbm, row.det_err_rbm)
               for row in rows}
        out[f"{call.id}.fp"] = (rows[0].prob_fp, rows[0].det_err_fp)
        return out
    if call.kind == "fp1":
        spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,),
                                 a_out=(p["a"],))
        r = sc.fixedpoint_probability(spec)
        return {call.id: (r.value, r.error_estimate)}
    if call.kind == "fp2":
        r = sc.fixedpoint_probability(sc.FixedPointSpec(**p))
        return {call.id: (r.value, r.error_estimate)}
    if call.kind == "mc":
        est, se = sim.mc_distribution(idata.packed(0.0), 1.0, [p["n"]],
                                      [p["a"]], paths=p["paths"], dt=p["dt"],
                                      seed=p["seed"], threads=threads())
        return {call.id: (est, se)}
    if call.kind == "gue":
        lam = sim.gue_edge_sample(p["n"], p["samples"], seed=p["seed"])
        out = {}
        for k, a in enumerate(p["a"]):
            emp = float(np.mean(lam <= -a))
            se = math.sqrt(max(emp * (1 - emp), 1.0 / lam.size) / lam.size)
            out[f"{call.id}.a{k}"] = (emp, se)
        return out
    if call.kind == "hit_grid":
        ic = _hit_ic(lib)
        grid = ht.default_grid(ic, HIT_ETA, HIT_HORIZON, spacing=p["spacing"])
        law = ht.hitting_law_grid(ic, HIT_ETA, grid, HIT_HORIZON)
        return {f"{call.id}.{k}": (v, 0.0) for k, v in _masses(law).items()}
    if call.kind == "hit_mc":
        law = ht.hitting_law_mc(_hit_ic(lib), HIT_ETA, HIT_HORIZON,
                                paths=p["paths"], seed=p["seed"])
        return {f"{call.id}.l{e}": (float(law.components[e].mass),
                                    float(law.components[e].stderr))
                if e in law.components else (math.nan, 0.0)
                for e in HIT_EPOCHS}
    raise ValueError(f"unknown call kind {call.kind!r}")


def run_pass(workload: str, calls, lib) -> tuple[dict, dict]:
    """One timed pass over the call list.

    Returns ({value id: (value, spread)}, {value id: error text}) for the
    values produced and the calls that raised.  step_cdf shares one kernel
    evaluator across its queries; it is built afresh in every pass so that
    every pass does the same work.
    """
    shared = None
    if workload == "step_cdf":
        kn = lib["kernel"]
        spec = kn.KernelSpec(t=1.0, indices=STEP_INDICES, ic=_step_ic(lib))
        shared = (spec, kn.kernel_eval(spec))
    values, raised = {}, {}
    for call in calls:
        try:
            values.update(_call(call, lib, shared))
        except Exception as exc:  # a raising query is a failed query
            for vid in call.value_ids():
                raised[vid] = f"{type(exc).__name__}: {exc}"
    return values, raised


def references(calls, lib) -> dict:
    """{value id: {value, err, stochastic, tol, how}} for every query."""
    fr, kn, idata = lib["fredholm"], lib["kernel"], lib["initial_data"]
    sc, ht = lib["scaling"], lib["hitting"]

    def det(spec, a, how):
        r = fr.rbm_probability(spec, a)
        return {"value": r.value, "err": r.error_estimate, "how": how}

    refs = {}
    for call in calls:
        p = call.params
        if call.kind == "step_cdf":
            spec = kn.KernelSpec(t=1.0, indices=STEP_INDICES, ic=_step_ic(lib),
                                 representation="biorth")
            refs[call.id] = det(spec, p["a"], "biorthogonal representation")
        elif call.kind == "packed_edge":
            n = p["n"]
            spec = kn.KernelSpec(t=float(n), indices=(n,),
                                 ic=idata.packed(0.0))
            refs[call.id] = det(spec, [p["a"] * math.sqrt(n)],
                                "same law at t=n by Brownian scaling")
        elif call.kind == "nw_study":
            for eps in p["eps"]:
                refs[f"{call.id}.eps{eps}"] = _nw_scaled_ref(lib, eps, p["a"])
            refs[f"{call.id}.fp"] = {
                "value": sc.tracy_widom_gue_cdf(p["a"]), "err": 0.0,
                "how": "Tracy-Widom GUE by the Airy-kernel determinant"}
        elif call.kind == "fp1":
            refs[call.id] = {
                "value": sc.tracy_widom_gue_cdf(p["a"]), "err": 0.0,
                "how": "Tracy-Widom GUE by the Airy-kernel determinant"}
        elif call.kind == "fp2":
            refs[call.id] = dict(PINNED["fp2"])
        elif call.kind == "mc":
            spec = kn.KernelSpec(t=1.0, indices=(p["n"],),
                                 ic=idata.packed(0.0))
            refs[call.id] = det(spec, [p["a"]], "Fredholm determinant")
        elif call.kind == "gue":
            spec = kn.KernelSpec(t=1.0, indices=(p["n"],),
                                 ic=idata.packed(0.0))
            for k, a in enumerate(p["a"]):
                refs[f"{call.id}.a{k}"] = det(spec, [a], "packed determinant")
        elif call.kind in ("hit_grid", "hit_mc"):
            law = ht.hitting_law_exact(idata.blocks(_hit_ic(lib)), HIT_ETA,
                                       HIT_HORIZON)
            for k, v in _masses(law).items():
                refs[f"{call.id}.{k}"] = {"value": v, "err": 0.0,
                                          "how": "exact hitting-law sweep"}
        tol = {"hit_grid": HIT_GRID_TOL, "fp1": FP_TARGET,
               "fp2": FP_TARGET}.get(call.kind, RBM_TARGET)
        for vid in call.value_ids():
            refs[vid]["stochastic"] = call.kind in ("mc", "gue", "hit_mc")
            refs[vid]["tol"] = tol
    return refs


def _nw_scaled_ref(lib, eps, a):
    """The convergence study's narrow-wedge determinant at scale c = 4:
    (t, X0, a) -> (4t, 2 X0, 2a) leaves the law unchanged."""
    sc, idata, kn = lib["scaling"], lib["initial_data"], lib["kernel"]
    fr = lib["fredholm"]
    sv = sc.scale_vars(eps, 1.0, 0.0, 0.0)
    thr = sc.scaled_threshold(eps, 1.0, 0.0, a)
    ic = idata.narrow_wedge_approx([0.0], eps)
    c = 4.0
    ic_c = idata.InitialCondition(tuple(math.sqrt(c) * v for v in ic.levels),
                                  n_inf=ic.n_inf, extend_last=ic.extend_last)
    spec = kn.KernelSpec(t=c * eps ** -1.5, indices=(sv.n,), ic=ic_c)
    r = fr.rbm_probability(spec, [math.sqrt(c) * thr])
    return {"value": r.value, "err": r.error_estimate,
            "how": "same determinant at 4x the time by Brownian scaling"}


def check(value, spread, ref) -> dict:
    """Compare one value with its reference.

    Deterministic values pass within the query's target accuracy plus the
    reference's error estimate; stochastic ones within 3 standard errors
    plus the reference's error estimate.
    """
    miss = abs(value - ref["value"])
    if ref["stochastic"]:
        tol = 3.0 * spread + ref["err"]
    else:
        tol = ref["tol"] + ref["err"]
    ok = bool(math.isfinite(miss) and miss <= tol)
    out = {"ok": ok, "miss": miss, "tol": tol}
    if not ref["stochastic"]:
        out["digits"] = -math.log10(max(miss, 1e-16)) if math.isfinite(miss) \
            else 0.0
    return out


def call_of(value_id: str) -> str:
    return value_id.split(".", 1)[0]
