"""Which program functions the traced run wraps, and the per-layer metrics
computed from the resulting spans.

Each public function is wrapped at the module it is looked up in when
called (its call site), e.g. ``rbmdet.kernel.hitting_law_exact`` for the
kernel's use of the hitting law.  ``initial_data`` and ``cli`` are not
wrapped: their calls build inputs and format reports.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hermite_count(args, kwargs):
    n = _arg(args, kwargs, 0, "n")
    return {"steps": int(n) * int(np.size(_arg(args, kwargs, 1, "x")))}


def _points(pos, name):
    def count(args, kwargs):
        return {"points": int(np.size(_arg(args, kwargs, pos, name)))}
    return count


def _pair_points(args, kwargs):
    x = _arg(args, kwargs, 1, "x")
    y = _arg(args, kwargs, 2, "y")
    return {"points": int(np.broadcast(np.asarray(x), np.asarray(y)).size)}


def _block_entries(args, kwargs):
    zi = _arg(args, kwargs, 3, "zi")
    zj = _arg(args, kwargs, 4, "zj")
    return {"entries": int(np.size(zi)) * int(np.size(zj))}


def _matrix_nodes(args, kwargs):
    return {"nodes": int(args[0].size)}


def _mc_count(args, kwargs):
    t = float(_arg(args, kwargs, 1, "t"))
    indices = np.atleast_1d(_arg(args, kwargs, 2, "indices"))
    paths = int(_arg(args, kwargs, 4, "paths"))
    dt = float(_arg(args, kwargs, 5, "dt"))
    steps = int(round(t / dt))
    return {"paths": paths, "normals": paths * int(max(indices)) * steps}


def _gue_count(args, kwargs):
    n = int(_arg(args, kwargs, 0, "n"))
    samples = int(_arg(args, kwargs, 1, "samples"))
    chunk = int(kwargs.get("chunk", args[3] if len(args) > 3 else 2048))
    # computed, not measured: per chunk the sampler holds two float64 and
    # two complex128 n x n arrays per sample (xr, xi, aa, h)
    per_chunk = min(chunk, samples) * n * n * (2 * 8 + 2 * 16)
    return {"samples": samples, "bytes": per_chunk}


def targets(rbmdet_modules):
    """(owner, attribute, span name, counter) for every wrapped function."""
    m = rbmdet_modules
    special, scaling, kernel = m["special"], m["scaling"], m["kernel"]
    hitting, fredholm, quad = m["hitting"], m["fredholm"], m["quad"]
    simulate, biorth = m["simulate"], m["biorth"]
    out = [
        (special, "hermite_normed_log", "special.hermite", _hermite_count),
        (special, "psi_log", "special.psi", _points(2, "x")),
        (special, "psibar_log", "special.psi", _points(2, "x")),
        (special, "airy_pair", "special.airy", _points(0, "x")),
        (special, "airy_eval", "special.airy", _points(0, "x")),
        (special, "airy_log_pos", "special.airy", _points(0, "x")),
        (scaling.FixedPointKernel, "block", "scaling.fp_block", None),
        (scaling, "s_fp", "scaling.s_fp", _points(2, "w")),
        (scaling, "heat2", "scaling.heat2", None),
        (scaling, "tracy_widom_gue_cdf", "scaling.tw", None),
        (kernel.ExtendedKernelEval, "block", "kernel.block", _block_entries),
        (kernel, "hitting_law_exact", "hitting.exact", None),
        (hitting, "hitting_law_exact", "hitting.exact", None),
        (kernel, "q_exp_pow", "hitting.q_exp_pow", _pair_points),
        (hitting, "q_exp_pow", "hitting.q_exp_pow", _pair_points),
        (hitting, "hitting_law_grid", "hitting.grid", None),
        (hitting, "hitting_law_mc", "hitting.mc", None),
        (fredholm, "rbm_probability", "fredholm.query", None),
        (scaling, "rbm_probability", "fredholm.query", None),
        (scaling, "fixedpoint_probability", "fredholm.query", None),
        (fredholm, "fredholm_det", "fredholm.round", None),
        (scaling, "fredholm_det", "fredholm.round", None),
        (fredholm.NystromSystem, "matrix", "fredholm.matrix", _matrix_nodes),
        (fredholm.NystromSystem, "det", "fredholm.det", None),
        (simulate, "mc_distribution", "simulate.mc", _mc_count),
        (simulate, "_reflect_paths", "simulate.reflect", None),
        (simulate, "gue_edge_sample", "simulate.gue", _gue_count),
    ]
    for owner in (quad, fredholm, kernel, scaling, biorth):
        out.append((owner, "build_scheme", "quad.build_scheme", None))
    for attr in ("heat_on_poly", "h_family", "gauss_repeated_integral",
                 "psi_n_k", "phi_n_k", "psi_phi_eval", "gram", "pinv_delta",
                 "pinv_ext", "g0n_eval"):
        out.append((biorth, attr, "biorth", None))
    return out


def install(tracer, rbmdet_modules) -> None:
    for owner, attr, name, count in targets(rbmdet_modules):
        tracer.wrap(owner, attr, name, count)


def layer_metrics(spans, selfs, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and times are per pass (totals divided by ``passes``);
    ``nodes_max`` and ``gue.bytes`` are maxima, ratios are taken of totals.
    """
    calls, self_s, counts = {}, {}, {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        if s.counts:
            c = counts.setdefault(s.name, {})
            for k, v in s.counts.items():
                c[k] = c.get(k, 0) + v

    def per(v):
        return v / passes

    def cnt(name, key):
        return per(counts.get(name, {}).get(key, 0))

    airy_points = sum(s.counts["points"] for s in spans
                      if s.name == "special.airy" and s.counts and
                      (s.parent is None or spans[s.parent].name != "special.airy"))
    queries = [s for s in spans if s.name == "fredholm.query"]
    accepted = sum(1 for s in queries if not s.failed)
    rounds = [i for i, s in enumerate(spans) if s.name == "fredholm.round"]
    round_set = set(rounds)
    dets_by_round = {}
    for s in spans:
        if s.name == "fredholm.det" and s.parent in round_set:
            dets_by_round.setdefault(s.parent, []).append(s)
    # fredholm_det runs the full system first, then the half-order and the
    # shrunk-domain reruns
    rerun_s = sum(d.duration for ds in dets_by_round.values()
                  for d in sorted(ds, key=lambda d: d.start)[1:])
    round_s = sum(spans[i].duration for i in rounds)
    matrices = [s.counts["nodes"] for s in spans
                if s.name == "fredholm.matrix" and s.counts]
    gue_bytes = [s.counts["bytes"] for s in spans
                 if s.name == "simulate.gue" and s.counts]

    def sf(name):
        return per(self_s.get(name, 0.0))

    def nc(name):
        return per(calls.get(name, 0))

    return {
        "special.hermite.calls": nc("special.hermite"),
        "special.hermite.steps": cnt("special.hermite", "steps"),
        "special.hermite.self_s": sf("special.hermite"),
        "special.psi.calls": nc("special.psi"),
        "special.psi.points": cnt("special.psi", "points"),
        "special.psi.self_s": sf("special.psi"),
        "special.airy.points": per(airy_points),
        "special.airy.self_s": sf("special.airy"),
        "scaling.fp_block.calls": nc("scaling.fp_block"),
        "scaling.fp_block.self_s": sf("scaling.fp_block"),
        "scaling.s_fp.points": cnt("scaling.s_fp", "points"),
        "scaling.s_fp.self_s": sf("scaling.s_fp"),
        "scaling.heat2.self_s": sf("scaling.heat2"),
        "scaling.tw.self_s": sf("scaling.tw"),
        "kernel.block.calls": nc("kernel.block"),
        "kernel.block.entries": cnt("kernel.block", "entries"),
        "kernel.block.self_s": sf("kernel.block"),
        "hitting.exact.calls": nc("hitting.exact"),
        "hitting.exact.self_s": sf("hitting.exact"),
        "hitting.q_exp_pow.points": cnt("hitting.q_exp_pow", "points"),
        "hitting.q_exp_pow.self_s": sf("hitting.q_exp_pow"),
        "hitting.grid.self_s": sf("hitting.grid"),
        "hitting.mc.self_s": sf("hitting.mc"),
        "biorth.self_s": sf("biorth"),
        "fredholm.queries": per(len(queries)),
        "fredholm.rounds": per(len(rounds)),
        "fredholm.accept_ratio": accepted / len(rounds) if rounds else 0.0,
        "fredholm.systems": nc("fredholm.det"),
        "fredholm.nodes_max": float(max(matrices, default=0)),
        "fredholm.matrix_bytes": per(sum(8.0 * n * n for n in matrices)),
        "fredholm.matrix.self_s": sf("fredholm.matrix"),
        "fredholm.slogdet.self_s": sf("fredholm.det"),
        "fredholm.rerun_s": per(rerun_s),
        "fredholm.rerun_share": rerun_s / round_s if round_s else 0.0,
        "fredholm.loop.self_s": sf("fredholm.query") + sf("fredholm.round"),
        "quad.build_scheme.calls": nc("quad.build_scheme"),
        "quad.build_scheme.self_s": sf("quad.build_scheme"),
        "simulate.mc.paths": cnt("simulate.mc", "paths"),
        "simulate.mc.normals": cnt("simulate.mc", "normals"),
        "simulate.mc.rng_s": sf("simulate.mc"),
        "simulate.reflect.self_s": sf("simulate.reflect"),
        "simulate.gue.samples": cnt("simulate.gue", "samples"),
        "simulate.gue.bytes": float(max(gue_bytes, default=0)),
        "simulate.gue.self_s": sf("simulate.gue"),
        "trace.remainder_s": sf("bench.pass"),
        "trace.spans": per(len(spans)),
    }


def src_lines(root: Path) -> int:
    """Line count of the program's sources (``src/rbmdet``)."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "rbmdet").rglob("*.py")))
