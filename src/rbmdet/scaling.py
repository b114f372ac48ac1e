"""1:2:3 scaling maps, scaled kernels, the fixed-point kernel for multiple
narrow wedges, and epsilon-convergence studies.

The scaling substitution is

    t = eps^{-3/2} T,   n_i = eps^{-3/2} T - 2 eps^{-1} x_i,
    z_i = -2 eps^{-3/2} T + 2 eps^{-1} x_i + eps^{-1/2} u_i,

with thresholds a~_i = -2 eps^{-3/2} T + 2 eps^{-1} x_i - eps^{-1/2} a_i, so
P(X_t(n_j) >= a~_j) converges to the fixed-point probability
P(h(T, x_j) <= a_j).

The limiting one-sided kernel is the convolution operator

    S_fp(T, x; w) = T^{-1/3} exp(2x^3/(3T^2) + w x / T)
                    Ai(T^{-1/3} w + T^{-4/3} x^2),

acting as (v, u) -> S_fp(v - u), and the multiple-narrow-wedge kernel is the
finite inclusion-exclusion sum of products of half-line projections and
diffusion-2 heat propagators between consecutive wedges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import special
from .fredholm import DetResult, NystromSystem, rbm_probability, refine
# the benchmark's tracer wraps fredholm_det under this module's name too
from .fredholm import fredholm_det  # noqa: F401
from .initial_data import narrow_wedge_approx
from .kernel import KernelSpec
from .quad import build_scheme


@dataclass(frozen=True)
class ScaledVars:
    """Result of the scaling substitution; n is rounded to the nearest
    integer with the rounding recorded."""

    t: float
    n: int
    z: float
    n_exact: float
    rounding: float


def scale_vars(eps: float, T: float, x: float, u: float) -> ScaledVars:
    if eps <= 0 or T <= 0:
        raise ValueError("need eps > 0 and T > 0")
    t = eps ** -1.5 * T
    n_exact = t - 2.0 * x / eps
    n = int(round(n_exact))
    if n < 1:
        raise ValueError(
            f"eps={eps} too large for x={x}: scaled index {n_exact:.3f} < 1")
    z = -2.0 * t + 2.0 * x / eps + u / math.sqrt(eps)
    return ScaledVars(t=t, n=n, z=z, n_exact=n_exact,
                      rounding=n - n_exact)


def scaled_threshold(eps: float, T: float, x: float, a: float) -> float:
    """a~ such that {X_t(n) >= a~} matches {h(T, x) <= a} after scaling."""
    return -2.0 * eps ** -1.5 * T + 2.0 * x / eps - a / math.sqrt(eps)


def scaled_kernels(eps: float, T: float, x: float, v, u):
    """(S^eps, Sbar^eps) at (v, u): the prefactored, substituted one-sided
    kernels, which converge pointwise to S_fp(T, +-x; v - u)."""
    sv = scale_vars(eps, T, x, 0.0)
    t, n = sv.t, sv.n
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    eta = v / math.sqrt(eps)
    z = -2.0 * t + 2.0 * x / eps + u / math.sqrt(eps)
    d = eta - z
    (la, sg), (lb, sb) = special.psi_psibar_log(n, t, d)
    s_eps = sg * np.exp(la + d - 0.5 * t - 0.5 * math.log(eps))
    sbar_eps = sb * np.exp(lb - d + 0.5 * t - 0.5 * math.log(eps))
    if s_eps.ndim == 0:
        return float(s_eps), float(sbar_eps)
    return s_eps, sbar_eps


def s_fp(T: float, x: float, w, airy=None):
    """The limiting convolution kernel S_fp(T, x; w), log-scale where the
    Airy factor underflows.

    ``airy`` is the Airy factor of the same (T, x^2, w) from
    :func:`_fp_airy`, which S_fp(T, x; w) and S_fp(T, -x; w) share; passing
    it skips the Airy evaluation, and the value is bitwise the same.
    """
    w = np.asarray(w, dtype=float)
    big, log_ai, ai = _fp_airy(T, x, w) if airy is None else airy
    pref = 2.0 * x ** 3 / (3.0 * T * T) + w * x / T
    flat_pref = np.atleast_1d(pref).ravel()
    flat = np.empty(big.shape)
    if log_ai is not None:
        flat[big] = np.exp(flat_pref[big] + log_ai)
    if ai is not None:
        flat[~big] = np.exp(flat_pref[~big]) * ai
    out = (T ** (-1.0 / 3.0) * flat).reshape(np.atleast_1d(w).shape)
    return float(out[0]) if w.ndim == 0 else out


def _fp_airy(T: float, x: float, w):
    """Airy factor of S_fp(T, x; w), flattened: (mask of arguments > 8,
    log Ai on the mask or None, Ai off it or None).  The argument
    T^{-1/3} w + T^{-4/3} x^2 depends on x^2 only."""
    arg = T ** (-1.0 / 3.0) * np.asarray(w, dtype=float) \
        + T ** (-4.0 / 3.0) * x * x
    flat_arg = np.atleast_1d(arg).ravel()
    big = flat_arg > 8.0
    log_ai = special.airy_log_pos(flat_arg[big]) if np.any(big) else None
    ai = special.airy_eval(flat_arg[~big]) if np.any(~big) else None
    return big, log_ai, ai


def heat2(g: float, x, y):
    """Diffusion-2 heat kernel e^{g d^2}(x, y), variance 2g."""
    if g <= 0:
        raise ValueError("need positive time gap")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-((x - y) ** 2) / (4.0 * g)) / math.sqrt(4.0 * math.pi * g)


@dataclass(frozen=True)
class FixedPointSpec:
    """Multiple narrow wedges at a_1 > ... > a_l (<= 0), evaluated at points
    x_j with thresholds a_out_j."""

    wedges: tuple
    T: float
    x: tuple
    a_out: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.wedges)
        if not w or w[0] > 0:
            raise ValueError("wedge positions must be <= 0")
        if any(b >= a for a, b in zip(w[:-1], w[1:])):
            raise ValueError("wedge positions must be strictly decreasing")
        object.__setattr__(self, "wedges", w)
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "a_out", tuple(float(v) for v in self.a_out))
        if len(self.x) != len(self.a_out):
            raise ValueError("need one threshold per evaluation point")
        if self.T <= 0:
            raise ValueError("T must be > 0")


class FixedPointKernel:
    """Extended fixed-point kernel for multiple narrow wedges.

    block(i, j, ui, uj) returns the kernel matrix between evaluation points
    x_i and x_j; the epigraph operator is the inclusion-exclusion sum over
    wedge subsets of chains of half-line cuts and diffusion-2 propagators.

    Every chain starts with S_fp(T, x_i - a_k; v - u_i) and ends with
    S_fp(T, a_k - x_j; v - u_j), so the Airy factors depend on one point's
    nodes and one offset only.  They are kept in a memo with one entry per
    (point, offset), replaced whenever its u or v nodes change.  A miss
    fills the entries of both offsets +-(x_i - a_k) from one Airy
    evaluation, as they share the Airy argument.  The heat propagators
    between consecutive wedges depend on the v grid and the gap only, and
    are memoized per gap.
    """

    def __init__(self, spec: FixedPointSpec, order: int = 24,
                 v_pad: float | None = None):
        self.spec = spec
        self.order = order
        T = spec.T
        if v_pad is None:
            span = max(abs(min(spec.wedges)), max(abs(v) for v in spec.x), 1.0)
            v_pad = T ** (1.0 / 3.0) * 42.0 + 6.0 * span
        self.v_pad = v_pad
        # every u node lies below max(-a_out): one v grid serves all blocks
        self._u_hi = max(0.0, -min(spec.a_out))
        self._schemes = {}
        self._factors = {}
        self._mids = {}

    def _v_scheme(self, upper: float):
        key = round(upper, 9)
        if key not in self._schemes:
            self._schemes[key] = build_scheme(
                [(0.0, upper)], order=self.order,
                max_panel=max(1.0 * self.spec.T ** (1.0 / 3.0), 0.25))
        return self._schemes[key]

    def block(self, i: int, j: int, ui, uj) -> np.ndarray:
        spec = self.spec
        ui = np.atleast_1d(np.asarray(ui, dtype=float))
        uj = np.atleast_1d(np.asarray(uj, dtype=float))
        xi, xj = spec.x[i], spec.x[j]
        out = np.zeros((ui.size, uj.size))
        if xi > xj:
            out -= heat2(xi - xj, ui[:, None], uj[None, :])
        upper = float(max(self._u_hi, ui.max(), uj.max())) + self.v_pad
        sch = self._v_scheme(upper)
        w = sch.weights
        wedges = spec.wedges
        for k in range(1, len(wedges) + 1):
            sign = 1.0 if (k + 1) % 2 == 0 else -1.0
            for picks in combinations(range(len(wedges)), k):
                aks = [wedges[p] for p in picks]
                carry = self._s_fp(i, xi - aks[0], sch, ui) * w[:, None]
                for r in range(1, k):
                    mid = self._heat_mid(aks[r - 1] - aks[r], sch)
                    carry = (carry.T @ mid).T * w[:, None]
                right = self._s_fp(j, -xj + aks[-1], sch, uj)
                out += sign * (carry.T @ right)
        return out

    def _s_fp(self, point, offset, sch, u):
        """Memoized S_fp(T, offset; v - u) on the v nodes of ``sch``; a miss
        fills the (point, -offset) entry from the same Airy evaluation,
        unless that entry is fresh."""

        def fresh(entry):
            return entry is not None and entry[0] is sch \
                and np.array_equal(entry[1], u)

        hit = self._factors.get((point, offset))
        if fresh(hit):
            return hit[2]
        T, w = self.spec.T, sch.nodes[:, None] - u[None, :]
        offsets = (offset,)
        if offset != 0 and not fresh(self._factors.get((point, -offset))):
            offsets = (offset, -offset)
        airy = _fp_airy(T, offset, w)
        u_key = u.copy()
        for off in offsets:
            self._factors[(point, off)] = (sch, u_key,
                                           s_fp(T, off, w, airy=airy))
        return self._factors[(point, offset)][2]

    def _heat_mid(self, g, sch):
        """Memoized heat2(g) on the v nodes of ``sch``."""
        hit = self._mids.get(g)
        if hit is not None and hit[0] is sch:
            return hit[1]
        nodes = sch.nodes
        mid = heat2(g, nodes[:, None], nodes[None, :])
        self._mids[g] = (sch, mid)
        return mid

    def __call__(self, a, b) -> float:
        (i, ui), (j, uj) = a, b
        return float(self.block(int(i), int(j),
                                np.asarray([float(ui)]),
                                np.asarray([float(uj)]))[0, 0])


def fixedpoint_probability(spec: FixedPointSpec, target: float = 1e-7,
                           order: int = 32, pad: float | None = None,
                           max_rounds: int = 3) -> DetResult:
    """P(h(T, x_j) <= a_j for all j) for multiple-narrow-wedge data, as the
    Fredholm determinant of the fixed-point kernel over (-inf, -a_j].

    Each half-line is truncated to [-a_j - pad, -a_j].  ``refine`` starts
    at ``order`` (32 by default) and, for at most ``max_rounds`` rounds (3),
    doubles the order and grows the pad by 6 T^{1/3} until the error
    estimate is below ``target``, with a floor of 1e-13 in the [0, 1] check.
    """
    T = spec.T
    if pad is None:
        pad = 16.0 * T ** (1.0 / 3.0) + 2.0 * max(abs(min(spec.wedges)), 1.0)
    kern = FixedPointKernel(spec, order=max(24, order // 2))
    max_panel = max(1.2 * T ** (1.0 / 3.0), 0.25)

    def system_at(order, pad):
        intervals = tuple((-aj - pad, -aj) for aj in spec.a_out)
        return NystromSystem(intervals=intervals, order=order,
                             block_fn=kern.block, max_panel=max_panel,
                             pad_side="lower")

    return refine(system_at, order, pad,
                  lambda pad: pad + 6.0 * T ** (1.0 / 3.0),
                  target, max_rounds, floor=1e-13)


def tracy_widom_gue_cdf(s: float, order: int = 40, span: float = 40.0) -> float:
    """F_GUE(s) by the Airy-kernel determinant on [s, s + span].

    Independently coded reference: the Hankel-form Airy kernel
    (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y) with the exact diagonal, built
    on our own Airy evaluator; shares nothing with the fixed-point kernel
    path except Ai itself.
    """

    def k_airy(i, j, x, y):
        ax, adx = special.airy_pair(x)
        ay, ady = special.airy_pair(y)
        dx = x[:, None] - y[None, :]
        num = ax[:, None] * ady[None, :] - adx[:, None] * ay[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / dx
        diag = np.abs(dx) < 1e-9
        if np.any(diag):
            ii, jj = np.nonzero(diag)
            out[ii, jj] = adx[ii] ** 2 - x[ii] * ax[ii] ** 2
        return out

    system = NystromSystem(intervals=((s, s + span),), order=order,
                           block_fn=k_airy, max_panel=1.5,
                           pad_side="upper")
    return float(system.det())


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    prob_rbm: float | None
    prob_fp: float
    abs_err: float | None
    det_err_rbm: float | None
    det_err_fp: float
    n: int | None
    rounding_err: float | None = None
    skipped: str | None = None

    @property
    def combined_err(self) -> float:
        return (self.det_err_rbm or 0.0) + self.det_err_fp \
            + (self.rounding_err or 0.0)


def convergence_study(wedges, T: float, x, a, eps_list,
                      target: float = 1e-6) -> list:
    """|P_eps - P_fp| along a list of eps values for narrow-wedge data.

    Entries whose scaled index would drop below 1 are reported as skipped.
    """
    x = [float(v) for v in np.atleast_1d(x)]
    a = [float(v) for v in np.atleast_1d(a)]
    fp_spec = FixedPointSpec(wedges=tuple(wedges), T=T, x=tuple(x),
                             a_out=tuple(a))
    fp = fixedpoint_probability(fp_spec, target=max(target, 1e-8))

    def skipped(eps, reason):
        return ConvergenceRow(eps=eps, prob_rbm=None, prob_fp=fp.value,
                              abs_err=None, det_err_rbm=None,
                              det_err_fp=fp.error_estimate, n=None,
                              skipped=reason)

    rows = []
    for eps in eps_list:
        try:
            sv = [scale_vars(eps, T, xx, 0.0) for xx in x]
        except ValueError as exc:
            rows.append(skipped(eps, str(exc)))
            continue
        ns = [v.n for v in sv]
        thresholds = [scaled_threshold(eps, T, xx, aa)
                      for xx, aa in zip(x, a)]
        ordax = np.argsort(ns)
        ns_sorted = [ns[i] for i in ordax]
        if any(b <= a2 for a2, b in zip(ns_sorted[:-1], ns_sorted[1:])):
            rows.append(skipped(eps, "scaled indices collide"))
            continue
        ic = narrow_wedge_approx(wedges, eps)
        t = eps ** -1.5 * T
        thr_sorted = [thresholds[i] for i in ordax]
        res = rbm_probability(KernelSpec(t=t, indices=tuple(ns_sorted),
                                         ic=ic), thr_sorted, target=target)
        # first-order effect of rounding the scaled indices: re-evaluate
        # with every index bumped by one and scale by the recorded rounding
        max_round = max(abs(v.rounding) for v in sv)
        bumped = rbm_probability(
            KernelSpec(t=t, indices=tuple(n + 1 for n in ns_sorted), ic=ic),
            thr_sorted, target=target)
        rounding_err = abs(bumped.value - res.value) * max_round
        rows.append(ConvergenceRow(
            eps=eps, prob_rbm=res.value, prob_fp=fp.value,
            abs_err=abs(res.value - fp.value),
            det_err_rbm=res.error_estimate, det_err_fp=fp.error_estimate,
            n=ns_sorted[-1], rounding_err=rounding_err))
    return rows
