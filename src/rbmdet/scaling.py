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
diffusion-2 heat propagators between consecutive wedges.  The chains ending
at wedge k sum to one carry, C_k = S_fp(x - a_k) - sum_{j<k} H(a_j - a_k) C_j,
so l wedges cost l carries per point where there were 2^l - 1 chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .fredholm import DetResult, NystromSystem, rbm_probability, refine
# the benchmark's tracer wraps fredholm_det under this module's name too
from .fredholm import fredholm_det  # noqa: F401
from .initial_data import narrow_wedge_approx
from .kernel import KernelSpec, factored_matrix
from .quad import build_scheme


@dataclass(frozen=True)
class ScaledVars:
    """Result of the scaling substitution; n is rounded to the nearest
    integer with the rounding recorded."""

    t: float
    n: int
    z: float
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
    return ScaledVars(t=t, n=n, z=z, rounding=n - n_exact)


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
        for name in ("wedges", "x", "a_out"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"{name} must be finite, got {vals}")
            object.__setattr__(self, name, vals)
        w = self.wedges
        if not w or w[0] > 0:
            raise ValueError("wedge positions must be <= 0")
        if any(b >= a for a, b in zip(w[:-1], w[1:])):
            raise ValueError("wedge positions must be strictly decreasing")
        if len(self.x) != len(self.a_out):
            raise ValueError("need one threshold per evaluation point")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T}")


# e-folds the fixed-point v integrand falls by to the top of its grid
_V_DECAY = 40.0


class FixedPointKernel:
    """Extended fixed-point kernel for multiple narrow wedges.

    block(i, j, ui, uj) returns the kernel matrix between evaluation points
    x_i and x_j, matrix(us) the kernel on the concatenated nodes of all
    points, and factors(us) the same kernel in the RBM kernel's factored
    form, which ``matrix`` multiplies out (``kernel.factored_matrix``); the
    epigraph operator is the inclusion-exclusion sum over wedge subsets of
    chains of half-line cuts and diffusion-2 propagators.

    Every chain starts with S_fp(T, x_i - a_k; v - u_i) and ends with
    S_fp(T, a_k - x_j; v - u_j), so its factors depend on one point's nodes
    only.  The chains ending at wedge k sum to one weighted carry, C_k =
    (S_fp(T, x_i - a_k) - sum_{j<k} H(a_j - a_k) C_j) w, and a block is
    sum_k C_k^T S_fp(T, a_k - x_j) minus H(x_i - x_j) for x_i > x_j.
    ``factors`` builds the factors once per point: one Airy evaluation per
    (point, wedge), shared by the offsets +-(x_i - a_k); one carry per
    wedge, not one chain per wedge subset; and each heat propagator once
    per gap.  Nothing is kept between calls.

    The v grid is [0, u_top + v_pad], u_top the highest u node.  In s =
    T^{-1/3}(v - u_top) a factor is e^{p s} Ai(s + p^2) up to constants, p
    = T^{-2/3} x, and -Ai'/Ai >= sqrt(z) on z >= 0; as a block's two p sum
    to at most dx = T^{-2/3} max|x_i - x_j|, the integrand falls by at
    least G(s) = r^2 (2 r + 3 dx) / 12, r = sqrt(4 s + dx^2) - dx.  v_pad =
    T^{1/3} s* + 2 span with G(s*) = 40 (s* = 9.65 at dx = 0), and 2 span
    covers the heat-propagated carries.  Panels are 2 max(T^{1/3}, 1/8)
    wide, at most 8 sqrt(2 g) for the narrowest wedge gap g, and at most
    1.5 wavelengths of Ai at the lowest v - u = -u_top, 3 pi sqrt(T /
    u_top), u_top taken as max(0, -min a_out).  On 108 specs (T from 0.001
    to 27) the matrix first moves at G(s*) = 20, a pad 1/1.6 of this one,
    and (uncapped) at panels of 6 T^{1/3}; see README.
    """

    def __init__(self, spec: FixedPointSpec, order: int = 24):
        self.spec = spec
        self.order = order
        T = spec.T
        span = max(abs(min(spec.wedges)), max(abs(v) for v in spec.x), 1.0)
        # G(s*) = _V_DECAY is 2 r^3 + 3 dx r^2 = 12 _V_DECAY, which has one
        # positive root; s* = r (r + 2 dx) / 4
        dx = T ** (-2.0 / 3.0) * (max(spec.x) - min(spec.x))
        r = max(np.roots([2.0, 3.0 * dx, 0.0, -12.0 * _V_DECAY]).real)
        self.v_pad = T ** (1.0 / 3.0) * r * (r + 2.0 * dx) / 4.0 + 2.0 * span
        # every u node lies below max(-a_out): one v grid serves all blocks
        self._u_hi = max(0.0, -min(spec.a_out))
        # at most 8 widths sqrt(2 g) of the narrowest heat propagator, and
        # 1.5 wavelengths 2 pi sqrt(T / u_top) of Ai at the lowest v - u
        gap = min((a - b for a, b in zip(spec.wedges, spec.wedges[1:])),
                  default=math.inf)
        wave = 3.0 * math.pi * math.sqrt(T / self._u_hi) if self._u_hi > 0 \
            else math.inf
        self._v_panel = min(2.0 * max(T ** (1.0 / 3.0), 0.125),
                            8.0 * math.sqrt(2.0 * gap), wave)

    def _v_scheme(self, upper: float):
        return build_scheme(0.0, upper, order=self.order,
                            max_panel=self._v_panel)

    def block(self, i: int, j: int, ui, uj) -> np.ndarray:
        """Kernel matrix between nodes ui of point i and uj of point j: block
        (0, 1) of the factored form on the two points."""
        ((a, _), (_, b)), walk = self._factors((i, j), (ui, uj))
        return a.T @ b - walk.get((0, 1), 0.0)

    def matrix(self, us) -> np.ndarray:
        """Kernel on the concatenation of ``us``, one node array per
        evaluation point in order; each block is what ``block`` gives."""
        return factored_matrix(*self.factors(us))

    def factors(self, us):
        """``ExtendedKernelEval.factors`` of this kernel: A_i, B_i are point
        i's ``_point_factors`` on one v grid, and the heat propagator
        between points stands in the walk term's place, walk[i, j] =
        H(x_i - x_j)(u_i, u_j) for x_i > x_j only (block upper triangular
        only where the x decrease)."""
        if len(us) != len(self.spec.x):
            raise ValueError(f"need {len(self.spec.x)} node arrays, "
                             f"got {len(us)}")
        return self._factors(range(len(us)), us)

    def _factors(self, points, us):
        """``factors`` of the points ``points`` on the node arrays ``us``,
        indexed by position in ``points``."""
        us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in us]
        x = [self.spec.x[i] for i in points]
        sch = self._v_scheme(float(max(self._u_hi, *(u.max() for u in us)))
                             + self.v_pad)
        heat = {}
        facs = [self._point_factors(i, u, sch, heat)
                for i, u in zip(points, us)]
        walk = {(i, j): heat2(x[i] - x[j], us[i][:, None], us[j][None, :])
                for i in range(len(x)) for j in range(len(x)) if x[i] > x[j]}
        return facs, walk

    def _point_factors(self, i, u, sch, heat):
        """(A, B) of point i on nodes u over the V v nodes of ``sch``, one
        block of V rows per wedge k: the weighted carry C_k w in A and the
        right factor S_fp(T, a_k - x_i; v - u) in B.  ``heat`` holds the
        propagators per gap, filled on first use."""
        spec, T = self.spec, self.spec.T
        x, wedges = spec.x[i], spec.wedges
        nodes, w = sch.nodes, sch.weights
        arg = nodes[:, None] - u[None, :]
        carries = np.empty((len(wedges), nodes.size, u.size))
        rights = np.empty_like(carries)
        for k, a in enumerate(wedges):
            off = x - a
            airy = _fp_airy(T, off, arg)
            left = s_fp(T, off, arg, airy=airy)
            # S_fp(T, -0) is S_fp(T, 0): at offset 0 one call serves both
            rights[k] = left if off == 0 else s_fp(T, -off, arg, airy=airy)
            carries[k] = left * w[:, None]
            for j in range(k):
                g = wedges[j] - a
                if g not in heat:
                    heat[g] = heat2(g, nodes[:, None], nodes[None, :])
                # the propagator is symmetric: H^T C = H C
                carries[k] -= (heat[g] @ carries[j]) * w[:, None]
        shape = (len(wedges) * nodes.size, u.size)
        return carries.reshape(shape), rights.reshape(shape)


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
                             kernel=kern.matrix, max_panel=max_panel)

    return refine(system_at, order, pad,
                  lambda pad: pad + 6.0 * T ** (1.0 / 3.0),
                  target, max_rounds, floor=1e-13)


def tracy_widom_gue_cdf(s: float, order: int = 40) -> float:
    """F_GUE(s) by the Airy-kernel determinant on [s, s + 40].

    Independently coded reference: the Hankel-form Airy kernel
    (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y) with the exact diagonal, built
    on our own Airy evaluator; shares nothing with the fixed-point kernel
    path except Ai itself.
    """

    def k_airy(xs):
        (x,) = xs
        ax, adx = special.airy_pair(x)
        dx = x[:, None] - x[None, :]
        num = ax[:, None] * adx[None, :] - adx[:, None] * ax[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / dx
        diag = np.abs(dx) < 1e-9
        if np.any(diag):
            ii, jj = np.nonzero(diag)
            out[ii, jj] = adx[ii] ** 2 - x[ii] * ax[ii] ** 2
        return out

    system = NystromSystem(intervals=((s, s + 40.0),), order=order,
                           kernel=k_airy, max_panel=1.5)
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
