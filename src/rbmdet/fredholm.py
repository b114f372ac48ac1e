"""Nystrom discretization of det(I - P K P) on unions of intervals.

The determinant of the symmetrized matrix I - W^{1/2} K W^{1/2} over
composite Gauss-Legendre nodes approximates the Fredholm determinant; error
estimates come from a half-order rerun and a shrunk-domain rerun
(Richardson-style comparison, reported, never extrapolated).  The
shrunk-domain rerun assembles nothing: its cut is snapped to an existing
panel edge, so its matrix is a principal submatrix of the full one.
``refine`` is the one refinement loop around the quadrature: the RBM and
the fixed-point probabilities each supply only their system and schedule.

The RBM kernel factors through a layer, K = A^T B minus a walk term
(``ExtendedKernelEval.factors``), and a system given those factors never
forms the N x N matrix: by Sylvester's identity its determinant is that of
an m x m matrix on the m layer rows, balanced before it is factored.  The
hitting and biorthogonal kernels take that route; the operator-step kernel
(whose layer outgrows N), the fixed-point kernel (whose heat term between
points is block upper triangular only where the x decrease) and the Airy
kernel, which has no ``factors``, factor their N x N matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .kernel import ExtendedKernelEval, KernelSpec, kernel_eval
from .quad import build_scheme


@dataclass(frozen=True)
class NystromSystem:
    """Assembled discretization of I - K over per-line intervals.

    ``kernel(xs)`` takes the tuple of per-line node arrays and returns a new
    matrix of the kernel on their concatenation, so a kernel that factors
    per line builds each line's factors once per assembly.  ``factors(xs)``,
    if given, returns the same kernel in factored form (see
    ``ExtendedKernelEval.factors``); the determinant then comes from those
    factors and ``kernel`` is not called.  The lower end of each interval
    is the truncation of an infinite tail (used by the shrunk-domain error
    rerun).  An order below 1 is a ValueError before any scheme is built.
    """

    intervals: tuple
    order: int
    kernel: object
    splits: tuple = ()
    max_panel: float | None = None
    schemes: tuple = None
    factors: object = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"need quadrature order >= 1 (a determinant "
                             f"with its error estimate needs order >= 2), "
                             f"got {self.order}")
        if self.schemes is None:
            schemes = tuple(
                build_scheme(lo, hi, order=self.order, splits=self.splits,
                             max_panel=self.max_panel)
                for lo, hi in self.intervals)
            object.__setattr__(self, "schemes", schemes)

    @property
    def size(self) -> int:
        return sum(s.size for s in self.schemes)

    def matrix(self) -> np.ndarray:
        """I - W^{1/2} K W^{1/2} over the concatenated nodes, formed in
        place in the kernel's matrix."""
        out = np.asarray(self.kernel(tuple(s.nodes for s in self.schemes)),
                         dtype=float)
        root = np.sqrt(np.concatenate([s.weights for s in self.schemes]))
        out *= root[:, None]
        out *= root[None, :]
        np.negative(out, out=out)
        out[np.diag_indices_from(out)] += 1.0
        return out

    def assemble(self):
        """The system assembled once for its determinant and its
        shrunk-domain rerun: from the kernel's factors when it has them,
        otherwise as the N x N ``matrix``."""
        if self.factors is None:
            return _Dense(self.matrix())
        return _Factored(*self.factors(tuple(s.nodes for s in self.schemes)),
                         [np.sqrt(s.weights) for s in self.schemes])

    def det(self, matrix: np.ndarray | None = None) -> float:
        """Determinant of ``matrix``, by default the assembled system."""
        if matrix is None:
            matrix = self.assemble().matrix()
        sign, logabs = np.linalg.slogdet(matrix)
        return float(sign * np.exp(logabs))

    def shrunk_cut(self, amount: float):
        """Node indices and intervals of the domain shrunk by about
        ``amount`` at the lower, padded end of every interval.

        The shrink is capped at half of each interval, and the cut is the
        first panel edge at least that far above the lower end, so the
        shrunk system's nodes are a subset of this system's nodes.  An
        interval with no panel edge past the cut drops out entirely.
        """
        keep, intervals = [], []
        pos = 0
        for (lo, hi), sch in zip(self.intervals, self.schemes):
            p = int(np.searchsorted(sch.edges,
                                    lo + min(amount, 0.5 * (hi - lo)),
                                    side="left"))
            intervals.append((float(sch.edges[p]), hi))
            keep.append(np.arange(pos + p * self.order, pos + sch.size))
            pos += sch.size
        return np.concatenate(keep), tuple(intervals)

    def _half_order(self) -> "NystromSystem":
        return replace(self, order=self.order // 2, schemes=None)


class _Dense:
    """The N x N matrix of a system; a shrunk domain is a principal
    submatrix."""

    def __init__(self, full: np.ndarray):
        self.full = full

    def matrix(self, keep=None) -> np.ndarray:
        return self.full if keep is None else self.full[np.ix_(keep, keep)]


class _Factored:
    """A system whose kernel is A^T B minus a walk term, reduced to m x m;
    A and B of every line have the same m layer rows.

    With D = W^{1/2} and the walk term Q on the blocks i < j, I - D K D =
    U - D A^T B D where U = I + D Q D is block unit upper triangular, so
    det U = 1 and, by Sylvester's identity, det(I - D K D) = det(I_m - G)
    with G = sum_i B_i D_i Y_i and Y = U^{-1} D A^T by block back
    substitution over the lines.

    Two exact diagonal similarities by powers of 2 leave the determinant
    as it is and make partial pivoting work.  Each layer row of A is scaled
    by 2^-k and of B by 2^k, one k per row for all lines, to bring the
    row's largest entries of A and B together; this keeps G in floating
    range however a row's scale is split between A and B (the hitting
    kernel balances its atom rows so already; its law rows it does not).
    Then G itself is balanced (``_balanced``).  Unbalanced, packed data at
    the spectral edge at t = 1 were off by 3.8e-8 at n = 60 (balanced:
    2.2e-16).  With the factor balance only, the m x m matrix of two narrow
    wedges at eps = 0.1 has condition number 2e9, where I - D K D has 3,
    and its determinant is off by 1.3e-13 (balanced: condition number 1.1).
    """

    def __init__(self, facs, walk, roots):
        a = [f[0] * r for f, r in zip(facs, roots)]
        b = [f[1] * r for f, r in zip(facs, roots)]
        amax = np.abs(np.concatenate(a, axis=1)).max(axis=1, initial=0.0)
        bmax = np.abs(np.concatenate(b, axis=1)).max(axis=1, initial=0.0)
        k = np.zeros(amax.size)
        ok = (amax > 0) & (bmax > 0)
        k[ok] = np.round(0.5 * (np.log2(amax[ok]) - np.log2(bmax[ok])))
        self.a = [x * np.exp2(-k)[:, None] for x in a]
        self.b = [x * np.exp2(k)[:, None] for x in b]
        self.walk = {(i, j): roots[i][:, None] * q * roots[j][None, :]
                     for (i, j), q in walk.items()}
        self.offs = np.cumsum([0] + [r.size for r in roots])

    def matrix(self, keep=None) -> np.ndarray:
        """I_m - G, on the nodes ``keep`` only if given: the determinant of
        the principal submatrix of I - D K D on those nodes."""
        a, b, walk = self.a, self.b, self.walk
        if keep is not None:
            sel = [keep[(keep >= lo) & (keep < hi)] - lo
                   for lo, hi in zip(self.offs[:-1], self.offs[1:])]
            a = [x[:, s] for x, s in zip(a, sel)]
            b = [x[:, s] for x, s in zip(b, sel)]
            walk = {(i, j): q[np.ix_(sel[i], sel[j])]
                    for (i, j), q in walk.items()}
        m = a[0].shape[0]
        ys = [None] * len(a)
        out = np.zeros((m, m))
        for i in reversed(range(len(a))):
            y = a[i].T
            for j in range(i + 1, len(a)):
                y = y - walk[i, j] @ ys[j]
            ys[i] = y
            out -= b[i] @ y
        out = _balanced(out)
        out[np.diag_indices_from(out)] += 1.0
        return out


def _balanced(g: np.ndarray) -> np.ndarray:
    """S^-1 g S with S = diag(2^k) such that row i and column i of the
    off-diagonal part have about the same largest entry, for every i.

    Each sweep moves every k_i at once by half the log2 ratio of its row's
    and its column's largest entry, until no k moves (7 sweeps on two
    narrow wedges at eps = 0.1) or 20 sweeps are done.  The entries are
    compared in log scale, so nothing overflows.
    """
    with np.errstate(divide="ignore"):
        lg = np.log2(np.abs(g))
    np.fill_diagonal(lg, -np.inf)
    k = np.zeros(g.shape[0])
    for _ in range(20):
        row = np.max(lg + k[None, :], axis=1, initial=-np.inf) - k
        col = np.max(lg - k[:, None], axis=0, initial=-np.inf) + k
        ok = np.isfinite(row) & np.isfinite(col)
        step = np.zeros_like(k)
        step[ok] = np.round(0.5 * (row[ok] - col[ok]))
        if not step.any():
            break
        k += step
    return g * np.exp2(k[None, :] - k[:, None])


@dataclass(frozen=True)
class DetResult:
    value: float
    error_estimate: float
    order_used: int
    pad_used: float


def fredholm_det(system: NystromSystem, shrink: float = 2.0) -> DetResult:
    """Determinant of the system with an error estimate from a half-order
    run and a domain shrunk by ``shrink``.

    The system is assembled once (``NystromSystem.assemble``).  The
    shrunk-domain value is the determinant of its principal submatrix on
    the nodes past a cut: the first existing panel edge at least ``shrink``
    inside the truncated end, with ``shrink`` capped at half of each
    interval (``shrunk_cut``).  A factored system takes it from the kept
    columns of the same factors; the half-order rerun assembles its own.
    The estimate is at least 4 ulps of |value|.  Raises ValueError for an
    order below 2, which has no half order.
    """
    if system.order < 2:
        raise ValueError(f"need quadrature order >= 2, got {system.order}")
    assembled = system.assemble()
    value = system.det(assembled.matrix())
    if not math.isfinite(value):
        raise ConvergenceError("singular or non-finite Nystrom determinant",
                               value=value, error_estimate=math.inf)
    keep, _ = system.shrunk_cut(shrink)
    v_pad = system.det(assembled.matrix(keep))
    del assembled
    v_half = system._half_order().det()
    # three runs that agree to the last bit still carry rounding
    err = max(abs(value - v_half) + abs(value - v_pad),
              4.0 * math.ulp(abs(value)))
    pad = min(hi - lo for lo, hi in system.intervals)
    return DetResult(value=value, error_estimate=float(err),
                     order_used=system.order, pad_used=float(pad))


def refine(system_at, order: int, pad: float, grow_pad, target: float,
           max_rounds: int, floor: float) -> DetResult:
    """The refinement loop of every determinant query.

    Each round runs ``fredholm_det`` on ``system_at(order, pad)`` with the
    domain shrunk by max(2, pad/10).  An error estimate below ``target`` is
    accepted if the value lies in [0, 1] within 10 max(estimate, floor);
    otherwise the order doubles and the pad becomes ``grow_pad(pad)``.
    Raises ConvergenceError with the last value and estimate as soon as a
    round's estimate is not below the previous round's (more rounds would
    only grow the matrix), or when ``max_rounds`` rounds do not reach
    ``target``.
    """
    if max_rounds < 1:
        raise ValueError(f"need max_rounds >= 1, got {max_rounds}")
    last = None
    for _ in range(max_rounds):
        res = fredholm_det(system_at(order, pad), shrink=max(2.0, 0.1 * pad))
        if res.error_estimate < target:
            tol = 10.0 * max(res.error_estimate, floor)
            if not (-tol <= res.value <= 1.0 + tol):
                raise ConvergenceError(
                    f"determinant {res.value} outside [0, 1] beyond "
                    f"tolerance {tol}", value=res.value,
                    error_estimate=res.error_estimate)
            return DetResult(res.value, res.error_estimate, order, pad)
        if last is not None and res.error_estimate >= last.error_estimate:
            raise ConvergenceError(
                f"determinant refinement diverges: error estimate "
                f"{res.error_estimate:.3e} at order {order} is not below "
                f"{last.error_estimate:.3e}; last value {res.value!r}",
                value=res.value, error_estimate=res.error_estimate)
        order *= 2
        pad = grow_pad(pad)
        last = res
    raise ConvergenceError(
        f"determinant refinement stalled at error "
        f"{last.error_estimate:.3e} (target {target:.1e}); last value "
        f"{last.value!r}", value=last.value,
        error_estimate=last.error_estimate)


def rbm_probability(spec: KernelSpec, a, target: float = 1e-6,
                    order: int = 40, pad: float | None = None,
                    max_rounds: int = 4,
                    kern: ExtendedKernelEval | None = None) -> DetResult:
    """P(X_t(n_j) >= a_j for all j) as a Fredholm determinant.

    Each half-line (-inf, a_j] is truncated to [a_j - pad, a_j]; the
    conjugated kernel decays exponentially below the levels, so moderate
    pads converge.  ``refine`` starts at ``order`` (40 by default) and, for
    at most ``max_rounds`` rounds (4), doubles the order and grows the pad
    by 3 sqrt(t) + 2 until the error estimate is below ``target``, with a
    floor of 1e-14 in the [0, 1] check.  A shared ``kern`` must have been
    built for ``spec``.
    """
    a = [float(v) for v in np.atleast_1d(a)]
    if len(a) != len(spec.indices):
        raise ValueError("need one threshold per index")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"thresholds a must be finite, got {a}")
    t = spec.t
    if pad is None:
        pad = 10.0 * math.sqrt(t) + (spec.ic.max_level - spec.ic.min_level)
    if kern is None:
        kern = kernel_eval(spec)
    elif kern.spec != spec:
        raise ValueError("kern was built for another spec")
    # panels resolve the bulk oscillation of psi_n in the z variables
    max_panel = 1.5 * math.pi * math.sqrt(t / spec.n_max)
    splits = tuple(spec.ic.levels)
    # the kernel's mass lives between the lowest particle's reach and the
    # levels; a threshold far above it must not drag the window away
    reach = spec.ic.min_level - 2.0 * math.sqrt(spec.n_max * t)

    # the operator-step layer has one eta scheme per block and outgrows N:
    # on 8-block step data m = 1,856 against N = 1,120, and m x m takes
    # 2.9 s cold against 1.0 s for N x N
    factors = None if spec.representation == "operator_step" else kern.factors

    def system_at(order, pad):
        intervals = tuple((min(aj, reach) - pad, aj) for aj in a)
        return NystromSystem(intervals=intervals, order=order,
                             kernel=kern.matrix, splits=splits,
                             max_panel=max_panel, factors=factors)

    return refine(system_at, order, pad,
                  lambda pad: pad + 3.0 * math.sqrt(t) + 2.0,
                  target, max_rounds, floor=1e-14)
