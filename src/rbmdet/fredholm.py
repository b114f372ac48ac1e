"""Nystrom discretization of det(I - P K P) on unions of intervals.

The determinant of the symmetrized matrix I - W^{1/2} K W^{1/2} over
composite Gauss-Legendre nodes approximates the Fredholm determinant; error
estimates come from a half-order rerun and a shrunk-domain rerun
(Richardson-style comparison, reported, never extrapolated).  The
shrunk-domain rerun assembles nothing: its cut is snapped to an existing
panel edge, so its matrix is a principal submatrix of the full one.
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

    ``block_fn(i, j, x, y)`` returns the kernel matrix between line i nodes x
    and line j nodes y; plain one-line kernels ignore (i, j).  ``pad_side``
    says which end of each interval is the truncation of an infinite tail
    (used by the shrunk-domain error rerun).
    """

    intervals: tuple
    order: int
    block_fn: object
    splits: tuple = ()
    max_panel: float | None = None
    pad_side: str = "lower"
    schemes: tuple = None

    def __post_init__(self):
        if self.schemes is None:
            schemes = tuple(
                build_scheme([iv], order=self.order, splits=self.splits,
                             max_panel=self.max_panel)
                for iv in self.intervals)
            object.__setattr__(self, "schemes", schemes)

    @property
    def size(self) -> int:
        return sum(s.size for s in self.schemes)

    def matrix(self) -> np.ndarray:
        """I - W^{1/2} K W^{1/2} over the concatenated nodes."""
        sizes = [s.size for s in self.schemes]
        n = sum(sizes)
        offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        out = np.eye(n)
        roots = [np.sqrt(s.weights) for s in self.schemes]
        for i, si in enumerate(self.schemes):
            for j, sj in enumerate(self.schemes):
                kij = self.block_fn(i, j, si.nodes, sj.nodes)
                out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] -= \
                    roots[i][:, None] * kij * roots[j][None, :]
        return out

    def det(self, matrix: np.ndarray | None = None) -> float:
        """Determinant of ``matrix``, by default the assembled system."""
        if matrix is None:
            matrix = self.matrix()
        sign, logabs = np.linalg.slogdet(matrix)
        return float(sign * np.exp(logabs))

    def shrunk_cut(self, amount: float):
        """Node indices and intervals of the domain shrunk by about
        ``amount`` at the padded end of every interval.

        The shrink is capped at half of each interval, and the cut is the
        first panel edge at least that far inside the padded end, so the
        shrunk system's nodes are a subset of this system's nodes.  An
        interval with no panel edge past the cut drops out entirely.
        """
        keep, intervals = [], []
        pos = 0
        for (lo, hi), sch in zip(self.intervals, self.schemes):
            edges = sch.edges[0]
            s = min(amount, 0.5 * (hi - lo))
            if self.pad_side == "lower":
                p = int(np.searchsorted(edges, lo + s, side="left"))
                first, last = p * self.order, sch.size
                intervals.append((float(edges[p]), hi))
            else:
                p = int(np.searchsorted(edges, hi - s, side="right")) - 1
                first, last = 0, p * self.order
                intervals.append((lo, float(edges[p])))
            keep.append(np.arange(pos + first, pos + last))
            pos += sch.size
        return np.concatenate(keep), tuple(intervals)

    def _half_order(self) -> "NystromSystem":
        return replace(self, order=max(4, self.order // 2), schemes=None)


@dataclass(frozen=True)
class DetResult:
    value: float
    error_estimate: float
    order_used: int
    pad_used: float


def fredholm_det(system: NystromSystem, shrink: float = 2.0) -> DetResult:
    """Determinant of the system with an error estimate from a half-order
    run and a domain shrunk by ``shrink``.

    The full matrix is assembled once.  The shrunk-domain value is the
    determinant of its principal submatrix on the nodes past a cut: the
    first existing panel edge at least ``shrink`` inside the truncated end,
    with ``shrink`` capped at half of each interval (``shrunk_cut``).
    """
    full = system.matrix()
    value = system.det(full)
    if not math.isfinite(value):
        raise ConvergenceError("singular or non-finite Nystrom determinant",
                               value=value, error_estimate=math.inf)
    keep, _ = system.shrunk_cut(shrink)
    v_pad = system.det(full[np.ix_(keep, keep)])
    del full
    v_half = system._half_order().det()
    err = abs(value - v_half) + abs(value - v_pad)
    pad = min(hi - lo for lo, hi in system.intervals)
    return DetResult(value=value, error_estimate=float(err),
                     order_used=system.order, pad_used=float(pad))


def _stop_if_diverging(res: DetResult, prev: DetResult | None,
                       order: int) -> None:
    """Raise ConvergenceError when refinement made the error estimate no
    smaller: more rounds would only grow the matrix."""
    if prev is not None and res.error_estimate >= prev.error_estimate:
        raise ConvergenceError(
            f"determinant refinement diverges: error estimate "
            f"{res.error_estimate:.3e} at order {order} is not below "
            f"{prev.error_estimate:.3e}; last value {res.value!r}",
            value=res.value, error_estimate=res.error_estimate)


def _extended_block_fn(kern: ExtendedKernelEval, indices):
    def block(i, j, x, y):
        return kern.block(indices[i], indices[j], x, y)
    return block


def rbm_probability(spec: KernelSpec, a, target: float = 1e-6,
                    order: int = 40, pad: float | None = None,
                    max_rounds: int = 4,
                    kern: ExtendedKernelEval | None = None) -> DetResult:
    """P(X_t(n_j) >= a_j for all j) as a Fredholm determinant.

    Each half-line (-inf, a_j] is truncated to [a_j - pad, a_j]; the
    conjugated kernel decays exponentially below the levels, so moderate
    pads converge.  Order doubles and the pad grows until the internal error
    estimate is below ``target``.  Raises ConvergenceError with the last
    value and estimate as soon as a round's estimate is not below the
    previous round's, or when ``max_rounds`` rounds do not reach ``target``.
    """
    a = [float(v) for v in np.atleast_1d(a)]
    if len(a) != len(spec.indices):
        raise ValueError("need one threshold per index")
    t = spec.t
    if pad is None:
        pad = 10.0 * math.sqrt(t) + (spec.ic.max_level - spec.ic.min_level)
    if kern is None:
        kern = kernel_eval(spec)
    # panels resolve the bulk oscillation of psi_n in the z variables
    max_panel = 1.5 * math.pi * math.sqrt(t / spec.n_max)
    splits = tuple(spec.ic.levels)
    # the kernel's mass lives between the lowest particle's reach and the
    # levels; a threshold far above it must not drag the window away
    reach = spec.ic.min_level - 2.0 * math.sqrt(spec.n_max * t)
    last_exc = None
    for round_ in range(max_rounds):
        intervals = tuple((min(aj, reach) - pad, aj) for aj in a)
        system = NystromSystem(intervals=intervals, order=order,
                               block_fn=_extended_block_fn(kern, spec.indices),
                               splits=splits, max_panel=max_panel,
                               pad_side="lower")
        res = fredholm_det(system, shrink=max(2.0, 0.1 * pad))
        if res.error_estimate < target:
            tol = 10.0 * max(res.error_estimate, 1e-14)
            if not (-tol <= res.value <= 1.0 + tol):
                raise ConvergenceError(
                    f"determinant {res.value} outside [0, 1] beyond "
                    f"tolerance {tol}", value=res.value,
                    error_estimate=res.error_estimate)
            return DetResult(res.value, res.error_estimate, order, pad)
        _stop_if_diverging(res, last_exc, order)
        order = 2 * order
        pad = pad + 3.0 * math.sqrt(t) + 2.0
        last_exc = res
    raise ConvergenceError(
        f"determinant refinement stalled at error "
        f"{last_exc.error_estimate:.3e} (target {target:.1e}); last value "
        f"{last_exc.value!r}", value=last_exc.value,
        error_estimate=last_exc.error_estimate)
