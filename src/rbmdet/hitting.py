"""Epigraph hitting law of the left-Exp[1] walk.

P(tau = l, B_tau in db) for the walk B_k = B_{k-1} - Exp(1) started at eta
and the curve c_k = X0(k+1).  Because the walk takes strictly negative steps,
hits can only occur at epoch 0 (an atom when eta >= c_0) or at block starts
of the curve, and between block starts the sub-density propagates freely.

Three mutually checking evaluations:

* ``hitting_law_exact``  - exact sweep; survivor densities are piecewise
  polynomials times exp(b - eta) and every propagation/split is polynomial
  algebra, so the only approximation is the final panel sampling.  An
  independent inclusion-exclusion evaluation of the same law is available as
  a cross-check mode.
* ``hitting_law_grid``   - one-step trapezoid recursion on a b-grid; works
  for any valid initial condition.
* ``hitting_law_mc``     - direct simulation, seeded and chunk-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import special
from .errors import ConvergenceError
from .initial_data import InitialCondition, StepProfile
from .quad import build_scheme
from .simulate import _philox


def q_exp_pow(m: int, x, y):
    """m-step transition density of the walk: e^{y-x} (x-y)^{m-1}/(m-1)! for
    x > y, else 0.  Vectorized; log-scale internally for large m, with log
    and exp taken on the entries x > y only."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d = np.subtract(x, y, dtype=float)
    pos = d > 0
    out = np.zeros(np.shape(d))
    np.log(d, out=out, where=pos)
    with np.errstate(invalid="ignore"):
        logv = out * (m - 1)
        logv -= d
        logv -= special.log_factorial(m - 1)
    np.exp(logv, out=out, where=pos)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# exact piecewise representation: density(b) = exp(b - eta) * P(b)
# ---------------------------------------------------------------------------


def _polyint(c):
    """Antiderivative of ascending coefficients c that vanishes at 0;
    bitwise ``npoly.polyint(c)`` (save that c = [0] gives [0, 0], not [0])
    at a tenth of its call cost."""
    out = np.empty(c.size + 1)
    out[0] = 0.0
    out[1:] = c / np.arange(1, c.size + 1)
    return out


def _polyder(c):
    """Derivative of ascending coefficients c; bitwise ``npoly.polyder(c)``
    (save the sign of a constant's zero derivative)."""
    if c.size == 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, c.size)


@dataclass
class _Piece:
    lo: float
    hi: float
    center: float
    coef: np.ndarray  # ascending coefficients of P(b - center)

    def eval_poly(self, b):
        return npoly.polyval(np.asarray(b, dtype=float) - self.center,
                             self.coef)

    def plain_mass(self) -> float:
        q = _polyint(self.coef)
        return float(npoly.polyval(self.hi - self.center, q)
                     - npoly.polyval(self.lo - self.center, q))

    def exp_mass(self, x0: float) -> float:
        """Integral of exp(b - x0) * P(b) over [lo, hi], exactly.

        Uses the antiderivative e^u * sum_j (-1)^j P^(j)(u).
        """
        acc = np.zeros_like(self.coef)
        d = self.coef.copy()
        sign = 1.0
        for _ in range(self.coef.size):
            acc[:d.size] += sign * d
            d = _polyder(d)
            sign = -sign
        upper = math.exp(self.hi - x0) * npoly.polyval(self.hi - self.center,
                                                       acc)
        lower = math.exp(self.lo - x0) * npoly.polyval(self.lo - self.center,
                                                       acc)
        return float(upper - lower)


def _propagate_one_step(pieces, cut, x0):
    """One Exp-step: f(b)=e^{b-x0}P(b) pieces -> new pieces on [cut, top].

    The exponential factors cancel inside the step integral, so the new
    polynomial on each old interval is (tail constant) - antiderivative, plus
    a constant bottom piece.  Returns (new_pieces, mass pushed below cut).
    """
    if not pieces:
        return [], 0.0
    masses = [p.plain_mass() for p in pieces]
    tails = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
    new = []
    for i, p in enumerate(pieces):
        q = _polyint(p.coef)
        const = float(npoly.polyval(p.hi - p.center, q)) + tails[i + 1]
        coef = -q
        coef[0] += const
        new.append(_Piece(p.lo, p.hi, p.center, coef))
    bottom_val = tails[0]
    lo0 = pieces[0].lo
    dead = math.exp(cut - x0) * bottom_val
    if lo0 - cut > 1e-13:
        new.insert(0, _Piece(cut, lo0, 0.5 * (cut + lo0),
                             np.array([bottom_val])))
    return new, dead


def _split_pieces(pieces, level):
    """(below, at-or-above) split of the pieces at ``level``."""
    below, above = [], []
    for p in pieces:
        if p.hi <= level:
            below.append(p)
        elif p.lo >= level:
            above.append(p)
        else:
            below.append(_Piece(p.lo, level, p.center, p.coef))
            above.append(_Piece(level, p.hi, p.center, p.coef))
    return below, above


# the longest free run whose coefficient 1/(m-1)! = 1/170! is a normal double
_MAX_FREE_RUN = 171


def _point_mass_spread(eta, m, cut):
    """Density of the walk after m free steps from eta: one piece on [cut,
    eta], centred at eta, where (eta - b)^{m-1}/(m-1)! is one monomial (it
    cancels about any other centre), and the mass already below cut.

    A piece holds plain coefficients, so a run longer than
    ``_MAX_FREE_RUN`` steps, whose 1/(m-1)! is below the normal double
    range, raises ConvergenceError."""
    if eta <= cut:
        return [], 1.0
    if m > _MAX_FREE_RUN:
        raise ConvergenceError(
            f"the exact hitting law from eta={eta!r} starts with a free run "
            f"of {m} steps; its coefficient 1/{m - 1}! is below the double "
            f"range, which holds runs of at most {_MAX_FREE_RUN} steps")
    base = np.zeros(m)
    base[-1] = (-1.0) ** (m - 1) / math.gamma(m)
    dead = special.gamma_q(m, eta - cut)
    return [_Piece(cut, eta, eta, base)], dead


@dataclass(frozen=True)
class LawComponent:
    """Sub-density of (tau = ell, B_tau in db), quadrature-ready; ``ell``
    is its key in ``HittingLaw.components``."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    mass: float
    stderr: float | None = None

    def integrate(self, f) -> float:
        return float(np.dot(self.weights * self.values, f(self.nodes)))


@dataclass(frozen=True)
class HittingLaw:
    """Sub-probability law of (tau, B_tau) up to a horizon.

    The epoch-0 atom (full mass at b = start, present iff start >= c_0) is
    stored exactly and never discretized.

    ``unhit_mass`` is the mass not hit within the horizon, so
    ``total_mass() + unhit_mass`` is 1 up to the method's error:

    * exact sweep: the mass that ends below the last level, where the
      sweep cuts, plus any mass still above it;
    * inclusion-exclusion: P(no hit), whose signed expansion is 1 minus the
      signed component masses, so the balance holds by construction; it is
      the agreement with the sweep's ``unhit_mass`` that checks it;
    * grid: the survivor's mass plus the mass below the grid bottom;
    * Monte Carlo: 1 minus the hit fraction.
    """

    start: float
    atom_mass: float
    components: dict = field(default_factory=dict)
    unhit_mass: float = 0.0

    def masses(self) -> dict:
        out = {ell: c.mass for ell, c in sorted(self.components.items())}
        if self.atom_mass:
            out = {0: self.atom_mass, **out}
        return out

    def total_mass(self) -> float:
        return self.atom_mass + sum(c.mass for c in self.components.values())

    def expectation(self, f) -> float:
        """E[f(tau, B_tau); tau < horizon]; f(ell, b) vectorized in b."""
        total = 0.0
        if self.atom_mass:
            total += self.atom_mass * float(
                np.asarray(f(0, np.asarray([self.start]))).ravel()[0])
        for ell, comp in self.components.items():
            total += comp.integrate(lambda b: f(ell, b))
        return total


# Gauss-Legendre nodes per panel on which an exact law is sampled
_LAW_ORDER = 20


def _pieces_to_component(pieces, x0, panel_max):
    """The hit pieces as a LawComponent, None at mass <= 0; a mass below
    -1e-12 has lost the law and raises ConvergenceError."""
    nodes, weights, values = [], [], []
    mass = 0.0
    for p in pieces:
        if p.hi - p.lo < 1e-13:
            continue
        mass += p.exp_mass(x0)
        sch = build_scheme(p.lo, p.hi, order=_LAW_ORDER, max_panel=panel_max)
        nodes.append(sch.nodes)
        weights.append(sch.weights)
        values.append(np.exp(sch.nodes - x0) * p.eval_poly(sch.nodes))
    if mass < -1e-12:
        raise ConvergenceError(
            f"exact hitting law from eta={x0!r} has a component of negative "
            f"mass {mass:.3e}", value=mass, error_estimate=abs(mass))
    if not nodes or mass <= 0:
        return None
    return LawComponent(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        values=np.concatenate(values),
        mass=mass,
    )


def hitting_law_exact(profile: StepProfile, eta: float, n_max: int,
                      panel_max: float = 2.0,
                      method: str = "sweep") -> HittingLaw:
    """Exact hitting law for a step profile, by the survive/hit sweep.

    ``method="inclusion_exclusion"`` evaluates every component independently
    through the signed free-propagation expansion instead; the two must agree
    to rounding and are compared in the test suite.  Each component is
    sampled on Gauss-Legendre panels of 20 nodes, at most ``panel_max`` wide.

    The sweep raises ConvergenceError when its masses are off balance,
    |total_mass() + unhit_mass - 1| > 1e-6, or a component's mass is below
    -1e-12; the expansion balances by construction.  A horizon past the end
    of finite data is a ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    last = profile.blocks[-1]
    if last.length is not None and n_max > last.start + last.length:
        raise ValueError(
            f"initial condition has {last.start + last.length} particles, "
            f"horizon {n_max} requested (construct with extend_last for "
            "step data)")
    blks = profile.blocks_within(n_max)
    if not blks:
        return HittingLaw(start=eta, atom_mass=0.0, unhit_mass=1.0)
    if blks[0].start == 0 and eta >= blks[0].level:
        return HittingLaw(start=eta, atom_mass=1.0)
    if method == "inclusion_exclusion":
        return _law_inclusion_exclusion(blks, eta, panel_max)
    if method != "sweep":
        raise ValueError(f"unknown method {method!r}")

    cut = blks[-1].level
    components = {}
    dead = 0.0
    pieces = None  # None: the state is still the point mass at eta
    prev_epoch = 0
    for blk in blks:
        m = blk.start - prev_epoch
        if pieces is None:
            if m == 0:
                # epoch-0 block with eta below its level: no hit, the state
                # remains the point mass
                prev_epoch = blk.start
                continue
            pieces, d = _point_mass_spread(eta, m, cut)
            dead += d
        else:
            for _ in range(m):
                pieces, d = _propagate_one_step(pieces, cut, eta)
                dead += d
        pieces, hit = _split_pieces(pieces, blk.level)
        comp = _pieces_to_component(hit, eta, panel_max)
        if comp is not None:
            components[blk.start] = comp
        prev_epoch = blk.start
    # a point mass never spread is unhit wherever it sits
    survivor = 1.0 if pieces is None else sum(p.exp_mass(eta) for p in pieces)
    law = HittingLaw(start=eta, atom_mass=0.0, components=components,
                     unhit_mass=dead + survivor)
    # pieces are centred at eta, so one d walk units below carries e^{d},
    # which the tail sums and exp_mass cancel: unit blocks balance to 1e-14
    # down to d = 80 and lose the law by d = 120
    balance = law.total_mass() + law.unhit_mass - 1.0
    if not abs(balance) <= 1e-6:
        raise ConvergenceError(
            f"exact hitting law from eta={eta!r} to horizon {n_max} is off "
            f"its mass balance by {balance:.3e}", value=law.total_mass(),
            error_estimate=abs(balance))
    return law


def _law_inclusion_exclusion(blks, eta, panel_max):
    """Signed expansion of the survival indicators:

    prod_i 1{B_{s_i} < L_i} = sum_S (-1)^{|S|} prod_{i in S} 1{B_{s_i} >= L_i}

    so each component is a signed sum of free propagations cut from above.
    The same expansion of P(no hit) has the empty subset for its 1 and,
    grouped by the last block, minus the component masses: that is the
    unhit mass (nothing survives above the last level, as in the sweep).
    """
    components = {}
    no_hit = 1.0
    levels = [b.level for b in blks]
    for j, blk in enumerate(blks):
        cut = blk.level
        if eta <= cut:
            continue
        sch = build_scheme(cut, eta, order=_LAW_ORDER, splits=levels,
                           max_panel=panel_max)
        nodes = sch.nodes
        acc = np.zeros_like(nodes)
        mass = 0.0
        earlier = blks[:j]
        for r in range(len(earlier) + 1):
            for subset in combinations(range(len(earlier)), r):
                sgn = -1.0 if r % 2 else 1.0
                picks = [earlier[i] for i in subset] + [blk]
                if picks[0].start == 0:
                    # point mass restricted at epoch 0; eta < level is
                    # guaranteed here, so the term vanishes
                    continue
                pieces = None
                prev = 0
                for p_blk in picks:
                    m = p_blk.start - prev
                    if pieces is None:
                        pieces, _ = _point_mass_spread(eta, m, cut)
                    else:
                        for _ in range(m):
                            pieces, _ = _propagate_one_step(pieces, cut, eta)
                    _, pieces = _split_pieces(pieces, p_blk.level)
                    prev = p_blk.start
                    if not pieces:
                        break
                if not pieces:
                    continue
                for p in pieces:
                    sel = (nodes >= p.lo) & (nodes <= p.hi)
                    acc[sel] += sgn * np.exp(nodes[sel] - eta) \
                        * p.eval_poly(nodes[sel])
                mass += sgn * sum(p.exp_mass(eta) for p in pieces)
        no_hit -= mass
        if mass > 1e-15:
            components[blk.start] = LawComponent(
                nodes=nodes, weights=sch.weights, values=acc, mass=mass)
    return HittingLaw(start=eta, atom_mass=0.0, components=components,
                      unhit_mass=no_hit)


# ---------------------------------------------------------------------------
# grid recursion
# ---------------------------------------------------------------------------

_GRID_PAD = 12.0   # depth of the b-grid below the lowest finite level


def default_grid(ic: InitialCondition, eta: float, n_max: int,
                 spacing: float = 1e-3) -> np.ndarray:
    """b-grid covering [lowest level - 12, max(levels, eta)], with every
    finite level and eta snapped onto the grid."""
    curve = ic.curve_array(n_max)
    finite = curve[np.isfinite(curve)]
    if finite.size == 0:
        raise ValueError("no finite level within the horizon")
    lo = float(finite.min()) - _GRID_PAD
    hi = max(float(finite.max()), eta)
    grid = np.arange(lo, hi + spacing, spacing)
    anchors = np.unique(np.append(finite, eta))
    # the anchor takes the place of its nearest node, so that no gap is
    # shorter than spacing / 2 unless two anchors are that close
    nearest = np.rint((anchors - lo) / spacing).astype(int)
    grid = np.delete(grid, np.clip(nearest, 0, grid.size - 1))
    return np.union1d(grid, anchors)


def _trap_weights(y, i_lo, i_hi):
    """Trapezoid weights on the subgrid y[i_lo..i_hi] (zero elsewhere)."""
    w = np.zeros_like(y)
    if i_hi <= i_lo:
        return w
    h = np.diff(y[i_lo:i_hi + 1])
    w[i_lo] = h[0] / 2
    w[i_hi] = h[-1] / 2
    if i_hi - i_lo > 1:
        w[i_lo + 1:i_hi] = (h[:-1] + h[1:]) / 2
    return w


def hitting_law_grid(ic: InitialCondition, eta: float,
                     b_grid: np.ndarray, n_max: int) -> HittingLaw:
    """Forward one-step recursion of the survivor sub-density on a grid.

    Trapezoid quadrature; at every epoch the part at or above the curve is
    recorded as that epoch's component and removed.  Mass unaccounted for at
    the end (grid too coarse or too short) beyond 10 h^2, for the widest
    gap h, raises with the leaked amount.  That bound sits above the
    trapezoid's second-order error and below any first-order fault such as
    a level or eta falling between nodes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    y = np.asarray(b_grid, dtype=float)
    if y.ndim != 1 or y.size < 3 or np.any(np.diff(y) <= 0):
        raise ValueError("b_grid must be a strictly increasing 1-D grid")
    curve = ic.curve_array(n_max)
    if math.isfinite(curve[0]) and eta >= curve[0]:
        return HittingLaw(start=eta, atom_mass=1.0)
    finite = curve[np.isfinite(curve)]
    if finite.size and y[0] > finite.min() - 1e-12:
        raise ValueError("grid does not cover the lowest level")
    if y[-1] < eta - 1e-12:
        raise ValueError("grid does not reach the starting point")

    h = np.diff(y)
    leak_tol = 10.0 * float(h.max()) ** 2
    dead = 0.0
    components = {}
    # analytic first step from the point mass at eta
    top = int(np.argmin(np.abs(y - eta)))
    p = np.where(y <= y[top], np.exp(y - eta), 0.0)
    p[top + 1:] = 0.0
    dead += math.exp(y[0] - eta)

    def propagate(p, top):
        # C(y_i) = int_{y_i}^{y_top} p e^{eta - x} dx, then p' = e^{y-eta} C
        g = p * np.exp(eta - y)
        seg = 0.5 * (g[:-1] + g[1:]) * h
        seg[top:] = 0.0
        C = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        return np.exp(y - eta) * C, math.exp(y[0] - eta) * C[0]

    for k in range(1, n_max):
        if k >= 2:
            p, leaked = propagate(p, top)
            dead += leaked
        ck = curve[k]
        if math.isfinite(ck):
            idx = int(np.argmin(np.abs(y - ck)))
            w_above = _trap_weights(y, idx, top)
            mass = float(np.dot(w_above, p))
            if mass > 0:
                vals = p.copy()
                vals[:idx] = 0.0
                components[k] = LawComponent(
                    nodes=y.copy(), weights=w_above, values=vals, mass=mass)
            p = p.copy()
            p[idx + 1:] = 0.0
            # the walk only steps down, so the support never grows back
            # above a level that lies over it
            top = min(top, idx)
    survivor = float(np.dot(_trap_weights(y, 0, top), p))
    total = survivor + dead + sum(c.mass for c in components.values())
    leak = abs(1.0 - total)
    if leak > leak_tol:
        raise ValueError(f"grid hitting law leaks mass {leak:.3e} "
                         f"(> {leak_tol:.1e}); refine or extend the grid")
    return HittingLaw(start=eta, atom_mass=0.0, components=components,
                      unhit_mass=survivor + dead)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 15   # paths per chunk; chunk c uses the stream (seed, c)
_MC_BINS = 64         # histogram bins per epoch


def hitting_law_mc(ic: InitialCondition, eta: float, n_max: int,
                   paths: int, seed: int) -> HittingLaw:
    """Monte Carlo estimate of the hitting law with per-epoch standard errors.

    Deterministic in ``seed``: chunk c always consumes the stream derived
    from (seed, c), independent of scheduling.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    curve = ic.curve_array(n_max)
    if math.isfinite(curve[0]) and eta >= curve[0]:
        return HittingLaw(start=eta, atom_mass=1.0)
    if n_max == 1:
        return HittingLaw(start=eta, atom_mass=0.0, unhit_mass=1.0)

    taus = []
    bs = []
    done = 0
    chunk_idx = 0
    while done < paths:
        size = min(_MC_CHUNK, paths - done)
        rng = _philox(seed, chunk_idx)
        steps = rng.exponential(scale=1.0, size=(size, n_max - 1))
        b = eta - np.cumsum(steps, axis=1)  # b[:, k-1] = B_k
        hit = b >= curve[None, 1:]
        any_hit = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        taus.append((first + 1)[any_hit])
        bs.append(b[np.arange(size)[any_hit], first[any_hit]])
        done += size
        chunk_idx += 1
    taus = np.concatenate(taus) if taus else np.empty(0, dtype=int)
    bs = np.concatenate(bs) if bs else np.empty(0)

    components = {}
    for ell in np.unique(taus):
        sel = taus == ell
        n_ell = int(sel.sum())
        p_ell = n_ell / paths
        se = math.sqrt(max(p_ell * (1 - p_ell), 1.0 / paths) / paths)
        level = curve[ell]
        top = max(float(bs[sel].max()), level + 1e-9)
        edges = np.linspace(level, top, _MC_BINS + 1)
        counts, _ = np.histogram(bs[sel], bins=edges)
        widths = np.diff(edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        density = counts / (paths * widths)
        components[int(ell)] = LawComponent(
            nodes=centers, weights=widths, values=density, mass=p_ell,
            stderr=se)
    hit_mass = sum(c.mass for c in components.values())
    return HittingLaw(start=eta, atom_mass=0.0, components=components,
                      unhit_mass=1.0 - hit_mass)

