"""Extended kernel of the particle system in three equivalent representations.

Building blocks (log-scale internally):

    S(t, n; z1, z2)    = e^{z1-z2} psi_n(t, z1-z2)
    Sbar(t, n; z1, z2) = e^{z2-z1} psibar_{n-1}(t, z1-z2)
    Sbar_epi(z1, z2)   = E_{B_0=z1}[ Sbar(t, n-tau; B_tau, z2) ; tau < n ]

Full kernel between index lines (n_i, n_j), conjugated form (the default for
quadrature; the plain form differs by e^{z_i-z_j} and gives the same
determinants):

    Kt(n_i, z_i; n_j, z_j) = -Q_exp^{n_j-n_i}(z_i, z_j) 1{n_i < n_j}
                             + int deta S(t, n_i; eta, z_i) Sbar_epi(eta, z_j)

Representations of the second term:

* ``hitting``      - the defining double integral; the epoch-0 atom of the
  hitting law is exact, so it contributes a single 1-D integral, and the
  density components contribute tensorized panel quadratures.
* ``biorth``       - sum_{k=1}^{n_j} Psi^{n_i}_{n_i-k}(z_i) Phi^{n_j}_{n_j-k}(z_j)
  with exact polynomial Phi's (finite levels, moderate n only).
* ``operator_step``- inclusion-exclusion over block subsets,
  (S)* chi Q^... chi ... Sbar, quadrature-discretized; scalable for step data.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import biorth as _bo
from . import special
from .hitting import hitting_law_exact, q_exp_pow
from .initial_data import InitialCondition, blocks
from .quad import Scheme, _gl_rule, build_scheme

REPRESENTATIONS = ("hitting", "biorth", "operator_step")


@lru_cache(maxsize=32)
def _bary_ref(order: int):
    """Reference Gauss-Legendre nodes and barycentric weights."""
    x, _ = _gl_rule(order)
    lam = np.empty(order)
    for i in range(order):
        lam[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    lam /= np.max(np.abs(lam))
    return x, lam


def _bary_eval_matrix(u, refx, lam):
    """Row-stochastic interpolation matrix from reference nodes to points u."""
    diff = u[:, None] - refx[None, :]
    hit = np.abs(diff) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        w = lam[None, :] / diff
        r = w / np.sum(w, axis=1, keepdims=True)
    rows = hit.any(axis=1)
    if np.any(rows):
        r[rows] = hit[rows].astype(float)
    return r


def _volterra_leg_matrix(m: int, src: Scheme, tgt: np.ndarray) -> np.ndarray:
    """Matrix T with (T f)(y) = int_{max(y, lo)}^{hi} f(x) Q_exp^m(x, y) dx
    for f sampled on the composite nodes of ``src``.

    The moving lower limit (the walk kernel vanishes for x <= y) is handled
    by re-panelling each target's integral at y, with f recovered inside
    panels by barycentric interpolation; smooth f keeps spectral accuracy.
    """
    order = src.order
    refx, lam = _bary_ref(order)
    glx, glw = _gl_rule(order)
    edges = src.edges[0]
    T = np.zeros((tgt.size, src.nodes.size))
    for j, y in enumerate(tgt):
        for p in range(len(edges) - 1):
            a, b = edges[p], edges[p + 1]
            if b <= y:
                continue
            lo = max(a, y)
            if b - lo < 1e-14:
                continue
            half = 0.5 * (b - lo)
            xs = 0.5 * (b + lo) + half * glx
            q = q_exp_pow(m, xs, y)
            u = (2.0 * xs - (a + b)) / (b - a)
            r = _bary_eval_matrix(u, refx, lam)
            T[j, p * order:(p + 1) * order] += (half * glw * q) @ r
    return T


def s_ops(kind: str, t: float, n: int, z1, z2):
    """S (kind="S", n >= 0) or Sbar (kind="Sbar", n >= 1) at (z1, z2),
    vectorized, computed through the log-scale psi forms."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    x = z1 - z2
    if kind == "S":
        if n < 0:
            raise ValueError("kind='S' requires n >= 0")
        la, sg = special.psi_log(n, t, x)
        out = sg * np.exp(la + x)
    elif kind == "Sbar":
        if n < 1:
            raise ValueError("kind='Sbar' requires n >= 1")
        la, sg = special.psibar_log(n - 1, t, x)
        out = sg * np.exp(la - x)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def sbar_epi(ic: InitialCondition, t: float, n: int, z1: float, z2) -> float:
    """E_{B_0=z1}[Sbar(t, n - tau; B_tau, z2); tau < n], via the exact
    hitting law (atom handled exactly)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    law = hitting_law_exact(blocks(ic), z1, n)
    return law.expectation(lambda ell, b: s_ops("Sbar", t, n - ell, b, z2))


@dataclass(frozen=True)
class KernelSpec:
    """What to evaluate: time, index lines, data, representation, gauge."""

    t: float
    indices: tuple
    ic: InitialCondition
    representation: str = "hitting"
    conjugated: bool = True

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be > 0")
        idx = tuple(int(n) for n in self.indices)
        if not idx or any(n < 1 for n in idx) or \
                any(b <= a for a, b in zip(idx[:-1], idx[1:])):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", idx)
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.representation == "biorth":
            if self.ic.n_inf > 0:
                raise ValueError("biorth representation requires finite "
                                 "levels; use hitting or operator_step")
            max(self.ic.level(i) for i in range(1, max(idx) + 1))  # must exist

    @property
    def n_max(self) -> int:
        return max(self.indices)


class ExtendedKernelEval:
    """Callable kernel ((n_i, z_i), (n_j, z_j)) -> float with a vectorized
    ``block`` entry point for quadrature assembly.

    Pure and safe for concurrent evaluation; the discretization backing the
    hitting/operator_step representations is (re)built lazily under a lock
    whenever the requested z-range outgrows the current one.

    In the hitting representation a block factors as A(n_i, z_i)^T
    B(n_j, z_j) minus the walk term: A holds the weighted S factors on the
    eta nodes, B the Sbar factors with the per-epoch scatters of the hitting
    law summed into one matrix.  Both depend on one index line only, so a
    Nystrom assembly computes each once per line and node set.  The memo
    keeps one factor per (side, line), replaced whenever its nodes change
    and emptied whenever the discretization is rebuilt; it is read and
    written under the lock.  In an assembly, which asks for both sides of
    every line on one node set, a line missing from the memo on both sides
    gets both filled from one pass: S_n and Sbar_n on the atom nodes share
    an argument, and one Hermite recurrence to degree n yields both.
    """

    def __init__(self, spec: KernelSpec, eta_order: int = 16,
                 b_order: int = 20, b_panel: float = 2.0):
        self.spec = spec
        self.eta_order = eta_order
        self.b_order = b_order
        self.b_panel = b_panel
        self._lock = threading.Lock()
        self._state = None
        self._hull = None
        self._evals = 0
        self._opstep_cache = {}
        self._factors = {}
        self._profile = blocks(spec.ic)
        t, n_max = spec.t, spec.n_max
        # oscillation scales of psi_n: bulk wavelength and edge (Airy) width
        self._bulk_wave = math.pi * math.sqrt(t / n_max)
        self._airy_w = math.sqrt(t) * max(n_max, 1) ** (-1.0 / 6.0)
        self._reach = 2.0 * math.sqrt(n_max * t) + 12.0 * self._airy_w + 5.0
        if spec.representation == "biorth":
            self._phi_tables = {
                nj: [_bo.phi_n_k(spec.ic, _bo.h_family(spec.ic, nj), k, t)
                     for k in range(nj)]
                for nj in spec.indices
            }

    @property
    def evaluations(self) -> int:
        return self._evals

    # -- public evaluation ------------------------------------------------

    def __call__(self, a, b) -> float:
        (ni, zi), (nj, zj) = a, b
        return float(self.block(int(ni), int(nj),
                                np.asarray([float(zi)]),
                                np.asarray([float(zj)]))[0, 0])

    def block(self, ni: int, nj: int, zi, zj) -> np.ndarray:
        """Kernel matrix on zi x zj for the index pair (ni, nj)."""
        if ni not in self.spec.indices or nj not in self.spec.indices:
            raise ValueError(f"index pair ({ni}, {nj}) not in spec")
        zi = np.atleast_1d(np.asarray(zi, dtype=float))
        zj = np.atleast_1d(np.asarray(zj, dtype=float))
        with self._lock:
            self._evals += zi.size * zj.size
        rep = self.spec.representation
        if rep == "hitting":
            st = self._st_hitting(ni, nj, zi, zj)  # conjugated gauge
            native_conj = True
        elif rep == "operator_step":
            st = self._st_operator_step(ni, nj, zi, zj)
            native_conj = True
        else:
            st = self._st_biorth(ni, nj, zi, zj)   # plain gauge
            native_conj = False
        if self.spec.conjugated and not native_conj:
            st = st * np.exp(zj[None, :] - zi[:, None])
        elif not self.spec.conjugated and native_conj:
            st = st * np.exp(zi[:, None] - zj[None, :])
        out = st
        if ni < nj:
            m = nj - ni
            if self.spec.conjugated:
                out = out - q_exp_pow(m, zi[:, None], zj[None, :])
            else:
                out = out - _bo.pinv_delta(m, zi[:, None], zj[None, :])
        return out

    # -- discretization backing the hitting representation ----------------

    def _ensure(self, z_lo: float, z_hi: float):
        with self._lock:
            if self._hull is not None and z_lo >= self._hull[0] \
                    and z_hi <= self._hull[1]:
                return self._state
            lo = min(z_lo, self._hull[0] if self._hull else z_lo)
            hi = max(z_hi, self._hull[1] if self._hull else z_hi)
            self._state = self._build(lo, hi)
            self._hull = (lo, hi)
            self._factors.clear()
            return self._state

    def _build(self, z_lo: float, z_hi: float):
        spec = self.spec
        profile = self._profile
        t, n_max = spec.t, spec.n_max
        blks = profile.blocks_within(n_max)
        c0 = spec.ic.curve(0)
        upper = z_hi + self._reach
        panel = max(1.5 * self._bulk_wave, 1e-3)
        splits = [b.level for b in blks] + ([c0] if math.isfinite(c0) else [])
        state = {"atom": None, "law": None}
        if math.isfinite(c0) and upper > c0:
            sch = build_scheme([(c0, upper)], order=self.eta_order,
                               splits=splits, max_panel=panel)
            state["atom"] = (sch.nodes, sch.weights)
        if blks:
            law_lo = blks[-1].level
            law_hi = min(c0, upper)
            if law_hi > law_lo:
                sch = build_scheme([(law_lo, law_hi)], order=self.eta_order,
                                   splits=splits, max_panel=panel)
                laws = [hitting_law_exact(profile, float(e), n_max,
                                          order=self.b_order,
                                          panel_max=min(self.b_panel,
                                                        4 * self._airy_w))
                        for e in sch.nodes]
                # flatten components per block start for vectorized reduction
                per_block = {}
                for a, law in enumerate(laws):
                    for ell, comp in law.components.items():
                        per_block.setdefault(ell, []).append(
                            (a, comp.nodes, comp.weights * comp.values))
                packed = {}
                for ell, items in per_block.items():
                    src = np.concatenate([np.full(n.size, a) for a, n, _ in items])
                    nodes = np.concatenate([n for _, n, _ in items])
                    wv = np.concatenate([w for _, _, w in items])
                    packed[ell] = (src.astype(int), nodes, wv)
                state["law"] = (sch.nodes, sch.weights, packed)
        return state

    def _s_matrix(self, n, eta, z):
        """S(t, n; eta, z) on eta x z.

        Negative n is the smoothed kernel obtained by collapsing walk
        transition powers into the S index, (S_n)* Q^l = (S_{n-l})*, which
        for l > n turns the heat derivative into a repeated Gaussian
        integral.
        """
        t = self.spec.t
        x = eta[:, None] - z[None, :]
        if n >= 0:
            la, sg = special.psi_log(n, t, x)
            return sg * np.exp(la + x)
        m = -n
        j = _bo.gauss_repeated_integral(m, -x / math.sqrt(t))
        return np.exp(x) * t ** ((m - 1) / 2.0) * j

    def _sbar_vec(self, n, b, z):
        """Sbar(t, n; b, z) on b x z."""
        x = b[:, None] - z[None, :]
        la, sg = special.psibar_log(n - 1, self.spec.t, x)
        return sg * np.exp(la - x)

    def _s_sbar(self, n, eta, z):
        """S(t, n; eta, z) and Sbar(t, n; eta, z) on eta x z, n >= 1, from
        one recurrence; bitwise equal to ``_s_matrix`` and ``_sbar_vec``."""
        x = eta[:, None] - z[None, :]
        (la, sg), (lb, sb) = special.psi_psibar_log(n, self.spec.t, x)
        return sg * np.exp(la + x), sb * np.exp(lb - x)

    def _st_hitting(self, ni, nj, zi, zj):
        state = self._ensure(float(min(zi.min(), zj.min())),
                             float(max(zi.max(), zj.max())))
        # an assembly asks for both sides of every line on the same nodes;
        # a point evaluation (the scalar __call__), or one line asked for on
        # two node sets, builds only the side it asks for
        whole = zi.size * zj.size > 1 and (ni != nj
                                           or np.array_equal(zi, zj))
        a = self._factor("row", ni, zi, state, whole)
        b = self._factor("col", nj, zj, state, whole)
        return a.T @ b

    def _factor(self, side, n, z, state, whole):
        """Memoized A (side "row") or B (side "col") factor of line n on
        nodes z under the discretization ``state``.  With ``whole``, a line
        whose other side is not memoized for (state, z) either gets both
        sides built in one pass, and both are stored."""
        other = "col" if side == "row" else "row"
        with self._lock:
            hit = self._factors.get((side, n))
            twin = self._factors.get((other, n))

        def fresh(entry):
            return entry is not None and entry[0] is state \
                and np.array_equal(entry[1], z)

        if fresh(hit):
            return hit[2]
        sides = (side, other) if whole and not fresh(twin) else (side,)
        built = self._line_factors(n, z, state, sides)
        with self._lock:
            if state is self._state:   # never keep a superseded build alive
                z_key = z.copy()
                for s, out in built.items():
                    self._factors[(s, n)] = (state, z_key, out)
        return built[side]

    def _line_factors(self, n, z, state, sides):
        """{side: factor} of line n on nodes z, for sides in ("row", "col").

        A ("row") is the weighted S(t, n; eta, z) on the atom and law eta
        nodes.  B ("col") is Sbar(t, n; eta, z) on the atom nodes, then the
        hitting-law expectation of Sbar(t, n - ell; b, z) on the law eta
        nodes, every epoch ell < n scattered into one matrix.  With both
        sides, S and Sbar on the atom nodes come from one recurrence.
        """
        parts = {side: [np.empty((0, z.size))] for side in sides}
        rows, cols = parts.get("row"), parts.get("col")
        if state["atom"] is not None:
            nodes, w = state["atom"]
            if rows is not None and cols is not None:
                s, sbar = self._s_sbar(n, nodes, z)
                rows.append(s * w[:, None])
                cols.append(sbar)
            elif rows is not None:
                rows.append(self._s_matrix(n, nodes, z) * w[:, None])
            else:
                cols.append(self._sbar_vec(n, nodes, z))
        if state["law"] is not None:
            eta, w_eta, packed = state["law"]
            if rows is not None:
                rows.append(self._s_matrix(n, eta, z) * w_eta[:, None])
            if cols is not None:
                g = np.zeros((eta.size, z.size))
                for ell, (src, bnodes, wv) in packed.items():
                    if ell < n:
                        sb = self._sbar_vec(n - ell, bnodes, z) * wv[:, None]
                        np.add.at(g, src, sb)
                cols.append(g)
        return {side: np.concatenate(p) for side, p in parts.items()}

    # -- operator-factorized representation --------------------------------

    def _st_operator_step(self, ni, nj, zi, zj):
        self._ensure(float(min(zi.min(), zj.min())),
                     float(max(zi.max(), zj.max())))
        spec = self.spec
        blks = self._profile.blocks_within(spec.n_max)
        out = np.zeros((zi.size, zj.size))
        idx_all = list(range(len(blks)))
        for k in range(1, len(blks) + 1):
            sign = 1.0 if (k + 1) % 2 == 0 else -1.0
            for picks in combinations(idx_all, k):
                last = blks[picks[-1]]
                if last.start >= nj:
                    continue
                term = self._opstep_term(ni, nj, zi, zj,
                                         tuple(blks[p] for p in picks))
                out += sign * term
        return out

    def _opstep_chain(self, picks):
        """Cached quadrature schemes and Volterra leg matrices for one
        inclusion-exclusion product; keyed by the current z hull."""
        key = (tuple(b.start for b in picks), self._hull)
        cached = self._opstep_cache.get(key)
        if cached is not None:
            return cached
        blks = self._profile.blocks_within(self.spec.n_max)
        upper = self._hull[1] + self._reach
        panel = max(1.5 * self._bulk_wave, 1e-3)
        levels = [b.level for b in blks]
        schemes = []
        for blk in picks:
            if upper <= blk.level:
                schemes = None
                break
            schemes.append(build_scheme([(blk.level, upper)],
                                        order=self.eta_order, splits=levels,
                                        max_panel=panel))
        legs = None
        if schemes is not None:
            legs = [
                _volterra_leg_matrix(picks[r].start - picks[r - 1].start,
                                     schemes[r - 1], schemes[r].nodes)
                for r in range(1, len(picks))
            ]
        with self._lock:
            self._opstep_cache[key] = (schemes, legs)
        return schemes, legs

    def _opstep_term(self, ni, nj, zi, zj, picks):
        schemes, legs = self._opstep_chain(picks)
        if schemes is None:
            return np.zeros((zi.size, zj.size))
        # left factor with all leading walk powers collapsed into the index
        carry = self._s_matrix(ni - picks[0].start, schemes[0].nodes, zi)
        for leg in legs:
            carry = leg @ carry                       # (v_r, zi)
        sb = self._sbar_vec(nj - picks[-1].start, schemes[-1].nodes, zj)
        wk = schemes[-1].weights
        return (carry * wk[:, None]).T @ sb

    # -- biorthogonal representation ---------------------------------------

    def _st_biorth(self, ni, nj, zi, zj):
        spec = self.spec
        t = spec.t
        psi = np.empty((nj, zi.size))
        phi = np.empty((nj, zj.size))
        phis = self._phi_tables[nj]
        for k in range(1, nj + 1):
            psi[k - 1] = _bo.psi_n_k(spec.ic, ni, ni - k, t, zi)
            phi[k - 1] = phis[nj - k](zj)
        return psi.T @ phi


def kernel_eval(spec: KernelSpec, **kw) -> ExtendedKernelEval:
    """Build the kernel evaluator for a spec."""
    return ExtendedKernelEval(spec, **kw)
