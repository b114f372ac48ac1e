"""Extended kernel of the particle system in three equivalent representations.

Building blocks (log-scale internally):

    S(t, n; z1, z2)    = e^{z1-z2} psi_n(t, z1-z2)
    Sbar(t, n; z1, z2) = e^{z2-z1} psibar_{n-1}(t, z1-z2)
    Sbar_epi(z1, z2)   = E_{B_0=z1}[ Sbar(t, n-tau; B_tau, z2) ; tau < n ]

Full kernel between index lines (n_i, n_j), in the conjugated gauge
(multiplied by e^{z_j-z_i}, which leaves determinants unchanged):

    Kt(n_i, z_i; n_j, z_j) = -Q_exp^{n_j-n_i}(z_i, z_j) 1{n_i < n_j}
                             + int deta S(t, n_i; eta, z_i) Sbar_epi(eta, z_j)

Every representation writes the second term as a product A_i^T B_j through
a layer on which each factor depends on one index line only:

* ``hitting``      - the defining double integral; the layer is the eta
  nodes.  The epoch-0 atom of the hitting law is exact, so it contributes
  a single 1-D integral, and the density components contribute tensorized
  panel quadratures.
* ``biorth``       - sum_{k=1}^{n_j} Psi^{n_i}_{n_i-k}(z_i) Phi^{n_j}_{n_j-k}(z_j)
  e^{z_j-z_i} with exact polynomial Phi's (finite levels, moderate n only);
  the layer is the index k = 1..n_max.
* ``operator_step``- inclusion-exclusion over block subsets,
  (S)* chi Q^... chi ... Sbar, quadrature-discretized; the layer is every
  block's eta nodes.  The signed chains ending at block k sum to
  C_k = S_{n_i-s_k} - sum_{j<k} Leg_{jk} C_j, so L blocks cost L carries
  and L(L-1)/2 legs where there were 2^L - 1 chains; practical as a
  cross-check of ``hitting`` on step data.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

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
    Targets at or below a panel's lower edge need no re-panelling: they
    share the panel's own nodes and are done in one vectorized pass.
    """
    order = src.order
    refx, lam = _bary_ref(order)
    glx, glw = _gl_rule(order)
    edges = src.edges[0]
    T = np.zeros((tgt.size, src.nodes.size))
    for p in range(len(edges) - 1):
        a, b = edges[p], edges[p + 1]
        cols = slice(p * order, (p + 1) * order)
        below = tgt <= a
        if np.any(below):
            half = 0.5 * (b - a)
            xs = 0.5 * (b + a) + half * glx
            q = q_exp_pow(m, xs[None, :], tgt[below, None])
            r = _bary_eval_matrix((2.0 * xs - (a + b)) / (b - a), refx, lam)
            T[below, cols] = (half * glw * q) @ r
        for j in np.flatnonzero((tgt > a) & (tgt < b)):
            lo = tgt[j]
            if b - lo < 1e-14:
                continue
            half = 0.5 * (b - lo)
            xs = 0.5 * (b + lo) + half * glx
            q = q_exp_pow(m, xs, lo)
            u = (2.0 * xs - (a + b)) / (b - a)
            r = _bary_eval_matrix(u, refx, lam)
            T[j, cols] = (half * glw * q) @ r
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
    """What to evaluate: time, index lines, data, representation."""

    t: float
    indices: tuple
    ic: InitialCondition
    representation: str = "hitting"

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


# quadrature of the eta layer (order) and of the hitting laws on it
# (order, largest panel)
_ETA_ORDER = 16
_B_ORDER = 20
_B_PANEL = 2.0


class ExtendedKernelEval:
    """Callable kernel ((n_i, z_i), (n_j, z_j)) -> float with vectorized
    entry points: ``block`` for one pair of index lines and ``matrix`` for a
    whole Nystrom assembly.

    Pure and safe for concurrent evaluation; the discretization backing the
    hitting/operator_step representations is (re)built under a lock
    whenever the requested nodes reach above its upper end (nothing in it
    depends on the lower end).  Its hitting-law layer (the eta nodes, their
    laws, and per epoch the distinct law nodes with a sparse weight matrix)
    depends only on min(c0, upper end); it is built under the same lock,
    never changed afterwards, and kept for every rebuild that leaves that
    top where it was.

    In every representation a block is A(n_i, z_i)^T B(n_j, z_j) minus
    the walk term, with A and B from ``_line_factors``.  Both depend on
    one index line only, so ``factors`` builds (A, B) once per line, under
    one discretization for the whole assembly, and keeps no factor after
    the call; ``block`` builds line i's A and line j's B only.  A
    determinant needs no N x N matrix from the factors (see ``fredholm``);
    ``matrix`` multiplies them out.  S_n and Sbar_n on a line's atom nodes
    share an argument and come from one Hermite recurrence to degree n.
    """

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self._state = None
        self._z_hi = None
        self._law = None
        self._evals = 0
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
        self._count(zi.size * zj.size)
        state = self._discretization((zi, zj))
        a, _ = self._line_factors(ni, zi, state, col=False)
        _, b = self._line_factors(nj, zj, state, row=False)
        out = a[:len(b)].T @ b
        if ni < nj:
            out = out - q_exp_pow(nj - ni, zi[:, None], zj[None, :])
        return out

    def matrix(self, zs) -> np.ndarray:
        """Kernel on the concatenation of ``zs``, one node array per index
        line of the spec in order; each block is what ``block`` gives."""
        facs, walk = self.factors(zs)
        offs = np.cumsum([0] + [a.shape[1] for a, _ in facs])
        out = np.empty((offs[-1], offs[-1]))
        for i, (a, _) in enumerate(facs):
            for j, (_, b) in enumerate(facs):
                out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                    a[:len(b)].T @ b - walk.get((i, j), 0.0)
        return out

    def factors(self, zs):
        """The kernel on the concatenation of ``zs`` in factored form.

        Returns ([(A_1, B_1), ...], walk) with one factor pair per index
        line and walk[i, j] = Q_exp^{n_j-n_i}(z_i, z_j) for i < j.  Every
        A_i is m x N_i on the representation's layer (``_line_factors``)
        and B_j holds its first m_j <= m rows, so that block (i, j) of
        ``matrix(zs)`` is A_i[:m_j]^T B_j - walk[i, j] (no walk term for
        i >= j).  m_j < m only for operator_step.
        """
        idx = self.spec.indices
        zs = [np.atleast_1d(np.asarray(z, dtype=float)) for z in zs]
        if len(zs) != len(idx):
            raise ValueError(f"need {len(idx)} node arrays, got {len(zs)}")
        # one assembly counts as N^2 kernel evaluations
        self._count(sum(z.size for z in zs) ** 2)
        state = self._discretization(zs)
        facs = [self._line_factors(n, z, state) for n, z in zip(idx, zs)]
        walk = {(i, j): q_exp_pow(idx[j] - idx[i], zs[i][:, None],
                                  zs[j][None, :])
                for j in range(len(idx)) for i in range(j)}
        return facs, walk

    def _count(self, entries: int):
        with self._lock:
            self._evals += entries

    # -- discretization backing the hitting representation ----------------

    def _discretization(self, zs):
        """The discretization serving every node array in ``zs`` (None for
        the biorthogonal representation, which needs none)."""
        if self.spec.representation == "biorth":
            return None
        return self._ensure(max(float(z.max()) for z in zs))

    def _ensure(self, z_hi: float):
        with self._lock:
            if self._z_hi is None or z_hi > self._z_hi:
                self._state = self._build(z_hi)
                self._z_hi = z_hi
            return self._state

    def _build(self, z_hi: float):
        spec = self.spec
        blks = self._profile.blocks_within(spec.n_max)
        c0 = spec.ic.curve(0)
        upper = z_hi + self._reach
        panel = max(1.5 * self._bulk_wave, 1e-3)
        levels = [b.level for b in blks]
        splits = levels + ([c0] if math.isfinite(c0) else [])
        state = {"atom": None, "law": None}
        if spec.representation == "operator_step":
            # one eta scheme per block (None above upper) and one Volterra
            # leg per block pair; a rebuild replaces them all
            schemes = [build_scheme([(b.level, upper)], order=_ETA_ORDER,
                                    splits=levels, max_panel=panel)
                       if upper > b.level else None for b in blks]
            legs = {(j, k): _volterra_leg_matrix(
                        blks[k].start - blks[j].start, schemes[j],
                        schemes[k].nodes)
                    for k in range(len(blks)) for j in range(k)
                    if schemes[j] is not None and schemes[k] is not None}
            state["chains"] = (schemes, legs)
            return state
        if math.isfinite(c0) and upper > c0:
            sch = build_scheme([(c0, upper)], order=_ETA_ORDER,
                               splits=splits, max_panel=panel)
            state["atom"] = (sch.nodes, sch.weights)
        law_hi = min(c0, upper)
        if blks and law_hi > blks[-1].level:
            # runs under the lock; a layer is never changed once built
            if self._law is None or self._law[0] != law_hi:
                self._law = (law_hi, self._law_layer(blks[-1].level, law_hi,
                                                     splits, panel))
            state["law"] = self._law[1]
        return state

    def _law_layer(self, law_lo, law_hi, splits, panel):
        """The eta nodes and weights on [law_lo, law_hi] and, per epoch ell,
        the distinct hitting-law nodes u with the sparse matrix W (eta x u)
        of weighted law densities, so that the law expectation of f(ell, b)
        at every eta is sum_ell W_ell @ f(ell, u).

        Nothing here depends on the upper end beyond law_hi, so a rebuild
        that leaves law_hi unchanged reuses the layer.
        """
        # imported here, not at the top: only data with a block below c0
        # build a law layer, and the import costs every other process
        # about 1.6 MB of peak memory
        from scipy.sparse import csr_matrix

        sch = build_scheme([(law_lo, law_hi)], order=_ETA_ORDER,
                           splits=splits, max_panel=panel)
        per_block = {}
        for a, e in enumerate(sch.nodes):
            law = hitting_law_exact(self._profile, float(e), self.spec.n_max,
                                    order=_B_ORDER,
                                    panel_max=min(_B_PANEL, 4 * self._airy_w))
            for ell, comp in law.components.items():
                per_block.setdefault(ell, []).append(
                    (np.full(comp.nodes.size, a), comp.nodes,
                     comp.weights * comp.values))
        epochs = {}
        for ell, items in per_block.items():
            src, nodes, wv = (np.concatenate(v) for v in zip(*items))
            # the law nodes of every eta above a block coincide: evaluate
            # Sbar once per distinct node
            u, inv = np.unique(nodes, return_inverse=True)
            epochs[ell] = (u, csr_matrix((wv, (src, inv)),
                                         shape=(sch.nodes.size, u.size)))
        return sch.nodes, sch.weights, epochs

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

    def _line_factors(self, n, z, state, row=True, col=True):
        """(A, B) of line n on nodes z; a factor not asked for is None.

        The rows are the representation's layer: the eta nodes
        (hitting), every block's eta nodes (operator_step,
        ``_chain_factors``) or k = 1..n_max (biorth, ``_biorth_factors``).

        In the hitting representation A is the weighted S(t, n; eta, z) on
        the atom and law eta nodes.  B is Sbar(t, n; eta, z) on the atom
        nodes, then the hitting-law expectation of Sbar(t, n - ell; b, z)
        on the law eta nodes: per epoch ell < n, Sbar on the epoch's
        distinct law nodes reduced by its sparse weight matrix.
        """
        rep = self.spec.representation
        if rep == "operator_step":
            return self._chain_factors(n, z, state, row, col)
        if rep == "biorth":
            return self._biorth_factors(n, z, row, col)
        rows = [np.empty((0, z.size))]
        cols = [np.empty((0, z.size))]
        if state["atom"] is not None:
            nodes, w = state["atom"]
            if row and col:
                s, sbar = self._s_sbar(n, nodes, z)
            else:
                s = self._s_matrix(n, nodes, z) if row else None
                sbar = self._sbar_vec(n, nodes, z) if col else None
            if row:
                rows.append(s * w[:, None])
            if col:
                cols.append(sbar)
        if state["law"] is not None:
            eta, w_eta, epochs = state["law"]
            if row:
                rows.append(self._s_matrix(n, eta, z) * w_eta[:, None])
            if col:
                g = np.zeros((eta.size, z.size))
                for ell, (u, wmat) in epochs.items():
                    if ell < n:
                        g += wmat @ self._sbar_vec(n - ell, u, z)
                cols.append(g)
        return (np.concatenate(rows) if row else None,
                np.concatenate(cols) if col else None)

    def _chain_factors(self, n, z, state, row, col):
        """Operator-step factors of line n, one row group per block k with
        an eta scheme, in start order.

        A holds the weighted carries C_k w_k, where C_k = S(n - s_k) -
        sum_{j<k} Leg_{jk} C_j sums every signed chain of blocks ending at
        k.  B holds Sbar(n - s_k) for the leading blocks with s_k < n only:
        the later blocks' rows would be zero.
        """
        schemes, legs = state["chains"]
        blks = self._profile.blocks_within(self.spec.n_max)
        live = [(k, blk.start, sch)
                for k, (blk, sch) in enumerate(zip(blks, schemes))
                if sch is not None]
        a = b = None
        if row:
            carries, rows = {}, [np.empty((0, z.size))]
            for k, start, sch in live:
                # all leading walk powers collapsed into the index
                carry = self._s_matrix(n - start, sch.nodes, z)
                for j, prev in carries.items():
                    carry -= legs[j, k] @ prev
                carries[k] = carry
                rows.append(carry * sch.weights[:, None])
            a = np.concatenate(rows)
        if col:
            b = np.concatenate([np.empty((0, z.size))] + [
                self._sbar_vec(n - start, sch.nodes, z)
                for _, start, sch in live if start < n])
        return a, b

    def _biorth_factors(self, n, z, row, col):
        """Biorthogonal factors of line n on the rows k = 1..n_max: A_k =
        Psi^n_{n-k}(z) e^{-z}, and B_k = Phi^n_{n-k}(z) e^{z} for k <= n,
        zero above (every line's B has the full height)."""
        spec = self.spec
        a = b = None
        if row:
            a = np.array([_bo.psi_n_k(spec.ic, n, n - k, spec.t, z)
                          for k in range(1, spec.n_max + 1)]) * np.exp(-z)
        if col:
            b = np.zeros((spec.n_max, z.size))
            for k, phi in enumerate(reversed(self._phi_tables[n])):
                b[k] = phi(z)
            b *= np.exp(z)
        return a, b


def kernel_eval(spec: KernelSpec) -> ExtendedKernelEval:
    """Build the kernel evaluator for a spec."""
    return ExtendedKernelEval(spec)
