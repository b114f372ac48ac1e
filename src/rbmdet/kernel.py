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

* ``hitting``      - the defining double integral; the layer is n_max atom
  rows and the law's eta nodes.  The epoch-0 atom is summed exactly by
  parts at the one point c0, and the density components contribute
  tensorized panel quadratures.  Interpolation from the eta nodes onto the
  law nodes is folded into the law weights, so Sbar_epi needs Sbar on the
  eta nodes only, once per epoch.
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
from scipy.special import gammaln

from . import biorth as _bo
from . import special
from .hitting import hitting_law_exact, q_exp_pow
from .initial_data import InitialCondition, blocks
from .quad import Scheme, _gl_rule, build_scheme

REPRESENTATIONS = ("hitting", "biorth", "operator_step")


def factored_matrix(facs, walk) -> np.ndarray:
    """The kernel multiplied out of ``(facs, walk)``, the form ``factors``
    returns: block (i, j) is A_i[:m_j]^T B_j - walk.get((i, j), 0), with
    facs[i] = (A_i, B_i) and m_j the height of B_j."""
    offs = np.cumsum([0] + [a.shape[1] for a, _ in facs])
    out = np.empty((offs[-1], offs[-1]))
    for i, (a, _) in enumerate(facs):
        for j, (_, b) in enumerate(facs):
            out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                a[:len(b)].T @ b - walk.get((i, j), 0.0)
    return out


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
    Targets at or below a panel's lower edge need neither: they integrate
    over the whole panel, on its own nodes and weights, in one vectorized
    pass.
    """
    order = src.order
    refx, lam = _bary_ref(order)
    glx, glw = _gl_rule(order)
    edges = src.edges
    T = np.zeros((tgt.size, src.nodes.size))
    for p in range(len(edges) - 1):
        a, b = edges[p], edges[p + 1]
        cols = slice(p * order, (p + 1) * order)
        below = tgt <= a
        if np.any(below):
            T[below, cols] = src.weights[cols] * q_exp_pow(
                m, src.nodes[None, cols], tgt[below, None])
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


def _s(t, n, x):
    """S(t, n) at x = z1 - z2, through the log-scale psi form.

    Negative n is the smoothed kernel obtained by collapsing walk
    transition powers into the S index, (S_n)* Q^l = (S_{n-l})*, which for
    l > n turns the heat derivative into a repeated Gaussian integral.
    """
    if n >= 0:
        la, sg = special.psi_log(n, t, x)
        return sg * np.exp(la + x)
    m = -n
    return np.exp(x + 0.5 * (m - 1) * math.log(t)
                  + _bo.log_gauss_repeated_integrals(m, -x / math.sqrt(t))[-1])


def _sbar(t, n, x):
    """Sbar(t, n) at x = z1 - z2, n >= 1."""
    la, sg = special.psibar_log(n - 1, t, x)
    return sg * np.exp(la - x)


# ln 2 = _LN2_HI + _LN2_LO, _LN2_HI with 32 bits, so e * _LN2_HI is exact:
# a rounded e ln 2 would scale all entries of one size by the same error
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _pow2_rows(logs, signs, shift):
    """signs * e^logs * 2^-shift[k] in row k, the powers of 2 applied
    exactly; entries that would be subnormal (slow in products) are 0."""
    frac = np.where(signs != 0, logs, 0.0)
    e = np.floor(frac / math.log(2.0))
    frac -= e * _LN2_HI
    frac -= e * _LN2_LO
    p = e - shift[:, None]
    out = np.ldexp(np.exp(frac, out=frac), np.maximum(p, -1100.0)
                   .astype(np.int32)) * signs
    out[p < -1021] = 0.0
    return out


def s_ops(kind: str, t: float, n: int, z1, z2):
    """S (kind="S", n >= 0) or Sbar (kind="Sbar", n >= 1) at (z1, z2),
    vectorized, computed through the log-scale psi forms."""
    x = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
    if kind == "S":
        if n < 0:
            raise ValueError("kind='S' requires n >= 0")
        out = _s(t, n, x)
    elif kind == "Sbar":
        if n < 1:
            raise ValueError("kind='Sbar' requires n >= 1")
        out = _sbar(t, n, x)
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
        if not 0 < self.t < math.inf:
            raise ValueError(f"t must be finite and > 0, got {self.t}")
        if not all(math.isfinite(n) and n == int(n) for n in self.indices):
            raise ValueError(f"indices must be whole numbers, got "
                             f"{self.indices}")
        idx = tuple(int(n) for n in self.indices)
        if not idx or any(n < 1 for n in idx) or \
                any(b <= a for a, b in zip(idx[:-1], idx[1:])):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", idx)
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.representation == "biorth" and self.ic.n_inf > 0:
            raise ValueError("biorth representation requires finite "
                             "levels; use hitting or operator_step")
        self.ic.level(max(idx))  # raises past the end of finite data

    @property
    def n_max(self) -> int:
        return max(self.indices)


# quadrature of the eta layer (order) and of the hitting laws on it
# (largest panel)
_ETA_ORDER = 16
_B_PANEL = 2.0


class ExtendedKernelEval:
    """Callable kernel ((n_i, z_i), (n_j, z_j)) -> float with vectorized
    entry points: ``block`` for one pair of index lines and ``matrix`` for a
    whole Nystrom assembly.

    Pure and safe for concurrent evaluation; the discretization backing the
    hitting/operator_step representations is (re)built under a lock
    whenever the requested nodes reach above its upper end (nothing in it
    depends on the lower end).  Its hitting-law layer (the eta nodes, their
    laws, and per epoch the law weights folded onto the eta nodes) depends
    only on min(c0, upper end); it is built under the same lock, never
    changed afterwards, and kept for every rebuild that leaves that top
    where it was.

    In every representation a block is A(n_i, z_i)^T B(n_j, z_j) minus
    the walk term, with A and B from ``_line_factors``.  Both depend on
    one index line only, so ``factors`` builds the pair (A, B) once per
    line, under one discretization for the whole assembly, and keeps no
    factor after the call; ``block`` takes A from line i's pair and B from
    line j's.  A determinant needs no N x N matrix from the factors (see
    ``fredholm``); ``matrix`` multiplies them out.  A line's atom rows
    come from one Hermite recurrence (``_atom_factors``), its law rows
    from the module's ``_s`` and ``_sbar``.
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
                nj: [_bo.phi_n_k(_bo.h_family(spec.ic, nj), k, t)
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
        (a, _), (_, b) = self._line_factors([(ni, zi), (nj, zj)], state)
        out = a[:len(b)].T @ b
        if ni < nj:
            out = out - q_exp_pow(nj - ni, zi[:, None], zj[None, :])
        return out

    def matrix(self, zs) -> np.ndarray:
        """Kernel on the concatenation of ``zs``, one node array per index
        line of the spec in order; each block is what ``block`` gives."""
        return factored_matrix(*self.factors(zs))

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
        facs = self._line_factors(list(zip(idx, zs)), state)
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
        upper = z_hi + self._reach
        panel = max(1.5 * self._bulk_wave, 1e-3)
        levels = [b.level for b in blks]
        state = {"law": None}
        if spec.representation == "operator_step":
            # one eta scheme per block (None above upper) and one Volterra
            # leg per block pair; a rebuild replaces them all
            schemes = [build_scheme(b.level, upper, order=_ETA_ORDER,
                                    splits=levels, max_panel=panel)
                       if upper > b.level else None for b in blks]
            legs = {(j, k): _volterra_leg_matrix(
                        blks[k].start - blks[j].start, schemes[j],
                        schemes[k].nodes)
                    for k in range(len(blks)) for j in range(k)
                    if schemes[j] is not None and schemes[k] is not None}
            state["chains"] = (schemes, legs)
            return state
        law_hi = min(spec.ic.curve(0), upper)
        if blks and law_hi > blks[-1].level:
            # runs under the lock; a layer is never changed once built
            if self._law is None or self._law[0] != law_hi:
                self._law = (law_hi, self._law_layer(blks[-1].level, law_hi,
                                                     levels, panel))
            state["law"] = self._law[1]
        return state

    def _law_layer(self, law_lo, law_hi, splits, panel):
        """The eta nodes and weights on [law_lo, law_hi] and, per epoch ell,
        the folded law weights (rows, cols, W): the law expectation of
        Sbar(t, n - ell; b, z) at the eta nodes eta[rows] is W @ Sbar(t,
        n - ell; eta[cols], z), so Sbar is evaluated on the eta scheme's
        own nodes b and never on the law nodes u.

        W is the epoch's weighted law densities (eta x u) times the matrix
        that interpolates from the b nodes of u's panel onto u.  Sbar =
        e^{z-b} psibar(b - z) with psibar a polynomial, so the factor
        e^{b-u} in that matrix leaves the polynomial part to interpolate:
        exact below the panel order, and spectrally accurate above it,
        since the panels are sized by the bulk wavelength.  rows and cols
        span the eta nodes the epoch's laws start from and the panels its
        law nodes fall in.

        Nothing here depends on the upper end beyond law_hi, so a rebuild
        that leaves law_hi unchanged reuses the layer.
        """
        sch = build_scheme(law_lo, law_hi, order=_ETA_ORDER, splits=splits,
                           max_panel=panel)
        refx, lam = _bary_ref(_ETA_ORDER)
        edges = sch.edges
        per_block = {}
        for a, e in enumerate(sch.nodes):
            law = hitting_law_exact(self._profile, float(e), self.spec.n_max,
                                    panel_max=min(_B_PANEL, 4 * self._airy_w))
            for ell, comp in law.components.items():
                per_block.setdefault(ell, []).append(
                    (np.full(comp.nodes.size, a), comp.nodes,
                     comp.weights * comp.values))
        epochs = {}
        for ell, items in per_block.items():
            src, u, wv = (np.concatenate(v) for v in zip(*items))
            if u.min() < edges[0] or u.max() > edges[-1]:
                raise RuntimeError(
                    f"epoch {ell} law nodes [{u.min()!r}, {u.max()!r}] leave "
                    f"the eta scheme [{edges[0]!r}, {edges[-1]!r}]")
            p = np.minimum(np.searchsorted(edges, u, side="right") - 1,
                           edges.size - 2)
            lo, hi = edges[p], edges[p + 1]
            interp = _bary_eval_matrix((2.0 * u - (lo + hi)) / (hi - lo),
                                       refx, lam)
            col = p[:, None] * _ETA_ORDER + np.arange(_ETA_ORDER)
            rows = slice(src.min(), src.max() + 1)
            cols = slice(p.min() * _ETA_ORDER, (p.max() + 1) * _ETA_ORDER)
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            flat = (src - rows.start)[:, None] * shape[1] + col - cols.start
            vals = wv[:, None] * interp * np.exp(sch.nodes[col] - u[:, None])
            w = np.bincount(flat.ravel(), vals.ravel(),
                            minlength=shape[0] * shape[1])
            epochs[ell] = (rows, cols, w.reshape(shape))
        return sch.nodes, sch.weights, epochs

    def _line_factors(self, lines, state):
        """[(A, B), ...], one pair per (n, z) in ``lines``: the factors of
        line n on nodes z.

        The rows are the representation's layer: the atom rows and law eta
        nodes (hitting), every block's eta nodes (operator_step,
        ``_chain_factors``) or k = 1..n_max (biorth, ``_biorth_factors``).

        In the hitting representation the atom rows (``_atom_factors``)
        come first.  On the law eta nodes A is the weighted S(t, n; eta, z)
        and B the hitting-law expectation of Sbar(t, n - ell; b, z): per
        epoch ell < n, Sbar on the eta nodes the epoch's law nodes fall
        among, times its folded weights (``_law_layer``).
        """
        rep, t = self.spec.representation, self.spec.t
        if rep == "operator_step":
            return [self._chain_factors(n, z, state) for n, z in lines]
        if rep == "biorth":
            return [self._biorth_factors(n, z) for n, z in lines]
        atoms = self._atom_factors(lines) or \
            [(np.empty((0, z.size)),) * 2 for _, z in lines]
        out = []
        for (n, z), (a, b) in zip(lines, atoms):
            rows, cols = [a], [b]
            if state["law"] is not None:
                eta, w_eta, epochs = state["law"]
                rows.append(_s(t, n, eta[:, None] - z[None, :])
                            * w_eta[:, None])
                g = np.zeros((eta.size, z.size))
                for ell, (r, c, w) in epochs.items():
                    if ell < n:
                        g[r] += w @ _sbar(t, n - ell,
                                          eta[c, None] - z[None, :])
                cols.append(g)
            out.append((np.concatenate(rows), np.concatenate(cols)))
        return out

    def _atom_factors(self, lines):
        """The exact epoch-0 atom rows (A, B) of every (n, z) in
        ``lines``, or None if c0 = +inf.

        The atom adds int_{c0}^inf S(t, n_i; eta, z_i) Sbar(t, n_j; eta,
        z_j) deta to block (i, j).  The exponentials multiply to
        e^{z_j - z_i}, psi_n = (-d)^n p_t and d psibar_m = psibar_{m-1}, so
        n_j integrations by parts give sum_{k < n_j} S(t, n_i - 1 - k; c0,
        z_i) Sbar(t, n_j - k; c0, z_j).  Rows k < n are the degrees of one
        recurrence at c0 - z; rows k >= n are J_m in A (as in ``_s``), 0 in
        B.  Row k of A gives B e^r and its degree's constant on line n_max,
        which cancel in A^T B, and one power of 2 per row for all the lines
        balances A and B (``_pow2_rows``).
        """
        c0 = self.spec.ic.curve(0)
        if not math.isfinite(c0):
            return None
        t, n_max = self.spec.t, self.spec.n_max
        log_t, rt = math.log(t), math.sqrt(t)
        r = 2.0 * math.sqrt(n_max * t)
        c = 0.5 * (math.log(2.0 * math.pi) + log_t)
        logs = []
        for n, z in lines:
            x = c0 - z
            y = x - r
            la, sg = special.hermite_normed_log_all(n - 1, x / rt)
            la, sg = la[::-1], sg[::-1]      # row k is degree n - 1 - k
            d = np.arange(n - 1.0, -1.0, -1.0)[:, None]
            # (lgamma(d + 1) - d log t)/2 of line n less that of line n_max
            dc = 0.5 * (gammaln(d + 1.0) - gammaln(d + 1.0 + n_max - n)
                        + (n_max - n) * log_t)
            lg = (la - x * x / (2.0 * t)) + y + (dc - c)
            lb = (la - y) - dc
            if n < n_max:
                # row n - 1 + m: S(t, -m) = e^x t^{(m-1)/2} J_m(-x/sqrt(t)),
                # less the constant of degree dm = n_max - n - m
                dm = np.arange(n_max - n - 1.0, -1.0, -1.0)[:, None]
                lg = np.concatenate([lg, _bo.log_gauss_repeated_integrals(
                    n_max - n, -x / rt) + y + 0.5 * (
                        (n_max - n - 1) * log_t - gammaln(dm + 1.0))])
            pad = ((0, n_max - n), (0, 0))
            logs.append((lg, np.pad(sg, pad, constant_values=1.0),
                         np.pad(lb, pad), np.pad(sg, pad)))
        amax, bmax = (np.max([np.where(f[k + 1] != 0, f[k], -np.inf).max(1)
                              for f in logs], axis=0) for k in (0, 2))
        # B is 0 past every line's n there: bring A's largest entry to 1
        shift = np.round(np.where(np.isfinite(bmax), 0.5 * (amax - bmax),
                                  amax) / math.log(2.0))
        return [(_pow2_rows(la, sa, shift), _pow2_rows(lb, sb, -shift))
                for la, sa, lb, sb in logs]

    def _chain_factors(self, n, z, state):
        """Operator-step factors of line n, one row group per block k with
        an eta scheme, in start order.

        A holds the weighted carries C_k w_k, where C_k = S(n - s_k) -
        sum_{j<k} Leg_{jk} C_j sums every signed chain of blocks ending at
        k.  B holds Sbar(n - s_k) for the leading blocks with s_k < n only:
        the later blocks' rows would be zero.
        """
        t = self.spec.t
        schemes, legs = state["chains"]
        blks = self._profile.blocks_within(self.spec.n_max)
        carries = {}
        rows, cols = [np.empty((0, z.size))], [np.empty((0, z.size))]
        for k, (blk, sch) in enumerate(zip(blks, schemes)):
            if sch is None:
                continue
            x = sch.nodes[:, None] - z[None, :]
            # all leading walk powers collapsed into the index
            carry = _s(t, n - blk.start, x)
            for j, prev in carries.items():
                carry -= legs[j, k] @ prev
            carries[k] = carry
            rows.append(carry * sch.weights[:, None])
            if blk.start < n:
                cols.append(_sbar(t, n - blk.start, x))
        return np.concatenate(rows), np.concatenate(cols)

    def _biorth_factors(self, n, z):
        """Biorthogonal factors of line n on the rows k = 1..n_max: A_k =
        Psi^n_{n-k}(z) e^{-z}, and B_k = Phi^n_{n-k}(z) e^{z} for k <= n,
        zero above (every line's B has the full height)."""
        spec = self.spec
        a = np.array([_bo.psi_n_k(spec.ic, n, n - k, spec.t, z)
                      for k in range(1, spec.n_max + 1)]) * np.exp(-z)
        b = np.zeros((spec.n_max, z.size))
        for k, phi in enumerate(reversed(self._phi_tables[n])):
            b[k] = phi(z)
        b *= np.exp(z)
        return a, b


def kernel_eval(spec: KernelSpec) -> ExtendedKernelEval:
    """Build the kernel evaluator for a spec."""
    return ExtendedKernelEval(spec)
