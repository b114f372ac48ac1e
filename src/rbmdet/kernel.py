"""Extended kernel of the particle system in three equivalent representations.

Building blocks (log-scale internally):

    S(t, n; z1, z2)    = e^{z1-z2} psi_n(t, z1-z2)
    Sbar(t, n; z1, z2) = e^{z2-z1} psibar_{n-1}(t, z1-z2)
    Sbar_epi(z1, z2)   = E_{B_0=z1}[ Sbar(t, n-tau; B_tau, z2) ; tau < n ]

Full kernel between index lines (n_i, n_j), in the conjugated gauge
(multiplied by e^{z_j-z_i}, which leaves determinants unchanged):

    Kt(n_i, z_i; n_j, z_j) = -Q_exp^{n_j-n_i}(z_i, z_j) 1{n_i < n_j}
                             + int deta S(t, n_i; eta, z_i) Sbar_epi(eta, z_j)

Every representation works on the finite particles (``KernelSpec.finite``),
so c0 is finite, and writes the second term as a product A_i^T B_j through
a layer on which each factor depends on one index line only:

* ``hitting``      - the defining double integral, summed by parts at the
  levels; the layer is one row per curve epoch p = 0..n_max-1, at its
  level c_p.  Row p pairs S(t, n_i-1-p; c_p, z_i) with Sbar(t, n_j-p; c_p,
  z_j) less the expectation of Sbar(t, n_j-tau; B_tau, z_j) over the exact
  hitting law of the walk started at c_p at epoch p.  On one block these
  are the rows of the epoch-0 atom, and no law enters.
* ``biorth``       - sum_{k=1}^{n_j} Psi^{n_i}_{n_i-k}(z_i) Phi^{n_j}_{n_j-k}(z_j)
  e^{z_j-z_i} with exact polynomial Phi's (moderate n only); the layer is
  the index k = 1..n_max.
* ``operator_step``- the integral split at c0: above it the walk is hit at
  epoch 0, which gives the same n_max atom rows at c0 as ``hitting`` (from
  plain per-degree S and Sbar); below it, inclusion-exclusion over the
  later blocks, (S)* chi Q^... chi ... Sbar, quadrature-discretized on
  each block's eta nodes in [L_k, c0].  The signed chains ending at block
  k sum to C_k = S_{n_i-s_k} - Q_k A_atom - sum_{j<k} Leg_{jk} C_j, so L
  blocks cost L - 1 carries and (L-1)(L-2)/2 legs where there were
  2^{L-1} - 1 chains; a cross-check of ``hitting`` that shares none of its
  law or log-space rows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import biorth as _bo
from . import special
from .hitting import hitting_law_exact, q_exp_pow
from .initial_data import InitialCondition, StepProfile, blocks
from .quad import Scheme, _gl_rule, build_scheme

REPRESENTATIONS = ("hitting", "biorth", "operator_step")


def factored_matrix(facs, walk) -> np.ndarray:
    """The kernel multiplied out of ``(facs, walk)``, the form ``factors``
    returns: block (i, j) is A_i^T B_j - walk.get((i, j), 0), with
    facs[i] = (A_i, B_i)."""
    offs = np.cumsum([0] + [a.shape[1] for a, _ in facs])
    out = np.empty((offs[-1], offs[-1]))
    for i, (a, _) in enumerate(facs):
        for j, (_, b) in enumerate(facs):
            out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                a.T @ b - walk.get((i, j), 0.0)
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
            sub = build_scheme(lo, b, order)
            u = (2.0 * sub.nodes - (a + b)) / (b - a)
            r = _bary_eval_matrix(u, refx, lam)
            T[j, cols] = (sub.weights * q_exp_pow(m, sub.nodes, lo)) @ r
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
        self.ic.level(max(idx))  # raises past the end of finite data

    @property
    def n_max(self) -> int:
        return max(self.indices)

    @property
    def finite(self) -> KernelSpec:
        """The spec without its n_inf particles at +inf, which never touch
        the rest: indices <= n_inf (sure events, no kernel line) dropped,
        the others lowered by n_inf, leaving the kernel unchanged by
        (S_n)* Q^l = (S_{n-l})* (the walk term keeps Q^{n_j-n_i})."""
        n_inf = self.ic.n_inf
        if self.n_max <= n_inf:
            raise ValueError(f"indices {self.indices} are all at or below "
                             f"the {n_inf} particles at +inf: no kernel line")
        return replace(self, ic=replace(self.ic, n_inf=0), indices=tuple(
            n - n_inf for n in self.indices if n > n_inf))


# quadrature order of the operator-step eta schemes
_ETA_ORDER = 16


class ExtendedKernelEval:
    """Callable kernel ((n_i, z_i), (n_j, z_j)) -> float with vectorized
    entry points: ``block`` for one pair of index lines and ``matrix`` for a
    whole Nystrom assembly.

    ``spec`` stays as given; the kernel lines are those of ``spec.finite``,
    and an index at or below the particles at +inf has none (ValueError).

    Pure and safe for concurrent evaluation: everything a representation
    needs beyond the nodes depends on the spec only and is built once,
    here (the hitting laws, one per epoch before the last block start,
    ``_law_rows``; the operator-step schemes and legs, ``_build``; the
    biorthogonal Phi tables), and no evaluation changes it.

    In every representation a block is A(n_i, z_i)^T B(n_j, z_j) minus
    the walk term, with A and B from ``_line_factors`` on a layer of
    ``rows`` rows, which every line's A and B fill.  Both depend on one
    index line only, so ``factors`` builds the pair (A, B) once per line
    and keeps no factor after the call; ``block`` takes A from line i's
    pair and B from line j's.  A determinant needs no N x N matrix from
    the factors (see ``fredholm``); ``matrix`` multiplies them out.  A
    hitting line's rows at one level come from one Hermite recurrence, and
    its law terms from one Sbar per law node (``_hitting_factors``).
    """

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self._fin = fin = spec.finite
        self._lock = threading.Lock()
        self._evals = 0
        self._profile = blocks(fin.ic)
        t, n_max = fin.t, fin.n_max
        # panels of 1.5 bulk wavelengths of psi_n
        self._panel = max(1.5 * (math.pi * math.sqrt(t / n_max)), 1e-3)
        self.rows = n_max
        if fin.representation == "operator_step":
            self._chains = self._build()
            self.rows += sum(sch.size for sch in self._chains[0])
        elif fin.representation == "biorth":
            self._phi_tables = {
                nj: [_bo.phi_n_k(_bo.h_family(fin.ic, nj), k, t)
                     for k in range(nj)]
                for nj in fin.indices
            }
        elif fin.representation == "hitting":
            self._laws = self._law_rows()

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
        n_inf = self.spec.ic.n_inf
        for n in (ni, nj):
            if n not in self.spec.indices or n <= n_inf:
                raise ValueError(f"index {n} has no kernel line: not in the "
                                 f"spec, or at or below its {n_inf} "
                                 f"particles at +inf")
        zi = np.atleast_1d(np.asarray(zi, dtype=float))
        zj = np.atleast_1d(np.asarray(zj, dtype=float))
        self._count(zi.size * zj.size)
        (a, _), (_, b) = self._line_factors([(ni - n_inf, zi),
                                             (nj - n_inf, zj)])
        out = a.T @ b
        if ni < nj:
            out = out - q_exp_pow(nj - ni, zi[:, None], zj[None, :])
        return out

    def matrix(self, zs) -> np.ndarray:
        """Kernel on the concatenation of ``zs``, one node array per kernel
        line in order; each block is what ``block`` gives."""
        return factored_matrix(*self.factors(zs))

    def factors(self, zs):
        """The kernel on the concatenation of ``zs`` in factored form.

        ``zs`` holds one node array per kernel line: per index of the spec
        past its particles at +inf.  Returns ([(A_1, B_1), ...], walk) with
        one factor pair per line and walk[i, j] = Q_exp^{n_j-n_i}(z_i, z_j)
        for i < j.  A_i and B_i are m x N_i, m = ``rows``, on the
        representation's layer (``_line_factors``), so that block (i, j) of
        ``matrix(zs)`` is A_i^T B_j - walk[i, j] (no walk term for i >= j).
        """
        idx = self._fin.indices
        zs = [np.atleast_1d(np.asarray(z, dtype=float)) for z in zs]
        if len(zs) != len(idx):
            raise ValueError(f"need {len(idx)} node arrays, got {len(zs)}")
        # one assembly counts as N^2 kernel evaluations
        self._count(sum(z.size for z in zs) ** 2)
        facs = self._line_factors(list(zip(idx, zs)))
        walk = {(i, j): q_exp_pow(idx[j] - idx[i], zs[i][:, None],
                                  zs[j][None, :])
                for j in range(len(idx)) for i in range(j)}
        return facs, walk

    def _count(self, entries: int):
        with self._lock:
            self._evals += entries

    # -- the operator-step discretization ---------------------------------

    def _build(self):
        """(schemes, legs, tops) over the blocks k >= 1 past the first, in
        start order: an eta scheme on [L_k, c0] split at the levels, one
        Volterra leg per pair of them, and tops[k][:, p] = Q_exp^{s_k -
        p}(c0, eta) on block k's nodes for p < s_k."""
        first, *later = self._profile.blocks_within(self._fin.n_max)
        c0, levels = first.level, [b.level for b in later]
        schemes = [build_scheme(b.level, c0, order=_ETA_ORDER, splits=levels,
                                max_panel=self._panel) for b in later]
        legs = {(j, k): _volterra_leg_matrix(
                    later[k].start - later[j].start, schemes[j],
                    schemes[k].nodes)
                for k in range(len(later)) for j in range(k)}
        tops = [np.column_stack([q_exp_pow(b.start - p, c0, sch.nodes)
                                 for p in range(b.start)])
                for b, sch in zip(later, schemes)]
        return schemes, legs, tops

    def _law_rows(self):
        """[(s, u, V), ...] per block past the first, in start order: its
        start epoch s, law nodes u and V (s x u), row p the weighted density
        over e^{u - c_p} of first hitting it from c_p at epoch p.  That law
        runs on the later blocks shifted by p; the walk steps strictly down,
        so every law first hits a block on the same nodes, between its level
        and the level above."""
        fin = self._fin
        blks = self._profile.blocks_within(fin.n_max)
        per_block = {}
        for p in range(blks[-1].start):
            later = StepProfile(0, tuple(replace(b, start=b.start - p)
                                         for b in blks if b.start > p))
            law = hitting_law_exact(later, fin.ic.curve(p), fin.n_max - p,
                                    panel_max=self._panel)
            for ell, comp in law.components.items():
                per_block.setdefault(p + ell, {})[p] = comp
        out = []
        for s, comps in sorted(per_block.items()):
            u = next(iter(comps.values())).nodes
            v = np.zeros((s, u.size))
            for p, comp in comps.items():
                if not np.array_equal(comp.nodes, u):
                    raise RuntimeError(f"the laws hitting the block at epoch "
                                       f"{s} are sampled on different nodes")
                v[p] = comp.weights * comp.values * np.exp(fin.ic.curve(p) - u)
            out.append((s, u, v))
        return out

    def _line_factors(self, lines):
        """[(A, B), ...], one pair per (n, z) in ``lines``: line n's factors
        on nodes z, on the representation's layer (``_hitting_factors``,
        ``_chain_factors``, ``_biorth_factors``)."""
        if self._fin.representation == "operator_step":
            return [self._chain_factors(n, z) for n, z in lines]
        if self._fin.representation == "biorth":
            return [self._biorth_factors(n, z) for n, z in lines]
        return self._hitting_factors(lines)

    def _hitting_factors(self, lines):
        """The hitting factors (A, B) of every (n, z) in ``lines``, one row
        per curve epoch p = 0..n_max-1 at its level c_p.

        Row p of A is S(t, n - 1 - p; c_p, z) (J_m as in ``_s`` for p >= n);
        of B, Sbar(t, n - p; c_p, z) less E[Sbar(t, n - tau; B_tau, z); tau
        < n] for the walk started at c_p at epoch p, tau its first later
        hit, and 0 for p >= n.  This is int S(t, n_i; eta, z_i) Sbar_epi(eta,
        z_j) deta summed by parts at every level (psi_n = (-d)^n p_t, d
        psibar_m = psibar_{m-1}), each block's level rows cancelling the
        lower-index rows of the block above; on one block, the epoch-0 atom.
        A line's rows at one level are the degrees of one Hermite
        recurrence.  Row p of A gives B e^r and the constant of its degree
        on line n_max, which cancel in A^T B, and one power of 2 per row for
        all the lines balances A and B (``_pow2_rows``).
        """
        t, n_max = self._fin.t, self._fin.n_max
        log_t, rt = math.log(t), math.sqrt(t)
        r = 2.0 * math.sqrt(n_max * t)
        c = 0.5 * (math.log(2.0 * math.pi) + log_t)
        blks = self._profile.blocks_within(n_max)
        ends = [b.start for b in blks[1:]] + [n_max]
        logs, leads = [], []
        for n, z in lines:
            # rows p < h take law terms, h the last block start below n
            h = max([s for s, _, _ in self._laws if s < n], default=0)
            rows, lead = [], []
            for blk, end in zip(blks, ends):
                s, x = blk.start, blk.level - z
                y = x - r
                if s < n:
                    k = min(end, n) - s
                    la, sg = special.hermite_normed_log_all(n - 1 - s, x / rt)
                    # row p is degree n - 1 - p
                    la, sg = la[::-1][:k], sg[::-1][:k]
                    d = np.arange(n - 1.0 - s, n - 1.0 - s - k, -1.0)[:, None]
                    # (log d! - d log t)/2 of line n less that of line
                    # n_max
                    lf = special.log_factorial(d)
                    dc = 0.5 * (lf - special.log_factorial(d + n_max - n)
                                + (n_max - n) * log_t)
                    rows.append(((la - x * x / (2.0 * t)) + y + (dc - c), sg,
                                 (la - y) - dc, sg))
                    if s < h:
                        # log psibar_d(t, x): Sbar = e^{-x} psibar_d
                        lead.append(la - 0.5 * (lf - d * log_t))
                if end > n:
                    # row p = n - 1 + m: S(t, -m) = e^x t^{(m-1)/2} J_m(-x/
                    # sqrt(t)), less the constant of degree n_max - 1 - p
                    lo = max(s, n)
                    dm = np.arange(n_max - 1.0 - lo, n_max - 1.0 - end,
                                   -1.0)[:, None]
                    lj = _bo.log_gauss_repeated_integrals(
                        end - n, -x / rt)[lo - n:] + y + 0.5 * (
                            (n_max - n - 1) * log_t
                            - special.log_factorial(dm))
                    rows.append((lj, np.ones_like(lj), np.zeros_like(lj),
                                 np.zeros_like(lj)))
            logs.append([np.concatenate(f) for f in zip(*rows)])
            leads.append(np.concatenate(lead) if lead else None)
        amax, bmax = (np.max([np.where(f[k + 1] != 0, f[k], -np.inf).max(1)
                              for f in logs], axis=0) for k in (0, 2))
        # B is 0 past every line's n there: bring A's largest entry to 1
        shift = np.round(np.where(np.isfinite(bmax), 0.5 * (amax - bmax),
                                  amax) / math.log(2.0))
        # B's row constant e^r Gamma(D + 1)^{1/2} t^{-D/2}, D = n_max - 1 - p
        dd = np.arange(n_max - 1.0, -1.0, -1.0)[:, None]
        g = r + 0.5 * (special.log_factorial(dd) - dd * log_t)
        out = []
        for (n, z), (la, sa, lb, sb), lp in zip(lines, logs, leads):
            b = _pow2_rows(lb, sb, -shift)
            if lp is not None:
                # rows p < h less their law terms V @ psibar_{n-s-1}(u - z)
                # (Sbar = e^{z-b} psibar), summed in the frame of each
                # entry's largest term: e^{z - c_p} and the row constant go
                # on after the terms cancel, and add no rounding to them
                h = lp.shape[0]
                frame = lp.copy()
                sums = []
                for s, u, v in [law for law in self._laws if law[0] < n]:
                    lu, su = special.psibar_log(n - s - 1, t,
                                                u[:, None] - z[None, :])
                    top = lu.max(axis=0)
                    sums.append((s, v @ (su * np.exp(lu - top)), top))
                    frame[:s] = np.maximum(frame[:s], top)
                net = sb[:h] * np.exp(lp - frame)
                for s, e, top in sums:
                    net[:s] -= e * np.exp(top - frame[:s])
                x = self._fin.ic.curve_array(h)[:, None] - z[None, :]
                with np.errstate(divide="ignore"):
                    b[:h] = _pow2_rows(np.log(np.abs(net)) + frame - x
                                       + g[:h], np.sign(net), -shift[:h])
            out.append((_pow2_rows(la, sa, shift), b))
        return out

    def _chain_factors(self, n, z):
        """Operator-step factors of line n: the n_max atom rows at c0, then
        one row group per block k >= 1 on its scheme, in start order.

        Atom row p of A is S(t, n - 1 - p; c0, z), of B Sbar(t, n - p; c0,
        z) and 0 for p >= n: int_{c0}^inf S(n_i) Sbar(n_j) deta by parts,
        the walk from above c0 being hit at epoch 0.  From below c0 it is
        hit at the start s_k of some block k >= 1, on [L_k, c0].  A's block
        rows hold the weighted carries C_k w_k, where C_k = S(n - s_k) -
        Q_k A_atom[:s_k] - sum_{j<k} Leg_{jk} C_j sums every signed chain
        of blocks ending at k: int_{eta < c0} S(n; eta) Q^s(eta, b) deta is
        S(n - s; b) less sum_{p<s} S(n - 1 - p; c0) Q^{s-p}(c0, b).  B's
        are Sbar(n - s_k), 0 for s_k >= n.
        """
        t, n_max = self._fin.t, self._fin.n_max
        schemes, legs, tops = self._chains
        first, *later = self._profile.blocks_within(n_max)
        x = first.level - z
        atom = np.array([_s(t, n - 1 - p, x) for p in range(n_max)])
        rows = [atom]
        cols = [np.array([_sbar(t, n - p, x) if p < n else np.zeros(z.size)
                          for p in range(n_max)])]
        carries = []
        for k, (blk, sch, top) in enumerate(zip(later, schemes, tops)):
            x = sch.nodes[:, None] - z[None, :]
            # all leading walk powers collapsed into the index
            carry = _s(t, n - blk.start, x) - top @ atom[:blk.start]
            for j, prev in enumerate(carries):
                carry -= legs[j, k] @ prev
            carries.append(carry)
            rows.append(carry * sch.weights[:, None])
            cols.append(_sbar(t, n - blk.start, x) if blk.start < n
                        else np.zeros_like(x))
        return np.concatenate(rows), np.concatenate(cols)

    def _biorth_factors(self, n, z):
        """Biorthogonal factors of line n on the rows k = 1..n_max: A_k =
        Psi^n_{n-k}(z) e^{-z}, and B_k = Phi^n_{n-k}(z) e^{z} for k <= n,
        zero above (every line's B has the full height)."""
        spec = self._fin
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
