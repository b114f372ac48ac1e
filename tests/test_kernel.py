import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from rbmdet import initial_data as idata
from rbmdet import kernel as kernel_mod
from rbmdet import special
from rbmdet.fredholm import NystromSystem, rbm_probability
from rbmdet.hitting import hitting_law_exact, q_exp_pow
from rbmdet.initial_data import blocks
from rbmdet.kernel import (ExtendedKernelEval, KernelSpec, kernel_eval, s_ops,
                           sbar_epi)
from rbmdet.quad import _gl_rule, build_scheme

STEP_IC = idata.from_positions([1.5, 1.5, 0.0, 0.0, -1.2, -1.2, -1.2, -2.0],
                               extend_last=True)
# four blocks within index 8: levels 1, 0, -0.5 and -1.5
FOUR_BLOCK_IC = idata.from_positions([1.0, 1.0, 0.0, 0.0, -0.5, -0.5, -1.5],
                                     extend_last=True)
# eight unit blocks, levels 2 .. -1.5, and five threshold pairs on indices
# (3, 9) spread over the joint law
EIGHT_BLOCK_IC = idata.from_positions(
    [2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -1.5], extend_last=True)
STEP_BASES = ((-1.25, -5.0), (-0.75, -4.5), (-0.25, -3.5), (0.25, -3.0),
              (0.75, -2.5))
# two leading +inf particles: c0 = +inf, so the law layer ends at the
# discretization's upper end
WEDGE_IC = idata.narrow_wedge_approx([-0.5, -1.0], eps=0.7)


class TestSOps:
    def test_sbar_unit(self):
        assert s_ops("Sbar", 1.7, 1, 0.3, -0.6) == pytest.approx(
            math.exp(-0.6 - 0.3), rel=1e-13)

    def test_s_heat_kernel(self):
        assert s_ops("S", 1.0, 0, 0.0, 0.0) == pytest.approx(
            1 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_contour_cross_check(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = float(rng.uniform(0.4, 2.0))
            n = int(rng.integers(0, 13))
            z1, z2 = (float(v) for v in rng.uniform(-2, 2, 2))
            ref, err = special.contour_eval("S", t, n, z1, z2,
                                            with_error=True)
            assert abs(s_ops("S", t, n, z1, z2) - ref) <= \
                max(1e-8 * max(1, abs(ref)), 5 * err)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            s_ops("S", 1.0, -1, 0.0, 0.0)
        with pytest.raises(ValueError):
            s_ops("Sbar", 1.0, 0, 0.0, 0.0)


class TestSbarEpi:
    def test_packed_above_is_plain(self):
        p0 = idata.packed(0.0)
        for z1 in (0.0, 0.4, 2.0):
            assert sbar_epi(p0, 1.2, 4, z1, 0.3) == pytest.approx(
                s_ops("Sbar", 1.2, 4, z1, 0.3), rel=1e-12)

    def test_packed_below_vanishes(self):
        assert sbar_epi(idata.packed(0.0), 1.2, 4, -0.1, 0.3) == 0.0

    def test_single_wedge_operator_identity(self):
        # epi operator = l free walk steps, cut at the level, then plain Sbar
        start, level = 3, -0.5
        ic = idata.from_positions([math.inf] * start + [level],
                                  extend_last=True)
        t, n = 0.9, 6
        for z1 in (1.0, 0.2, -0.4):
            got = sbar_epi(ic, t, n, z1, 0.1)
            ref = quad(
                lambda b: math.exp(b - z1) * (z1 - b) ** (start - 1)
                / math.factorial(start - 1)
                * s_ops("Sbar", t, n - start, b, 0.1),
                level, z1, limit=300)[0] if z1 > level else 0.0
            assert got == pytest.approx(ref, abs=1e-10)


class TestCollapsedWalkPowers:
    def test_s_matrix_negative_index_matches_explicit_integral(self):
        # (S_n)* Q^l = (S_{n-l})*, including l > n where the index smoothes
        z = 0.4
        for n_eff, l in [(1, 1), (-2, 4), (0, 2)]:
            n = 2  # base index
            l = n - n_eff
            y = -0.7
            ref = quad(
                lambda x: s_ops("S", 1.1, n, x, z)
                * math.exp(y - x) * (x - y) ** (l - 1) / math.factorial(l - 1),
                y, 60.0, limit=400)[0]
            got = float(kernel_mod._s(1.1, n_eff, np.array([[y - z]]))[0, 0])
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-11)


class TestKernelSpec:
    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            KernelSpec(t=t, indices=(1,), ic=idata.packed(0.0))

    @pytest.mark.parametrize("index", [2.7, math.inf, math.nan, -math.inf])
    def test_non_integral_index_rejected(self, index):
        # an index was truncated (2.7 -> 2) or overflowed int() (inf)
        with pytest.raises(ValueError, match="whole numbers"):
            KernelSpec(t=1.0, indices=(1, index), ic=idata.packed(0.0))

    @pytest.mark.parametrize("rep", ["hitting", "biorth", "operator_step"])
    def test_index_past_finite_data_rejected(self, rep):
        # three particles, not extended: index 5 used to be answered from
        # the extended data by hitting and operator_step
        ic = idata.from_positions([0.0, -1.0, -2.0])
        assert KernelSpec(t=1.0, indices=(3,), ic=ic, representation=rep)
        with pytest.raises(ValueError, match="3 particles, index 5"):
            KernelSpec(t=1.0, indices=(2, 5), ic=ic, representation=rep)

    def test_whole_float_index_accepted(self):
        spec = KernelSpec(t=1.0, indices=(2.0, 5), ic=idata.packed(0.0))
        assert spec.indices == (2, 5)


class TestKernelEval:
    def test_same_index_drops_first_term(self):
        spec = KernelSpec(t=1.0, indices=(3,), ic=idata.packed(0.0))
        kern = kernel_eval(spec)
        zi, zj = -1.0, -3.5
        # second term alone: the atom integral
        ref = quad(lambda e: s_ops("S", 1.0, 3, e, zi)
                   * s_ops("Sbar", 1.0, 3, e, zj), 0.0, 40.0, limit=400)[0]
        assert kern((3, zi), (3, zj)) == pytest.approx(ref, rel=1e-9)

    def test_first_term_for_ordered_indices(self):
        spec = KernelSpec(t=1.0, indices=(2, 4), ic=idata.packed(0.0))
        kern = kernel_eval(spec)
        zi, zj = 0.5, -1.5
        with_both = kern((2, zi), (4, zj))
        second = quad(lambda e: s_ops("S", 1.0, 2, e, zi)
                      * s_ops("Sbar", 1.0, 4, e, zj), 0.0, 40.0,
                      limit=400)[0]
        m = 2
        first = -math.exp(zj - zi) * (zi - zj) ** (m - 1) / math.factorial(
            m - 1)
        assert with_both == pytest.approx(first + second, rel=1e-9)

    def test_three_representations_agree(self):
        rng = np.random.default_rng(11)
        indices = (2, 5, 8)
        kerns = {rep: kernel_eval(KernelSpec(t=1.3, indices=indices,
                                             ic=STEP_IC, representation=rep))
                 for rep in ("hitting", "biorth", "operator_step")}
        for _ in range(40):
            ni = int(rng.choice(indices))
            nj = int(rng.choice(indices))
            zi = float(rng.uniform(-6, 3))
            zj = float(rng.uniform(-6, 3))
            vals = [k((ni, zi), (nj, zj)) for k in kerns.values()]
            scale = max(1.0, *map(abs, vals))
            assert (max(vals) - min(vals)) / scale < 1e-7

    def test_wedge_data_hitting_vs_operator_step(self):
        ic = idata.narrow_wedge_approx([-0.5, -1.0], eps=0.7)
        indices = (3, 6)
        rng = np.random.default_rng(13)
        e_h = kernel_eval(KernelSpec(t=0.9, indices=indices, ic=ic))
        e_o = kernel_eval(KernelSpec(t=0.9, indices=indices, ic=ic,
                                     representation="operator_step"))
        for _ in range(25):
            ni = int(rng.choice(indices))
            nj = int(rng.choice(indices))
            zi = float(rng.uniform(-8, 1))
            zj = float(rng.uniform(-8, 1))
            a = e_h((ni, zi), (nj, zj))
            b = e_o((ni, zi), (nj, zj))
            assert abs(a - b) / max(1.0, abs(a)) < 1e-9

    @pytest.mark.parametrize("rep", kernel_mod.REPRESENTATIONS)
    def test_matrix_matches_block_assembly(self, rep):
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC,
                          representation=rep)
        rng = np.random.default_rng(5)
        zs = (np.linspace(-7.0, 1.0, 9), rng.uniform(-6.0, -2.5, 7))

        def by_blocks(zs):
            return np.block([[kern.block(ni, nj, zi, zj)
                              for nj, zj in zip(spec.indices, zs)]
                             for ni, zi in zip(spec.indices, zs)])

        kern = kernel_eval(spec)
        got = kern.matrix(zs)
        assert kern.evaluations == 16 ** 2
        assert np.array_equal(got, by_blocks(zs))
        # nodes reaching above the discretization rebuild it; the assembly
        # uses the new one throughout
        zs = (zs[0], np.linspace(-6.0, 2.0, 6))
        got = kern.matrix(zs)
        assert np.array_equal(got, by_blocks(zs))

    def test_matrix_under_threads(self):
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        node_sets = [np.linspace(-7.0, 1.0, 9), np.linspace(-6.0, -2.5, 7)]
        requests = [(a, b) for a in (0, 1) for b in (0, 1)]
        kern = kernel_eval(spec)
        kern.block(3, 3, np.array([-7.0, 1.0]), np.array([-7.0, 1.0]))
        expected = {r: kern.matrix((node_sets[r[0]], node_sets[r[1]]))
                    for r in requests}
        blocks_ref = {r: kern.block(3, 9, node_sets[r[0]], node_sets[r[1]])
                      for r in requests}
        mismatches = []

        def worker(shift):
            for k in range(3 * len(requests)):
                r = requests[(k * (2 * shift + 1)) % len(requests)]
                got = kern.matrix((node_sets[r[0]], node_sets[r[1]]))
                if not np.array_equal(got, expected[r]):
                    mismatches.append(r)
                got = kern.block(3, 9, node_sets[r[0]], node_sets[r[1]])
                if not np.array_equal(got, blocks_ref[r]):
                    mismatches.append(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == []

    def test_one_recurrence_per_line_for_the_atom(self, monkeypatch):
        # a line's atom rows are the degrees 0..n-1 of one recurrence at
        # c0 - z: per assembly, one all-degree call per line and no
        # recurrence argument run twice
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        calls = []

        def counting(name):
            real = getattr(special, name)

            def run(n, x):
                calls.append((name, n, np.asarray(x).tobytes()))
                return real(n, x)
            return run

        for name in ("hermite_normed_log", "hermite_normed_log_pair",
                     "hermite_normed_log_all"):
            monkeypatch.setattr(special, name, counting(name))
        kern = kernel_eval(spec)
        for order in (16, 32):
            del calls[:]
            NystromSystem(intervals=((-7.0, 1.0), (-6.0, -2.5)), order=order,
                          kernel=kern.matrix, max_panel=1.0).matrix()
            alls = [n for name, n, _ in calls if name.endswith("all")]
            assert sorted(alls) == [n - 1 for n in spec.indices]
            assert not any(name.endswith("pair") for name, _, _ in calls)
            args = [x for _, _, x in calls]
            assert len(set(args)) == len(args)

    def test_one_build_when_a_later_line_reaches_higher(self, monkeypatch):
        # line 9's window ends at -0.5, above line 3's at -3: the assembly
        # takes its discretization from all lines, so no factor is left on
        # one built for line 3 alone
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=idata.from_positions(
            [2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -1.5], extend_last=True))
        kern = kernel_eval(spec)
        builds, assemblies = [], []
        real_build = ExtendedKernelEval._build
        real_factors = ExtendedKernelEval.factors

        def build(self, *args):
            builds.append(args)
            return real_build(self, *args)

        def factors(self, zs):
            out = real_factors(self, zs)
            assemblies.append((zs, out))
            return out

        monkeypatch.setattr(ExtendedKernelEval, "_build", build)
        monkeypatch.setattr(ExtendedKernelEval, "factors", factors)
        rbm_probability(spec, [-3.0, -0.5], kern=kern)
        assert len(builds) == 1
        zs, (facs, walk) = assemblies[0]
        top = max(float(z.max()) for z in zs)
        ref = kernel_eval(spec)
        ref.block(3, 3, np.array([top]), np.array([top]))
        ref_facs, ref_walk = real_factors(ref, zs)
        for (a, b), (ra, rb) in zip(facs, ref_facs):
            assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert walk.keys() == ref_walk.keys() == {(0, 1)}
        assert np.array_equal(walk[0, 1], ref_walk[0, 1])

    @pytest.mark.parametrize("indices", [(3, 9), (2, 5, 9)])
    def test_factors_give_the_matrix(self, indices):
        rng = np.random.default_rng(7)
        zs = [np.sort(rng.uniform(-7.0, 1.0, 5 + k))
              for k in range(len(indices))]
        for rep in kernel_mod.REPRESENTATIONS:
            kern = kernel_eval(KernelSpec(t=1.0, indices=indices, ic=STEP_IC,
                                          representation=rep))
            facs, walk = kern.factors(zs)
            assert kern.evaluations == sum(z.size for z in zs) ** 2
            # one layer of m rows; B_j holds its first m_j rows, all of
            # them except in the operator-step kernel
            m = {a.shape[0] for a, b in facs}
            heights = {b.shape[0] for a, b in facs}
            assert len(m) == 1 and max(heights) <= min(m)
            assert rep == "operator_step" or heights == m
            got = np.block([[facs[i][0][:len(facs[j][1])].T @ facs[j][1]
                             - walk.get((i, j), 0.0)
                             for j in range(len(zs))]
                            for i in range(len(zs))])
            assert np.array_equal(got, kern.matrix(zs))

    def test_falling_lower_end_does_not_rebuild(self, monkeypatch):
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        kern = kernel_eval(spec)
        builds = []
        real_build = ExtendedKernelEval._build

        def build(self, *args):
            builds.append(args)
            return real_build(self, *args)

        monkeypatch.setattr(ExtendedKernelEval, "_build", build)
        z = np.linspace(-5.0, 0.5, 6)
        first = kern.block(3, 9, z, z)
        for lo in (-6.0, -9.0, -20.0):
            kern.block(3, 9, np.linspace(lo, 0.5, 6), z)
        assert len(builds) == 1
        assert np.array_equal(kern.block(3, 9, z, z), first)

    def test_operator_step_chains_replaced_on_rebuild(self):
        kern = kernel_eval(KernelSpec(t=1.0, indices=(2, 5, 8),
                                      ic=FOUR_BLOCK_IC,
                                      representation="operator_step"))
        assert len(blocks(FOUR_BLOCK_IC).blocks_within(8)) == 4
        seen = []
        for k in range(3):   # each evaluation raises the upper end
            kern((2, -3.0), (8, -2.0 + 0.5 * k))
            schemes, legs = kern._state["chains"]
            # one scheme per block, at most one leg per block pair
            assert len(schemes) == 4
            assert 0 < len(legs) <= 6
            seen.append((schemes, legs))
        # a rebuild replaces every scheme and leg with the discretization
        for (old_s, old_l), (new_s, new_l) in zip(seen, seen[1:]):
            assert not any(a is b for a, b in zip(old_s, new_s)
                           if a is not None)
            assert not any(new_l[p] is old_l.get(p) for p in new_l)

    def test_operator_step_one_leg_per_block_pair(self, monkeypatch):
        # the chains of all block subsets share their legs: one Volterra
        # leg per block pair and discretization, not one per subset
        legs, builds = [], []
        real_leg = kernel_mod._volterra_leg_matrix
        real_build = ExtendedKernelEval._build

        def leg(m, src, tgt):
            legs.append(m)
            return real_leg(m, src, tgt)

        def build(self, *args):
            builds.append(args)
            return real_build(self, *args)

        monkeypatch.setattr(kernel_mod, "_volterra_leg_matrix", leg)
        monkeypatch.setattr(ExtendedKernelEval, "_build", build)
        rbm_probability(KernelSpec(t=1.0, indices=(2, 8), ic=FOUR_BLOCK_IC,
                                   representation="operator_step"),
                        [-1.0, -3.0])
        assert len(builds) >= 1
        assert len(legs) == 6 * len(builds)

    def test_operator_step_determinant_matches_hitting(self):
        vals = [rbm_probability(KernelSpec(t=1.0, indices=(2, 8),
                                           ic=FOUR_BLOCK_IC,
                                           representation=rep),
                                [-1.0, -3.0]).value
                for rep in ("hitting", "operator_step")]
        assert 0.05 < vals[0] < 0.95
        assert abs(vals[0] - vals[1]) < 1e-12

    def test_biorth_determinants_match_hitting(self):
        # both m x m; with the biorthogonal determinant N x N they differ by
        # 2.7e-15, the error of the N x N LU
        for a in STEP_BASES:
            vals = [rbm_probability(KernelSpec(t=1.0, indices=(3, 9),
                                               ic=EIGHT_BLOCK_IC,
                                               representation=rep),
                                    list(a)).value
                    for rep in ("hitting", "biorth")]
            assert abs(vals[0] - vals[1]) <= 1.5e-15

    def test_finite_output_and_counter(self):
        spec = KernelSpec(t=1.0, indices=(1, 2), ic=idata.packed(0.0))
        kern = kernel_eval(spec)
        before = kern.evaluations
        val = kern((1, 0.0), (2, -1.0))
        assert math.isfinite(val)
        assert kern.evaluations == before + 1

    def test_out_of_spec_index_rejected(self):
        kern = kernel_eval(KernelSpec(t=1.0, indices=(1, 2),
                                      ic=idata.packed(0.0)))
        with pytest.raises(ValueError):
            kern((3, 0.0), (1, 0.0))

    def test_biorth_requires_finite_levels(self):
        ic = idata.narrow_wedge_approx([-1.0], eps=0.5)
        with pytest.raises(ValueError):
            KernelSpec(t=1.0, indices=(6,), ic=ic, representation="biorth")


def _atom_by_eta_quadrature(kern, lines, z_hi):
    """Block (i, j) of the epoch-0 atom as the eta integral int_{c0}^inf
    S(t, n_i; eta, z_i) Sbar(t, n_j; eta, z_j) deta on Gauss-Legendre
    panels of [c0, z_hi + reach]: the quadrature the exact sum replaces."""
    t = kern.spec.t
    c0 = kern.spec.ic.curve(0)
    levels = [b.level for b in kern._profile.blocks_within(kern.spec.n_max)]
    sch = build_scheme(c0, z_hi + kern._reach, order=16, splits=levels,
                       max_panel=max(1.5 * kern._bulk_wave, 1e-3))
    eta = sch.nodes[:, None]
    return {(i, j): (s_ops("S", t, ni, eta, zi) * sch.weights[:, None]).T
            @ s_ops("Sbar", t, nj, eta, zj)
            for i, (ni, zi) in enumerate(lines)
            for j, (nj, zj) in enumerate(lines)}


class TestExactAtom:
    @pytest.mark.parametrize("ic, t, lines", [
        (idata.packed(0.0), 1.0,
         [(30, np.linspace(-2.0 * math.sqrt(30) - 10.0, -9.0, 41))]),
        (idata.packed(0.0), 1.0, [(2, np.linspace(-9.0, 1.0, 23)),
                                  (7, np.linspace(-10.0, 0.0, 19))]),
        (EIGHT_BLOCK_IC, 1.0, [(3, np.linspace(-6.0, 1.0, 29)),
                               (9, np.linspace(-7.0, -0.5, 31))]),
        (EIGHT_BLOCK_IC, 2.5, [(1, np.linspace(-8.0, 2.0, 17)),
                               (4, np.linspace(-6.0, 1.0, 13)),
                               (9, np.linspace(-9.0, -1.0, 15))])])
    def test_matches_the_eta_quadrature(self, ic, t, lines):
        # one line, lines n_i < n_j with negative-degree rows, and step
        # data whose law layer shares the assembly
        kern = kernel_eval(KernelSpec(t=t, indices=tuple(n for n, _ in lines),
                                      ic=ic))
        facs = kern._atom_factors(lines)
        assert all(a.shape == b.shape == (kern.spec.n_max, z.size)
                   for (a, b), (_, z) in zip(facs, lines))
        scale = np.abs(kern.matrix([z for _, z in lines])).max()
        z_hi = max(float(z.max()) for _, z in lines)
        for (i, j), ref in _atom_by_eta_quadrature(kern, lines,
                                                   z_hi).items():
            got = facs[i][0].T @ facs[j][1]
            assert np.abs(got - ref).max() <= 1e-13 * scale

    def test_no_atom_rows_without_c0(self):
        kern = kernel_eval(KernelSpec(t=0.9, indices=(3, 6), ic=WEDGE_IC))
        assert kern._atom_factors([(3, np.zeros(2))]) is None
        facs, _ = kern.factors([np.linspace(-8.0, 0.5, 4)] * 2)
        assert facs[0][0].shape[0] == kern._ensure(0.5)["law"][0].size

    def test_far_rows_flushed_not_subnormal(self):
        # at t = 1, n = 60, nodes far below the edge leave most of a row's
        # entries below 2^-1021 of its shared scale: they are exactly 0
        kern = kernel_eval(KernelSpec(t=1.0, indices=(60,),
                                      ic=idata.packed(0.0)))
        [(a, b)] = kern._atom_factors([(60, np.linspace(-60.0, -10.0, 200))])
        for f in (a, b):
            tiny = (f != 0) & (np.abs(f) < np.finfo(float).tiny)
            assert not tiny.any()
        assert (a == 0).any()


def _column_factor_per_node(kern, ns, z, state):
    """The law rows of B (its last rows) of each line n in ns with Sbar
    evaluated on every law node of every eta and scattered row by row with
    np.add.at: the reduction the law layer's folded weights replace.
    Returns {n: (B, M)}, M the same scatter of |W||Sbar|, the scale of the
    rounding that B's sums carry."""
    t = kern.spec.t
    per_block = {}
    if state["law"] is not None:
        eta = state["law"][0]
        for a, e in enumerate(eta):
            law = hitting_law_exact(
                blocks(kern.spec.ic), float(e), kern.spec.n_max,
                panel_max=min(kernel_mod._B_PANEL, 4 * kern._airy_w))
            for ell, comp in law.components.items():
                per_block.setdefault(ell, []).append(
                    (np.full(comp.nodes.size, a), comp.nodes,
                     comp.weights * comp.values))
    out = {}
    for n in ns:
        cols, mags = [], []
        if state["law"] is not None:
            g = np.zeros((eta.size, z.size))
            g_abs = np.zeros((eta.size, z.size))
            for ell, items in per_block.items():
                if ell < n:
                    src, nodes, wv = (np.concatenate(v) for v in zip(*items))
                    terms = kernel_mod._sbar(t, n - ell, nodes[:, None] - z) \
                        * wv[:, None]
                    np.add.at(g, src, terms)
                    np.add.at(g_abs, src, np.abs(terms))
            cols.append(g)
            mags.append(g_abs)
        out[n] = np.concatenate(cols), np.concatenate(mags)
    return out


class TestLawLayer:
    def test_one_law_per_eta_node_over_five_thresholds(self, monkeypatch):
        # c0 is finite, so the law layer ends at c0 whatever the upper end:
        # the rebuilds of five queries on one evaluator share one layer
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC)
        kern = kernel_eval(spec)
        fresh = [rbm_probability(spec, list(a)).value for a in STEP_BASES]
        calls = []

        def counting(profile, eta, *args, **kw):
            calls.append(eta)
            return hitting_law_exact(profile, eta, *args, **kw)

        monkeypatch.setattr(kernel_mod, "hitting_law_exact", counting)
        shared = [rbm_probability(spec, list(a), kern=kern).value
                  for a in STEP_BASES]
        assert len(calls) == len(set(calls)) == 112
        assert kern._state["law"][0].size == 112
        assert max(abs(a - b) for a, b in zip(shared, fresh)) <= 1e-15

    def test_layer_follows_a_rising_upper_end_when_c0_is_infinite(
            self, monkeypatch):
        assert WEDGE_IC.n_inf > 0 and WEDGE_IC.curve(0) == math.inf
        spec = KernelSpec(t=0.9, indices=(3, 6), ic=WEDGE_IC)
        kern = kernel_eval(spec)
        calls = []

        def counting(profile, eta, *args, **kw):
            calls.append(eta)
            return hitting_law_exact(profile, eta, *args, **kw)

        monkeypatch.setattr(kernel_mod, "hitting_law_exact", counting)
        z = np.linspace(-8.0, -0.5, 5)
        layers = []
        for top in (-0.5, 0.5, 1.5):
            zt = np.append(z, top)
            ref = kernel_eval(spec).block(3, 6, zt, zt)
            del calls[:]
            assert np.array_equal(kern.block(3, 6, zt, zt), ref)
            law_hi, layer = kern._law
            assert law_hi == top + kern._reach
            assert len(calls) == layer[0].size
            layers.append(layer)
        assert all(a is not b for a, b in zip(layers, layers[1:]))
        # nodes below the top neither rebuild nor touch the layer
        kern.block(3, 6, z, z)
        assert kern._law[1] is layers[-1]

    def test_rebuilt_layer_under_threads(self):
        # every round raises the upper end, so the four threads race to
        # rebuild the law layer; each gets what a fresh evaluator gives
        spec = KernelSpec(t=0.9, indices=(3, 6), ic=WEDGE_IC)
        rounds = [(np.linspace(-8.0, top, 9), np.linspace(-6.0, -1.0, 5))
                  for top in (-0.5, 0.5, 1.5)]
        expected = [kernel_eval(spec).matrix(zs) for zs in rounds]
        kern = kernel_eval(spec)
        barrier = threading.Barrier(4, timeout=60)
        got = [[None] * 4 for _ in rounds]

        def worker(k):
            for r, zs in enumerate(rounds):
                barrier.wait()
                got[r][k] = kern.matrix(zs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for ref, row in zip(expected, got):
            assert all(m is not None and np.array_equal(m, ref) for m in row)

    @pytest.mark.parametrize("ic, indices, z", [
        (EIGHT_BLOCK_IC, (3, 9), np.linspace(-6.0, 1.0, 7)),
        (idata.narrow_wedge_approx([0.0, -1.0], eps=0.1), (10, 24),
         np.linspace(-24.0, 1.0, 9)),
        # line 48: Sbar's degree in b is past the eta panel order
        (idata.narrow_wedge_approx([0.0, -1.0], eps=0.09), (48,),
         np.linspace(-30.0, 1.0, 9))])
    def test_folded_weights_match_per_node_scatter(self, ic, indices, z):
        kern = kernel_eval(KernelSpec(t=1.0, indices=indices, ic=ic))
        state = kern._ensure(float(z.max()))
        assert state["law"] is not None
        refs = _column_factor_per_node(kern, indices, z, state)
        # line 10 of the wedges has no epoch below it (its law rows are 0)
        assert np.abs(refs[indices[-1]][0]).max() > 0
        for n in indices:
            [(_, got)] = kern._line_factors([(n, z)], state)
            ref, _ = refs[n]
            got = got[-len(ref):]
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_folded_weights_under_cancelling_terms(self):
        # unit blocks X0(k) = -k: Sbar of degree up to 29 changes sign in
        # b, so the terms of B outweigh it by 5e3 here, and B carries that
        # much rounding in any order of summation; bound the fold by the
        # terms it sums
        ic = idata.from_positions([-float(k) for k in range(1, 30)],
                                  extend_last=True)
        kern = kernel_eval(KernelSpec(t=1.0, indices=(12, 30), ic=ic))
        z = np.linspace(-30.0, 1.0, 9)
        state = kern._ensure(float(z.max()))
        for n, (ref, mag) in _column_factor_per_node(
                kern, (12, 30), z, state).items():
            [(_, got)] = kern._line_factors([(n, z)], state)
            got = got[-len(ref):]
            assert np.abs(got - ref).max() <= 1e-14 * mag.max()

    def test_sbar_once_per_eta_node(self, monkeypatch):
        # every epoch's law nodes lie between two levels, among the eta
        # panels there; the lines' column factors evaluate Sbar on at most
        # the eta nodes, summed over epochs
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC)
        kern = kernel_eval(spec)
        zs = [np.linspace(-6.0, 1.0, 40), np.linspace(-7.0, -0.5, 40)]
        state = kern._discretization(zs)
        rows = []
        real = special.psibar_log

        def counting(n, t, x):
            rows.append(np.shape(x)[0])
            return real(n, t, x)

        monkeypatch.setattr(special, "psibar_log", counting)
        for n, z in zip(spec.indices, zs):
            del rows[:]
            kern._line_factors([(n, z)], state)
            assert 0 < sum(rows) <= state["law"][0].size == 112

    def test_law_node_outside_the_eta_scheme_raises(self, monkeypatch):
        def lifted(*args, **kw):
            law = hitting_law_exact(*args, **kw)
            return dataclasses.replace(law, components={
                ell: dataclasses.replace(c, nodes=c.nodes + 10.0)
                for ell, c in law.components.items()})

        monkeypatch.setattr(kernel_mod, "hitting_law_exact", lifted)
        kern = kernel_eval(KernelSpec(t=1.0, indices=(3, 9),
                                      ic=EIGHT_BLOCK_IC))
        with pytest.raises(RuntimeError, match="leave the eta scheme"):
            kern.block(3, 9, np.zeros(1), np.zeros(1))


def _volterra_leg_per_target(m, src, tgt):
    """The leg matrix with every (target, panel) pair re-panelled on its
    own, the loop that the vectorized pass over targets at or below a
    panel's lower edge replaces."""
    order = src.order
    refx, lam = kernel_mod._bary_ref(order)
    glx, glw = _gl_rule(order)
    edges = src.edges
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
            r = kernel_mod._bary_eval_matrix(u, refx, lam)
            T[j, p * order:(p + 1) * order] += (half * glw * q) @ r
    return T


class TestVolterraLeg:
    @pytest.mark.parametrize("lo, hi, m", [(-1.5, 0.0, 3), (-0.5, 1.0, 1),
                                           (0.0, 2.0, 7)])
    def test_matches_per_target_loop(self, lo, hi, m):
        levels = [2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -1.5]
        src = build_scheme(lo, 6.0, order=16, splits=levels, max_panel=0.7)
        tgt = build_scheme(hi, 6.0, order=16, splits=levels,
                           max_panel=0.7).nodes
        # targets on panel edges, above the top and below the bottom too
        tgt = np.concatenate([tgt, src.edges, [6.5, lo - 2.0]])
        assert np.array_equal(kernel_mod._volterra_leg_matrix(m, src, tgt),
                              _volterra_leg_per_target(m, src, tgt))
