import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from rbmdet import biorth as bo
from rbmdet import initial_data as idata
from rbmdet import kernel as kernel_mod
from rbmdet import special
from rbmdet.fredholm import NystromSystem, rbm_probability
from rbmdet.hitting import hitting_law_exact, q_exp_pow
from rbmdet.initial_data import blocks
from rbmdet.kernel import KernelSpec, kernel_eval, s_ops, sbar_epi
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
# 10 particles at 0, 15 at -1 and 5 at -2
THREE_BLOCK_IC = idata.from_positions([0.0] * 10 + [-1.0] * 15 + [-2.0] * 5)
# two leading +inf particles, which the kernel drops
WEDGE_IC = idata.narrow_wedge_approx([-0.5, -1.0], eps=0.7)
# two wedges at eps = 0.1: ten particles at +inf, then levels -10 and -20
TWO_WEDGE_IC = idata.narrow_wedge_approx([-0.5, -1.0], eps=0.1)
# float.hex of entries (0, 0), (1, 15) and (2, 30) of A_1, B_1, A_2 and B_2
# on one-block data (by their particles at +inf: packed, and one wedge at
# eps = 0.1), lines (3, 9) and (12, 24) at t = 1, as the epoch-0 atom gave
# them before the hitting laws moved onto the levels
ONE_BLOCK_PINS = {
    0: ['0x1.f44c86d957fe7p-85', '0x1.5bc3e07bc7344p-15',
        '0x1.13ebd4cba0ad8p-5', '0x1.1cb386333d05ep-8',
        '0x1.41e182783cf2dp-4', '0x1.cbc705983a591p+2',
        '0x1.7c2a35aaba7bap-79', '0x1.8e47d6069c5bcp-4',
        '0x1.13ebd4cba0ae3p-1', '0x1.85b3e05cd813dp-2',
        '0x1.e864bd6556117p-3', '0x1.46f3ed390d0c8p-3'],
    10: ['0x1.86c43fcf7cdb0p+5', '0x1.48c71146e6819p-15',
         '0x1.a27754b97b853p-8', '0x1.21c1baffe1a9ep-8',
         '0x1.a19af8c8cffa2p-2', '0x0.0p+0', '-0x1.d26903c28b908p+20',
         '0x1.dbc522fce9ffap+7', '-0x1.5b0cffb440824p-59',
         '-0x1.8949cb3b489f1p-25', '0x1.dc26579393020p-13',
         '-0x1.4cffbfa2d34c8p+19']}


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
        # and on nodes reaching higher, past every level
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
        # a line's rows at one level, the atom's at c0 and those of every
        # later block start s < n at its level, are the degrees 0..n-1-s
        # of one recurrence at level - z: per assembly, one all-degree
        # call per line and level, and no recurrence argument run twice
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        starts = [b.start for b in blocks(STEP_IC).blocks]
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
            assert sorted(alls) == sorted(n - 1 - s for n in spec.indices
                                          for s in starts if s < n)
            assert not any(name.endswith("pair") for name, _, _ in calls)
            args = [x for _, _, x in calls]
            assert len(set(args)) == len(args)

    @pytest.mark.parametrize("ic, lines", [
        (EIGHT_BLOCK_IC, [(3, np.linspace(-6.0, 1.0, 29)),
                          (9, np.linspace(-7.0, -0.5, 31))]),
        (THREE_BLOCK_IC, [(4, np.linspace(-10.0, 0.5, 37)),
                          (30, np.linspace(-12.0, -1.0, 41))])])
    def test_one_j_run_per_line(self, ic, lines, monkeypatch):
        # the rows p >= n of every block past n come from one J_m run to
        # n_max - n; split into one run per block, to that block's last
        # row, they agree to 1e-14 of each entry
        spec = KernelSpec(t=1.0, indices=tuple(n for n, _ in lines), ic=ic)
        kern = kernel_eval(spec)
        merged = kern._hitting_factors(lines)
        blks = blocks(ic).blocks_within(spec.n_max)
        ends = [b.start for b in blks[1:]] + [spec.n_max]
        real = bo.log_gauss_repeated_integrals
        runs = []

        def per_block(m, w):
            n = spec.n_max - m
            past = [e - n for e in ends if e > n]
            assert w.shape[0] == len(past)
            # rows past a block's own run are never read
            out = np.full((m,) + w.shape, np.nan)
            for k, mk in enumerate(past):
                out[:mk, k] = real(mk, w[k])
            runs.append(len(past))
            return out

        monkeypatch.setattr(bo, "log_gauss_repeated_integrals", per_block)
        alone = kern._hitting_factors(lines)
        assert runs == [len([e for e in ends if e > n])
                        for n, _ in lines if n < spec.n_max]
        assert max(runs) >= 3
        for (a, b), (ra, rb) in zip(merged, alone):
            assert np.array_equal(b, rb)
            assert np.all(np.abs(a - ra) <= 1e-14 * np.abs(ra))

    @pytest.mark.parametrize("ic, indices", [
        (EIGHT_BLOCK_IC, (3, 9)), (idata.packed(0.0), (5, 60, 120))])
    def test_operator_step_atom_rows_are_per_row_s(self, ic, indices):
        # the atom rows p >= n come from one J_m run per line; t != 1, so
        # the t^{(m-1)/2} of each row counts
        kern = kernel_eval(KernelSpec(t=1.7, indices=indices, ic=ic,
                                      representation="operator_step"))
        n, z = indices[0], np.linspace(-25.0, 2.0, 40)
        a, _ = kern._chain_factors(n, z)
        x = ic.level(1) - z
        ref = np.array([kernel_mod._s(1.7, n - 1 - p, x)
                        for p in range(indices[-1])])
        assert np.all(np.abs(a[:indices[-1]] - ref) <= 1e-14 * np.abs(ref))

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
            # one layer of m rows, which every A and B fills
            assert all(a.shape == b.shape == (kern.rows, z.size)
                       for (a, b), z in zip(facs, zs))
            got = np.block([[facs[i][0].T @ facs[j][1]
                             - walk.get((i, j), 0.0)
                             for j in range(len(zs))]
                            for i in range(len(zs))])
            assert np.array_equal(got, kern.matrix(zs))

    def test_operator_step_discretization_built_once(self, monkeypatch):
        # the eta schemes on [L_k, c0] of the blocks past the first, and
        # one leg per pair of them, depend on the spec only: (L - 1)(L -
        # 2)/2 = 21 legs on L = 8 blocks, all built with the evaluator, and
        # five queries with rising thresholds build no scheme or leg; each
        # equals hitting
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC,
                          representation="operator_step")
        legs, schemes = [], []
        real_leg, real_scheme = (kernel_mod._volterra_leg_matrix,
                                 kernel_mod.build_scheme)

        def leg(m, src, tgt):
            legs.append(m)
            return real_leg(m, src, tgt)

        def scheme(*args, **kw):
            schemes.append(args)
            return real_scheme(*args, **kw)

        monkeypatch.setattr(kernel_mod, "_volterra_leg_matrix", leg)
        monkeypatch.setattr(kernel_mod, "build_scheme", scheme)
        kern = kernel_eval(spec)
        assert len(legs) == 21
        etas, _, _ = kern._chains
        levels = EIGHT_BLOCK_IC.levels
        assert [(s.edges[0], s.edges[-1]) for s in etas] == [
            (lv, levels[0]) for lv in levels[1:]]
        assert kern.rows == 9 + sum(s.size for s in etas) == 457
        built = len(schemes)
        for a in STEP_BASES:
            hit = rbm_probability(dataclasses.replace(
                spec, representation="hitting"), list(a)).value
            assert abs(rbm_probability(spec, list(a), kern=kern).value
                       - hit) <= 1e-13
        assert (len(legs), len(schemes)) == (21, built)

    def test_operator_step_one_leg_per_block_pair(self, monkeypatch):
        # the chains of all subsets of the blocks past the first share
        # their legs: one Volterra leg per pair of them, 3 on four blocks
        # (starts 0, 2, 4, 6), not one per subset
        legs = []
        real_leg = kernel_mod._volterra_leg_matrix

        def leg(m, src, tgt):
            legs.append(m)
            return real_leg(m, src, tgt)

        monkeypatch.setattr(kernel_mod, "_volterra_leg_matrix", leg)
        rbm_probability(KernelSpec(t=1.0, indices=(2, 8), ic=FOUR_BLOCK_IC,
                                   representation="operator_step"),
                        [-1.0, -3.0])
        assert sorted(legs) == [2, 2, 4]

    def test_operator_step_determinant_matches_hitting(self):
        vals = [rbm_probability(KernelSpec(t=1.0, indices=(2, 8),
                                           ic=FOUR_BLOCK_IC,
                                           representation=rep),
                                [-1.0, -3.0]).value
                for rep in ("hitting", "operator_step")]
        assert 0.05 < vals[0] < 0.95
        assert abs(vals[0] - vals[1]) < 1e-13

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

    @pytest.mark.parametrize("rep", kernel_mod.REPRESENTATIONS)
    def test_evaluation_leaves_the_evaluator_as_built(self, rep):
        # all that an evaluation needs beyond its nodes is built with the
        # evaluator: no attribute but the counter is replaced, whatever the
        # nodes, which here reach ever higher
        kern = kernel_eval(KernelSpec(t=1.0, indices=(3, 9),
                                      ic=EIGHT_BLOCK_IC, representation=rep))
        before = dict(vars(kern))
        z = np.linspace(-7.0, 1.0, 6)
        kern.factors([z, z - 1.0])
        kern.block(3, 9, z, z + 2.0)
        kern.matrix([z + 3.0, z])
        kern((9, 5.0), (3, -8.0))
        after = vars(kern)
        assert after.keys() == before.keys()
        assert [k for k, v in before.items() if after[k] is not v] == [
            "_evals"]

    @pytest.mark.parametrize("rep", kernel_mod.REPRESENTATIONS)
    def test_particles_at_infinity_dropped(self, rep):
        # four particles at +inf: line 6 is line 2 of the data without
        # them, bitwise, in every representation (biorth included)
        ic = idata.narrow_wedge_approx([-1.0], eps=0.5)
        kern = kernel_eval(KernelSpec(t=1.0, indices=(2, 6), ic=ic,
                                      representation=rep))
        fin = kernel_eval(KernelSpec(t=1.0, indices=(2,), ic=dataclasses
                                     .replace(ic, n_inf=0),
                                     representation=rep))
        z = np.linspace(-7.0, -1.0, 5)
        assert np.array_equal(kern.block(6, 6, z, z), fin.block(2, 2, z, z))
        assert np.array_equal(kern.matrix([z]), fin.matrix([z]))
        # index 2 is at +inf for sure and has no kernel line
        with pytest.raises(ValueError, match="index 2 has no kernel line"):
            kern.block(2, 6, z, z)
        with pytest.raises(ValueError, match="no kernel line"):
            kernel_eval(KernelSpec(t=1.0, indices=(1, 4), ic=ic,
                                   representation=rep))

    def test_two_wedge_entries_match_a_reference(self):
        # the two-wedge data at eps = 0.1 behind ten particles at +inf; at
        # (24, -1.916; 24, -20.544) a law layer that climbed to the nodes'
        # reach gave -4.1e-2 for -6.9e-10.  Operator_step, once 1.2e-8 off
        # at (24, -3.44; 24, -13.37) with its eta quadrature above c0, is
        # within 6.7e-13 at every point; biorth is 3.4e-9 off at (24,
        # -9.92; 24, -19.22), within 1e-10 at the others (both relative)
        spec = KernelSpec(t=1.0, indices=(12, 24), ic=TWO_WEDGE_IC)
        kerns = [kernel_eval(dataclasses.replace(spec, representation=rep))
                 for rep in ("hitting", "operator_step", "biorth")]
        rng = np.random.default_rng(17)
        points = [(24, -1.916, 24, -20.544)] + [
            (int(rng.choice(spec.indices)), float(rng.uniform(-23.0, 1.0)),
             int(rng.choice(spec.indices)), float(rng.uniform(-23.0, 1.0)))
            for _ in range(39)]
        gaps = []
        for ni, zi, nj, zj in points:
            hit, step, bio = (kern((ni, zi), (nj, zj)) for kern in kerns)
            scale = max(1.0, abs(hit))
            assert abs(hit - step) <= 1e-11 * scale
            gaps.append(abs(hit - bio) / scale)
        assert sorted(gaps)[-2] <= 1e-10


def _kernel_by_eta_quadrature(kern, lines, z_hi):
    """Block (i, j) of the kernel's integral term, int S(t, n_i; eta, z_i)
    Sbar_epi(eta, z_j) deta, on Gauss-Legendre panels of [last level, z_hi
    + reach] split at the levels, with Sbar_epi at every node from that
    node's own exact hitting law (above c0 the epoch-0 atom, the plain
    Sbar): the quadrature that the rows at the levels sum exactly.  The
    reach, 12 edge (Airy) widths past the bulk of psi_n and 5 more, is
    where S(t, n_i; eta, z_i) has decayed."""
    fin = kern.spec.finite
    t, prof = fin.t, blocks(fin.ic)
    levels = [b.level for b in prof.blocks_within(fin.n_max)]
    reach = 2.0 * math.sqrt(fin.n_max * t) + 12.0 * (
        math.sqrt(t) * fin.n_max ** (-1.0 / 6.0)) + 5.0
    sch = build_scheme(levels[-1], z_hi + reach, order=16,
                       splits=levels, max_panel=kern._panel)
    laws = [hitting_law_exact(prof, float(eta), fin.n_max)
            for eta in sch.nodes]
    epi = {}
    for n, z in lines:
        rows = []
        for eta, law in zip(sch.nodes, laws):
            row = law.atom_mass * s_ops("Sbar", t, n, eta, z)
            for ell, comp in law.components.items():
                if ell < n:
                    row = row + (comp.weights * comp.values) @ s_ops(
                        "Sbar", t, n - ell, comp.nodes[:, None], z[None, :])
            rows.append(row)
        epi[n] = np.array(rows)
    return {(i, j): (s_ops("S", t, ni, sch.nodes[:, None], zi[None, :])
                     * sch.weights[:, None]).T @ epi[nj]
            for i, (ni, zi) in enumerate(lines)
            for j, (nj, _) in enumerate(lines)}


class TestExactAtom:
    """The hitting rows, one per curve epoch p at its level c_p: on one
    block the epoch-0 atom summed by parts, on more the whole integral
    term."""

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
        # data, whose laws enter B
        kern = kernel_eval(KernelSpec(t=t, indices=tuple(n for n, _ in lines),
                                      ic=ic))
        facs = kern._hitting_factors(lines)
        assert all(a.shape == b.shape == (kern.spec.n_max, z.size)
                   for (a, b), (_, z) in zip(facs, lines))
        scale = np.abs(kern.matrix([z for _, z in lines])).max()
        z_hi = max(float(z.max()) for _, z in lines)
        for (i, j), ref in _kernel_by_eta_quadrature(kern, lines,
                                                     z_hi).items():
            got = facs[i][0].T @ facs[j][1]
            assert np.abs(got - ref).max() <= 1e-13 * scale

    def test_atom_rows_behind_particles_at_infinity(self):
        # the two particles at +inf are dropped, so c0 is the first finite
        # level and lines 3 and 6 are lines 1 and 4 of two blocks: 4 rows,
        # one per epoch, and one law, from c0 onto the block at epoch 1
        kern = kernel_eval(KernelSpec(t=0.9, indices=(3, 6), ic=WEDGE_IC))
        facs, _ = kern.factors([np.linspace(-8.0, 0.5, 4)] * 2)
        assert all(a.shape == b.shape == (4, 4) for a, b in facs)
        assert [(s, v.shape[0]) for s, _, v in kern._laws] == [(1, 1)]

    def test_far_rows_flushed_not_subnormal(self):
        # at t = 1, n = 60, nodes far below the edge leave most of a row's
        # entries below 2^-1021 of its shared scale: they are exactly 0
        kern = kernel_eval(KernelSpec(t=1.0, indices=(60,),
                                      ic=idata.packed(0.0)))
        [(a, b)] = kern._hitting_factors(
            [(60, np.linspace(-60.0, -10.0, 200))])
        for f in (a, b):
            tiny = (f != 0) & (np.abs(f) < np.finfo(float).tiny)
            assert not tiny.any()
        assert (a == 0).any()

    @pytest.mark.parametrize("ic, indices", [
        (idata.packed(0.0), (3, 9)),
        (idata.narrow_wedge_approx([-0.5], eps=0.1), (12, 24))])
    def test_one_block_factors_are_pinned(self, ic, indices):
        # packed and one-wedge data have no law: their rows are the atom's,
        # bit for bit as before the laws moved onto the levels
        kern = kernel_eval(KernelSpec(t=1.0, indices=indices, ic=ic))
        assert kern._laws == []
        facs, _ = kern.factors([np.linspace(-12.0 - k, 1.0, 31)
                                for k in range(2)])
        got = [f[r, c].hex() for a, b in facs for f in (a, b)
               for r, c in ((0, 0), (1, 15), (2, 30))]
        assert got == ONE_BLOCK_PINS[ic.n_inf]


def _rows_per_epoch(kern, n, z):
    """(A, B, M) of line n on nodes z in plain floats, row p at c_p: B's
    law term from a law of its own per epoch, on data with +inf at epoch
    p and the curve after it, sampled at the default panels.  M is the
    scale of B's rounding, |Sbar| + sum |W Sbar| per entry."""
    fin = kern.spec.finite
    t, n_max = fin.t, fin.n_max
    curve = fin.ic.curve_array(n_max)
    a, b, mag = [], [], []
    for p in range(n_max):
        x = curve[p] - z
        a.append(kernel_mod._s(t, n - 1 - p, x))
        row = np.zeros_like(z)
        acc = np.zeros_like(z)
        if p < n:
            row = kernel_mod._sbar(t, n - p, x)
            acc = np.abs(row)
            if p + 1 < n_max:
                ic = idata.from_positions([math.inf, *curve[p + 1:]])
                law = hitting_law_exact(blocks(ic), float(curve[p]),
                                        n_max - p)
                for ell, comp in law.components.items():
                    if p + ell < n:
                        terms = (comp.weights * comp.values)[:, None] \
                            * kernel_mod._sbar(t, n - p - ell,
                                               comp.nodes[:, None] - z)
                        row = row - terms.sum(axis=0)
                        acc = acc + np.abs(terms).sum(axis=0)
        b.append(row)
        mag.append(acc)
    return np.array(a), np.array(b), np.array(mag)


def _counting_laws(monkeypatch):
    """The eta of every hitting law the kernel module computes from now on."""
    calls = []

    def counting(profile, eta, *args, **kw):
        calls.append(eta)
        return hitting_law_exact(profile, eta, *args, **kw)

    monkeypatch.setattr(kernel_mod, "hitting_law_exact", counting)
    return calls


class TestLawLayer:
    """The hitting kernel's law rows (``_law_rows``): per block past the
    first, the weighted law densities of the walks started at the earlier
    epochs' levels, stacked on the block's law nodes."""

    def test_one_law_per_epoch_over_five_thresholds(self, monkeypatch):
        # eight unit blocks within line 9: one law per epoch before the
        # last block start, from its level, all built with the evaluator;
        # five queries on it compute no other
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC)
        fresh = [rbm_probability(spec, list(a)).value for a in STEP_BASES]
        calls = _counting_laws(monkeypatch)
        kern = kernel_eval(spec)
        assert calls == list(EIGHT_BLOCK_IC.levels[:7])
        shared = [rbm_probability(spec, list(a), kern=kern).value
                  for a in STEP_BASES]
        assert len(calls) == 7
        assert max(abs(a - b) for a, b in zip(shared, fresh)) <= 1e-15

    @pytest.mark.parametrize("ic, indices", [(WEDGE_IC, (3, 6)),
                                             (TWO_WEDGE_IC, (12, 24))])
    def test_layer_spans_the_levels_whatever_the_nodes(self, ic, indices,
                                                       monkeypatch):
        # the law nodes lie between the levels of the data without their
        # particles at +inf, the rows are the n_max epochs of those data,
        # and nodes however high compute no law
        spec = KernelSpec(t=0.9, indices=indices, ic=ic)
        kern = kernel_eval(spec)
        assert kern._laws
        for s, u, v in kern._laws:
            assert ic.levels[-1] <= u.min() < u.max() <= ic.levels[0]
            assert v.shape == (s, u.size)
        calls = _counting_laws(monkeypatch)
        z = np.linspace(-8.0, -0.5, 5)
        rows = spec.finite.n_max
        for top in (-0.5, 1.5, 20.0, 60.0):
            zt = np.append(z, top)
            facs, _ = kern.factors([zt, zt])
            assert all(a.shape == b.shape == (rows, zt.size)
                       for a, b in facs)
        assert calls == []

    def test_rebuilt_layer_under_threads(self):
        # every round raises the nodes' upper end, and four threads
        # assemble on one operator-step evaluator at once; each gets what a
        # fresh evaluator gives
        spec = KernelSpec(t=0.9, indices=(3, 6), ic=WEDGE_IC,
                          representation="operator_step")
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
        # line 48: Sbar's degree in b is past the law panel order
        (idata.narrow_wedge_approx([0.0, -1.0], eps=0.09), (48,),
         np.linspace(-30.0, 1.0, 9)),
        # unit blocks X0(k) = -k: Sbar of degree up to 29 changes sign in
        # b, so B's terms outweigh B by up to 5e3
        (idata.from_positions([-float(k) for k in range(1, 30)],
                              extend_last=True), (12, 30),
         np.linspace(-30.0, 1.0, 9))])
    def test_law_rows_match_per_epoch_laws(self, ic, indices, z):
        # both sides round at the scale of the terms they sum, in any order
        # of summation: bound the gap by those terms
        kern = kernel_eval(KernelSpec(t=1.0, indices=indices, ic=ic))
        facs = kern._hitting_factors([(n, z) for n in indices])
        refs = [_rows_per_epoch(kern, n, z) for n in indices]
        for (a, _), (ra, _, _) in zip(facs, refs):
            for (_, b), (_, rb, mag) in zip(facs, refs):
                gap = np.abs(a.T @ b - ra.T @ rb)
                assert np.all(gap <= 1e-13 * (np.abs(ra).T @ mag))

    def test_laws_on_other_nodes_raise(self, monkeypatch):
        # every law that hits a block samples it on the same nodes, so one
        # Sbar per node serves them all; a law on other nodes raises
        def lifted(profile, eta, *args, **kw):
            law = hitting_law_exact(profile, eta, *args, **kw)
            if eta != EIGHT_BLOCK_IC.levels[0]:
                return law
            return dataclasses.replace(law, components={
                ell: dataclasses.replace(c, nodes=c.nodes + 1e-3)
                for ell, c in law.components.items()})

        monkeypatch.setattr(kernel_mod, "hitting_law_exact", lifted)
        with pytest.raises(RuntimeError, match="on different nodes"):
            kernel_eval(KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC))

    def test_sbar_once_per_law_node(self, monkeypatch):
        # a line evaluates Sbar on the law nodes of every block that starts
        # before its index, once each, and nowhere else
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC)
        kern = kernel_eval(spec)
        zs = [np.linspace(-6.0, 1.0, 40), np.linspace(-7.0, -0.5, 40)]
        rows = []
        real = special.psibar_log

        def counting(n, t, x):
            rows.append(np.shape(x)[0])
            return real(n, t, x)

        monkeypatch.setattr(special, "psibar_log", counting)
        for n, z in zip(spec.indices, zs):
            del rows[:]
            kern._hitting_factors([(n, z)])
            assert sum(rows) == sum(u.size for s, u, _ in kern._laws
                                    if s < n) > 0


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
