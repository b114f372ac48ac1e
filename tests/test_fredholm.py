import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from rbmdet import fredholm as fr
from rbmdet import initial_data as idata
from rbmdet import scaling as sc
from rbmdet.errors import ConvergenceError
from rbmdet.fredholm import (DetResult, NystromSystem, fredholm_det,
                             rbm_probability)
from rbmdet.kernel import REPRESENTATIONS, KernelSpec, kernel_eval
from rbmdet.quad import build_scheme
from rbmdet.scaling import tracy_widom_gue_cdf


class TestBuildQuadrature:
    def test_order_two_nodes(self):
        sch = build_scheme(-1.0, 1.0, order=2)
        assert np.allclose(sorted(sch.nodes), [-1 / math.sqrt(3),
                                               1 / math.sqrt(3)])
        assert np.allclose(sch.weights, [1.0, 1.0])

    def test_polynomial_exactness(self):
        sch = build_scheme(0.0, 1.0, order=2)
        assert sch.weights @ sch.nodes ** 2 == pytest.approx(1 / 3,
                                                             abs=1e-15)
        assert sch.weights @ sch.nodes ** 3 == pytest.approx(1 / 4,
                                                             abs=1e-15)

    def test_split_point_honored(self):
        sch = build_scheme(0.0, 2.0, order=8, splits=(0.7,))
        assert 0.7 in sch.edges.tolist()
        # no node straddles: each panel lies on one side of the split
        assert not np.any((sch.nodes > 0.7 - 1e-12)
                          & (sch.nodes < 0.7 + 1e-12))


class TestFredholmDet:
    def test_zero_kernel(self):
        system = NystromSystem(intervals=((0.0, 5.0),), order=16,
                               kernel=lambda xs: np.zeros((xs[0].size,
                                                           xs[0].size)))
        assert system.det() == 1.0

    def test_rank_one_exponential(self):
        system = NystromSystem(
            intervals=((-30.0, 0.0),), order=24, max_panel=2.0,
            kernel=lambda xs: np.exp(xs[0][:, None] + xs[0][None, :]))
        res = fredholm_det(system)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.error_estimate < 1e-8

    def test_airy_kernel_stability_under_order_doubling(self):
        v40 = tracy_widom_gue_cdf(-1.0, order=40)
        v80 = tracy_widom_gue_cdf(-1.0, order=80)
        assert abs(v40 - v80) < 1e-8
        # independent high-precision reference (Bornemann's tables)
        assert v40 == pytest.approx(0.807225, abs=5e-5)

    def test_airy_kernel_evaluates_ai_once_per_node(self, monkeypatch):
        from rbmdet import special
        sizes = []
        real = special.airy_pair

        def counting(x):
            sizes.append(np.size(x))
            return real(x)

        monkeypatch.setattr(special, "airy_pair", counting)
        tracy_widom_gue_cdf(-1.0, order=40)
        system = NystromSystem(intervals=((-1.0, 39.0),), order=40,
                               kernel=None, max_panel=1.5)
        assert sizes == [system.size]


def _smooth_two_line_block(i, j, x, y):
    return (i + 1.0) / (j + 2.0) * np.exp(
        -0.3 * (x[:, None] - y[None, :]) ** 2 - 0.1 * np.abs(x[:, None]))


def _smooth_two_line_kernel(xs):
    return np.block([[_smooth_two_line_block(i, j, x, y)
                      for j, y in enumerate(xs)] for i, x in enumerate(xs)])


class TestNystromMatrix:
    def test_formed_in_place_as_the_block_loop_gives(self):
        made = []

        def kernel(xs):
            made.append(_smooth_two_line_kernel(xs))
            return made[-1]

        system = NystromSystem(intervals=((-9.0, 0.4), (-8.2, -1.3)),
                               order=12, kernel=kernel, max_panel=0.7)
        got = system.matrix()
        assert got is made[0]   # no second n x n array
        # the per-block assembly it replaces
        offs = np.cumsum([0] + [s.size for s in system.schemes])
        ref = np.eye(system.size)
        for i, si in enumerate(system.schemes):
            for j, sj in enumerate(system.schemes):
                ref[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] -= \
                    np.sqrt(si.weights)[:, None] \
                    * _smooth_two_line_block(i, j, si.nodes, sj.nodes) \
                    * np.sqrt(sj.weights)[None, :]
        assert np.array_equal(got, ref)


class TestShrunkCut:
    def test_principal_submatrix_is_cut_system(self):
        kw = dict(order=12, kernel=_smooth_two_line_kernel,
                  splits=(-1.3, 0.4), max_panel=0.7)
        system = NystromSystem(intervals=((-9.0, 0.4), (-8.2, -1.3)), **kw)
        keep, cut = system.shrunk_cut(2.0)
        sub = system.matrix()[np.ix_(keep, keep)]
        separate = NystromSystem(intervals=cut, **kw)
        assert sub.shape == (separate.size, separate.size)
        assert np.max(np.abs(sub - separate.matrix())) <= 1e-15
        for (lo, hi), (clo, chi), sch in zip(system.intervals, cut,
                                             system.schemes):
            # snapped to an existing edge at least the shrink inside
            assert hi == chi and clo >= lo + 2.0 and clo in sch.edges

    def test_shrink_capped_at_half_interval(self):
        system = NystromSystem(intervals=((0.0, 1.0),), order=8,
                               kernel=_smooth_two_line_kernel,
                               max_panel=0.1)
        keep, cut = system.shrunk_cut(2.0)
        assert cut[0][0] == pytest.approx(0.5, abs=1e-12)
        assert keep.size == system.size // 2

    def test_fredholm_det_reruns_on_cut_system(self):
        kw = dict(order=12, kernel=_smooth_two_line_kernel,
                  splits=(-1.3, 0.4), max_panel=0.7)
        system = NystromSystem(intervals=((-9.0, 0.4), (-8.2, -1.3)), **kw)
        res = fredholm_det(system, shrink=2.0)
        value = system.det()
        v_half = system._half_order().det()
        v_cut = NystromSystem(intervals=system.shrunk_cut(2.0)[1], **kw).det()
        assert res.value == value
        assert res.error_estimate == pytest.approx(
            abs(value - v_half) + abs(value - v_cut), rel=1e-12, abs=1e-15)


class TestRbmProbability:
    def test_gaussian_degeneracy(self):
        spec = KernelSpec(t=1.0, indices=(1,), ic=idata.packed(0.0))
        for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
            res = rbm_probability(spec, [a])
            assert res.value == pytest.approx(1.0 - float(ndtr(a)),
                                              abs=1e-6)

    def test_kernel_built_for_another_spec_rejected(self):
        # the windows come from the spec and the kernel from kern.spec: a
        # kernel of index 5 once gave index 3's query index 5's 0.0626
        def spec(n):
            return KernelSpec(t=1.0, indices=(n,), ic=idata.packed(0.0))

        with pytest.raises(ValueError, match="another spec"):
            rbm_probability(spec(3), [-2.0], kern=kernel_eval(spec(5)))
        shared = rbm_probability(spec(3), [-2.0], kern=kernel_eval(spec(3)))
        assert shared.value == pytest.approx(0.5565291087324464, abs=1e-6)

    def test_gaussian_shifted_start_and_time(self):
        spec = KernelSpec(t=2.5, indices=(1,), ic=idata.packed(0.7))
        res = rbm_probability(spec, [1.2])
        exact = 1.0 - float(ndtr((1.2 - 0.7) / math.sqrt(2.5)))
        assert res.value == pytest.approx(exact, abs=1e-8)

    def test_probability_bounds_and_monotonicity(self):
        spec = KernelSpec(t=1.0, indices=(3,), ic=idata.packed(0.0))
        grid = np.linspace(-6, 1.5, 9)
        vals = [rbm_probability(spec, [a]).value for a in grid]
        for v in vals:
            assert -1e-9 <= v <= 1 + 1e-9
        assert all(b <= a + 1e-9 for a, b in zip(vals[:-1], vals[1:]))

    def test_refinement_stability(self):
        spec = KernelSpec(t=1.0, indices=(4,), ic=idata.packed(0.0))
        res = rbm_probability(spec, [-3.0], order=24)
        res2 = rbm_probability(spec, [-3.0], order=48)
        assert abs(res.value - res2.value) <= \
            res.error_estimate + res2.error_estimate + 1e-12

    def test_multipoint_hitting_vs_biorth_determinant(self):
        ic = idata.from_positions([0.5, 0.0, -0.5], extend_last=True)
        a = [-1.0, -2.5]
        res_h = rbm_probability(
            KernelSpec(t=1.0, indices=(1, 3), ic=ic), a)
        res_b = rbm_probability(
            KernelSpec(t=1.0, indices=(1, 3), ic=ic,
                       representation="biorth"), a)
        assert res_h.value == pytest.approx(res_b.value, abs=1e-8)
        # joint probability dominated by each marginal
        m1 = rbm_probability(KernelSpec(t=1.0, indices=(1,), ic=ic),
                             [a[0]]).value
        m3 = rbm_probability(KernelSpec(t=1.0, indices=(3,), ic=ic),
                             [a[1]]).value
        assert res_h.value <= min(m1, m3) + 1e-8
        assert res_h.value >= m1 + m3 - 1.0 - 1e-8

    def test_small_time_matches_brownian_scaling(self):
        # the pad at t = 1e-4 is narrower than the default shrink; the law
        # is the one at t = 1, a = 1 under Brownian scaling, i.e. 1 - Phi(1)
        small = rbm_probability(
            KernelSpec(t=1e-4, indices=(1,), ic=idata.packed(0.0)), [0.01])
        unit = rbm_probability(
            KernelSpec(t=1.0, indices=(1,), ic=idata.packed(0.0)), [1.0])
        assert abs(small.value - unit.value) <= \
            1e-6 + small.error_estimate + unit.error_estimate
        assert small.value == pytest.approx(1.0 - float(ndtr(1.0)),
                                            abs=1e-6)

    def test_arity_mismatch(self):
        spec = KernelSpec(t=1.0, indices=(1,), ic=idata.packed(0.0))
        with pytest.raises(ValueError):
            rbm_probability(spec, [0.0, 1.0])

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, a):
        spec = KernelSpec(t=1.0, indices=(1, 2), ic=idata.packed(0.0))
        with pytest.raises(ValueError, match="thresholds a must be finite"):
            rbm_probability(spec, [0.0, a])

    def test_wedge_data_probability(self):
        # four particles at +inf: index 6 is index 2 of the finite
        # particles, index 2 and 4 are sure events
        ic = idata.narrow_wedge_approx([-1.0], eps=0.5)
        spec = KernelSpec(t=1.0, indices=(6,), ic=ic)
        res = rbm_probability(spec, [-6.0])
        assert 0.8 < res.value < 0.9 and res.error_estimate < 1e-13
        assert res == rbm_probability(
            KernelSpec(t=1.0, indices=(2,), ic=replace(ic, n_inf=0)), [-6.0])
        assert res == rbm_probability(replace(spec, indices=(2, 6)),
                                      [0.0, -6.0])
        assert abs(rbm_probability(replace(spec, representation="biorth"),
                                   [-6.0]).value - res.value) <= 1e-15
        sure = rbm_probability(replace(spec, indices=(2, 4)), [0.0, 5.0])
        assert (sure.value, sure.error_estimate) == (1.0, 0.0)

    def test_two_wedges_behind_particles_at_infinity(self):
        # ten particles at +inf, then wedges at levels -10 and -20; the law
        # layer once climbed to the nodes' reach and was 2.1e-11 off with
        # an estimate of 4.4e-16
        spec = KernelSpec(t=1.0, indices=(12, 24),
                          ic=idata.narrow_wedge_approx([-0.5, -1.0], 0.1))
        vals = [rbm_probability(replace(spec, representation=rep),
                                [-12.0, -25.0], target=1e-10)
                for rep in ("hitting", "operator_step", "biorth")]
        assert 0.8 < vals[0].value < 0.9
        assert max(v.value for v in vals) - min(v.value for v in vals) <= 1e-13


class TestLowOrder:
    # the half-order rerun of an order-4 system was floored at order 4, the
    # same system, so orders 2 and 4 returned 0.5006 and 0.5012 for 1/2
    # with an estimate of about 0
    @pytest.mark.parametrize("order", [2, 4])
    def test_packed_half_within_estimate(self, order):
        spec = KernelSpec(t=1.0, indices=(1,), ic=idata.packed(0.0))
        res = rbm_probability(spec, [0.0], order=order)
        assert abs(res.value - 0.5) <= max(res.error_estimate, 1e-15)
        assert res.error_estimate < 1e-6

    @pytest.mark.parametrize("order", [2, 4])
    def test_fixed_point_within_estimate(self, order):
        spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,),
                                 a_out=(0.0,))
        res = sc.fixedpoint_probability(spec, order=order)
        assert abs(res.value - tracy_widom_gue_cdf(0.0)) <= \
            max(res.error_estimate, 1e-15)

    @pytest.mark.parametrize("order", [0, 1])
    def test_order_without_half_rejected(self, order):
        system = NystromSystem(intervals=((0.0, 1.0),), order=2,
                               kernel=lambda xs: np.zeros((xs[0].size,) * 2))
        with pytest.raises(ValueError, match="order >= 2"):
            fredholm_det(replace(system, order=order))


class TestEstimateFloor:
    def test_estimate_never_reads_zero(self):
        # packed n = 30 at the edge: the three runs agree to the last bit
        spec = KernelSpec(t=1.0, indices=(30,), ic=idata.packed(0.0))
        res = rbm_probability(spec, [-2.0 * math.sqrt(30)])
        assert 4.0 * math.ulp(res.value) <= res.error_estimate <= 1e-15

    def test_target_below_the_floor_ends_cleanly(self, monkeypatch):
        # no estimate can reach 1e-17: the first round's sits at its 4-ulp
        # floor, so refinement stops there (it went on to a second round
        # and called the floor a divergence)
        spec = KernelSpec(t=1.0, indices=(30,), ic=idata.packed(0.0))
        ref = rbm_probability(spec, [-2.0 * math.sqrt(30)])
        rounds = []
        real = fr.fredholm_det

        def counting(system, shrink=2.0):
            rounds.append(system.order)
            return real(system, shrink)

        monkeypatch.setattr(fr, "fredholm_det", counting)
        with pytest.raises(ConvergenceError,
                           match="target 1.0e-17 is below the floor") as info:
            rbm_probability(spec, [-2.0 * math.sqrt(30)], target=1e-17)
        assert rounds == [40]
        assert abs(info.value.value - ref.value) <= 1e-15
        assert info.value.error_estimate >= 4.0 * math.ulp(ref.value)


class TestDivergenceStop:
    @pytest.mark.parametrize("n", [100, 200])
    def test_edge_refinement_stops_when_estimate_grows(self, n, monkeypatch):
        # the third round would meet the target; the second already failed
        # to improve on the first, so refinement stops there rather than
        # doubling on
        script = iter([(0.97, 1e-3), (6.5, 13.0), (0.97, 1e-15)])
        rounds = []

        def scripted(system, shrink=2.0):
            rounds.append(system.order)
            value, err = next(script)
            return DetResult(value, err, system.order, 0.0)

        monkeypatch.setattr(fr, "fredholm_det", scripted)
        spec = KernelSpec(t=1.0, indices=(n,), ic=idata.packed(0.0))
        with pytest.raises(ConvergenceError, match="diverges") as info:
            rbm_probability(spec, [-2.0 * math.sqrt(n)])
        assert rounds == [40, 80]
        assert (info.value.value, info.value.error_estimate) == (6.5, 13.0)

    def test_fixed_point_refinement_stops_when_estimate_grows(
            self, monkeypatch):
        # the third round would meet the target; the second already failed
        # to improve on the first, so refinement stops there
        errs = iter([1e-3, 1e-3, 1e-9])

        def scripted(system, shrink=2.0):
            return DetResult(0.5, next(errs), system.order, 0.0)

        monkeypatch.setattr(fr, "fredholm_det", scripted)
        spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,), a_out=(0.0,))
        with pytest.raises(ConvergenceError, match="diverges") as info:
            sc.fixedpoint_probability(spec)
        assert (info.value.value, info.value.error_estimate) == (0.5, 1e-3)
        assert next(errs) == 1e-9


EIGHT_BLOCK_IC = idata.from_positions(
    [2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -1.5], extend_last=True)


def _nw_spec(wedges, eps, x, scale=1.0):
    """Narrow-wedge data at T = 1 with one index line per point x (in
    increasing index order) and its thresholds at a = 0, Brownian-scaled by
    ``scale``: (t, X0, a) -> (ct, sqrt(c) X0, sqrt(c) a)."""
    ic = idata.narrow_wedge_approx(wedges, eps)
    r = math.sqrt(scale)
    ic = idata.InitialCondition(tuple(r * v for v in ic.levels),
                                n_inf=ic.n_inf, extend_last=ic.extend_last)
    pts = sorted(x, key=lambda xx: sc.scale_vars(eps, 1.0, xx, 0.0).n)
    spec = KernelSpec(t=scale * eps ** -1.5,
                      indices=tuple(sc.scale_vars(eps, 1.0, xx, 0.0).n
                                    for xx in pts), ic=ic)
    return spec, [r * sc.scaled_threshold(eps, 1.0, xx, 0.0) for xx in pts]


def _first_round(monkeypatch, query):
    """The system and shrink of the first refinement round of ``query()``."""
    seen = []

    def accept(system, shrink=2.0):
        seen.append((system, shrink))
        return DetResult(0.5, 0.0, system.order, 0.0)

    monkeypatch.setattr(fr, "fredholm_det", accept)
    query()
    monkeypatch.undo()
    return seen[0]


def _factored_two_line_kernel(spread):
    """(kernel, factors) of one kernel A_i^T B_j - walk on two lines, the
    factors on 12 eta nodes with eta row r of A scaled by 2^s_r and of B by
    2^-s_r, s_r from -spread to spread; the kernel does not change."""
    eta = np.linspace(-3.0, 3.0, 12)
    s = np.exp2(np.round(np.linspace(-spread, spread, eta.size)))[:, None]

    def factors(xs):
        facs = [(s * np.exp(-(eta[:, None] - x[None, :]) ** 2) / (i + 2),
                 np.exp(-0.5 * (eta[:, None] - x[None, :]) ** 2) / s)
                for i, x in enumerate(xs)]
        walk = {(0, 1): np.exp(-np.abs(xs[0][:, None] - xs[1][None, :]))}
        return facs, walk

    def kernel(xs):
        facs, walk = factors(xs)
        return np.block([[facs[i][0].T @ facs[j][1] - walk.get((i, j), 0.0)
                          for j in range(2)] for i in range(2)])

    return kernel, factors


class TestFactoredDeterminant:
    """Hitting and biorthogonal systems take their determinants from the
    kernel's layer factors, m x m, where every other system factors its
    N x N matrix."""

    def test_factors_that_split_the_scale_unevenly(self):
        # unbalanced, G would hold entries of 2^1800
        kernel, factors = _factored_two_line_kernel(900)
        dense = NystromSystem(intervals=((-4.0, 1.0), (-5.0, -0.5)),
                              order=12, max_panel=1.0,
                              kernel=_factored_two_line_kernel(0)[0])
        system = replace(dense, kernel=kernel, factors=factors)
        small = system.assemble().matrix()
        assert small.shape == (12, 12)
        assert 0.1 < dense.det() < 0.9
        assert abs(system.det(small) - dense.det()) <= 1e-14
        assert abs(fredholm_det(system).error_estimate
                   - fredholm_det(dense).error_estimate) <= 1e-14

    @pytest.mark.parametrize("spec, a", [
        (KernelSpec(t=1.0, indices=(15,), ic=idata.packed(0.0)),
         [-2.0 * math.sqrt(15)]),
        (KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC), [-0.25, -3.5]),
        # three lines: back substitution through two walk blocks
        (KernelSpec(t=1.0, indices=(2, 5, 9), ic=EIGHT_BLOCK_IC),
         [0.3, -1.2, -3.0]),
        _nw_spec((0.0, -1.0), 0.1, (-0.5, 0.5)),
        (KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC,
                    representation="biorth"), [-0.25, -3.5]),
        # m = 457 rows: the atom's 9 and 448 eta nodes on [L_k, c0]
        (KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC,
                    representation="operator_step"), [-0.25, -3.5]),
    ], ids=["packed15", "step39", "three_lines", "two_wedges", "biorth",
            "operator_step"])
    def test_matches_the_full_matrix(self, spec, a, monkeypatch):
        system, shrink = _first_round(monkeypatch,
                                      lambda: rbm_probability(spec, a))
        assembled = system.assemble()
        small = assembled.matrix()
        assert small.shape[0] < system.size
        full = replace(system, factors=None).matrix()
        keep, _ = system.shrunk_cut(shrink)
        assert keep.size < system.size
        assert abs(system.det(small) - system.det(full)) <= 1e-13
        assert abs(system.det(assembled.matrix(keep))
                   - system.det(full[np.ix_(keep, keep)])) <= 1e-13

    @pytest.mark.parametrize("n", [60, 100, 200, 500])
    def test_packed_edge_at_unit_time_matches_canonical_time(self, n):
        # the same law at t = 1 and, by Brownian scaling, at t = n; at t = 1
        # the layer factors differ by many orders of magnitude from row to
        # row, which unbalanced pivoting does not survive, and at n = 500
        # S and Sbar on one node overflow double range apart
        unit = rbm_probability(
            KernelSpec(t=1.0, indices=(n,), ic=idata.packed(0.0)),
            [-2.0 * math.sqrt(n)])
        canonical = rbm_probability(
            KernelSpec(t=float(n), indices=(n,), ic=idata.packed(0.0)),
            [-2.0 * n])
        assert abs(unit.value - canonical.value) <= 1e-13

    @pytest.mark.parametrize("n", [60, 120])
    def test_packed_edge_operator_step_matches_hitting(self, n):
        # operator_step's own atom rows, from plain per-degree S and Sbar at
        # c0: its eta quadrature above c0 was 1.1e-8 off at n = 60 and
        # diverged at n = 120
        spec = KernelSpec(t=1.0, indices=(n,), ic=idata.packed(0.0))
        vals = [rbm_probability(replace(spec, representation=rep),
                                [-2.0 * math.sqrt(n)]).value
                for rep in ("hitting", "operator_step")]
        assert abs(vals[0] - vals[1]) <= 1e-14

    @pytest.mark.parametrize("first", [170, 175])
    def test_long_first_block(self, first):
        # the laws from the first block's levels onto the second start with
        # a free run of up to `first` steps; past 171 its coefficient
        # 1/(m-1)! leaves the double range (math.gamma overflowed there)
        ic = idata.InitialCondition(tuple([0.0] * first + [-1.0] * 30))
        spec = KernelSpec(t=1.0, indices=(first + 10,), ic=ic)
        step = rbm_probability(replace(spec, representation="operator_step"),
                               [-25.0]).value
        if first > 171:
            assert step == pytest.approx(4.682824443845139e-06, rel=1e-12)
            with pytest.raises(ConvergenceError,
                               match="free run of 175 steps.* at most 171"):
                rbm_probability(spec, [-25.0])
        else:
            assert abs(rbm_probability(spec, [-25.0]).value - step) <= 1e-12

    @pytest.mark.parametrize("eps, x", [(0.1, (-0.5,)), (0.1, (-0.5, 0.5)),
                                        (0.09, (-0.5,))])
    def test_two_wedges_hitting_matches_operator_step(self, eps, x):
        # line 48 at eps = 0.09: Sbar's degree on the law nodes is past
        # their panel order
        spec, a = _nw_spec((0.0, -1.0), eps, x)
        hit = rbm_probability(spec, a).value
        step = rbm_probability(replace(spec, representation="operator_step"),
                               a).value
        assert abs(hit - step) <= 1e-13

    @pytest.mark.parametrize("eps, ref", [(0.05, 0.974704703757723),
                                          (0.03, 0.9671106328727139)])
    def test_two_wedges_match_the_closed_form(self, eps, ref):
        # lines 109 and 226 of the wedges (0, -1) at x = -0.5: their hitting
        # laws from the first level once lost their mass balance (1.2e-6 at
        # eps = 0.05) and raised.  The references sum the two-block kernel
        # in closed form, with no quadrature of the law
        res = rbm_probability(*_nw_spec((0.0, -1.0), eps, (-0.5,)),
                              target=1e-10)
        assert abs(res.value - ref) <= 1e-13

    def test_two_point_narrow_wedge_under_brownian_scaling(self):
        # lines 125 and 193 of one wedge at eps = 0.03; the repeated
        # Gaussian integrals of line 125's atom rows reach e^{+-600} at 4t
        vals = [rbm_probability(*_nw_spec((0.0,), 0.03, (0.0, 1.0),
                                          scale=c)).value
                for c in (0.25, 1.0, 4.0)]
        assert 0.5 < vals[1] < 1.0
        assert max(vals) - min(vals) <= 1e-14

    def test_hermite_steps_per_packed_determinant(self, monkeypatch):
        # the atom needs one recurrence per line to degree n - 1: at most
        # n steps per z node of every assembly, where an eta quadrature of
        # the atom ran n steps per (eta, z) pair
        from rbmdet import kernel, special
        steps, nodes = [], []
        real_logs, real_factors = special._hermite_logs, \
            kernel.ExtendedKernelEval.factors

        def logs(n, x, lowest):
            steps.append(n * np.size(x))
            return real_logs(n, x, lowest)

        def factors(self, zs):
            nodes.append(sum(np.size(z) for z in zs))
            return real_factors(self, zs)

        monkeypatch.setattr(special, "_hermite_logs", logs)
        monkeypatch.setattr(kernel.ExtendedKernelEval, "factors", factors)
        n = 192
        res = rbm_probability(KernelSpec(t=1.0, indices=(n,),
                                         ic=idata.packed(0.0)),
                              [-2.0 * math.sqrt(n)])
        assert 0.9 < res.value < 1.0 and len(nodes) >= 2
        assert sum(steps) <= n * sum(nodes)

    def test_narrow_wedge_at_four_times_the_time(self):
        # the 0.03 narrow wedge at 4t: rows of A reach 2^548 and rows of B
        # 2^-647, so neither squared row norms nor their ratio are finite
        spec, a = _nw_spec((0.0,), 0.03, (0.0,), scale=4.0)
        res = rbm_probability(spec, a)
        assert math.isfinite(res.value) and 0.0 <= res.value <= 1.0
        assert res.error_estimate < 1e-6

    @pytest.mark.parametrize("kind", ["fixed_point", "tracy_widom"])
    def test_other_kernels_keep_the_full_matrix(self, kind, monkeypatch):
        calls = []
        real = NystromSystem.matrix

        def matrix(self):
            calls.append(self.size)
            return real(self)

        monkeypatch.setattr(NystromSystem, "matrix", matrix)
        if kind == "fixed_point":
            sc.fixedpoint_probability(
                sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,),
                                  a_out=(0.0,)), target=1.0, max_rounds=1)
        else:
            tracy_widom_gue_cdf(-1.0)
        assert calls

    def test_hitting_queries_build_no_full_matrix(self, monkeypatch):
        # every RBM representation takes the m x m route, operator_step too
        def matrix(self):
            raise AssertionError("N x N matrix assembled")

        monkeypatch.setattr(NystromSystem, "matrix", matrix)
        for rep in REPRESENTATIONS:
            spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC,
                              representation=rep)
            assert 0.0 < rbm_probability(spec, [-0.25, -3.5]).value < 1.0


# The two callers of the refinement driver, each on a query whose kernel is
# cheap to build, with the schedule each had before the driver was shared,
# written out as the callers wrote it: (order, intervals, shrink) per round.
RBM_T, RBM_A = 1.5, -1.0


def _rbm_query(**kw):
    spec = KernelSpec(t=RBM_T, indices=(2,), ic=idata.packed(0.0))
    return rbm_probability(spec, [RBM_A], **kw)


def _rbm_schedule(rounds):
    t = RBM_T
    order, pad = 40, 10.0 * math.sqrt(t) + (0.0 - 0.0)
    reach = 0.0 - 2.0 * math.sqrt(2 * t)
    out = []
    for _ in range(rounds):
        out.append((order, ((min(RBM_A, reach) - pad, RBM_A),),
                    max(2.0, 0.1 * pad)))
        order = 2 * order
        pad = pad + 3.0 * math.sqrt(t) + 2.0
    return out, pad


FP_SPEC = sc.FixedPointSpec(wedges=(0.0,), T=2.0, x=(0.0,), a_out=(0.5,))


def _fp_query(**kw):
    return sc.fixedpoint_probability(FP_SPEC, **kw)


def _fp_schedule(rounds):
    T = FP_SPEC.T
    order, pad = 32, 16.0 * T ** (1.0 / 3.0) + 2.0 * max(abs(0.0), 1.0)
    out = []
    for _ in range(rounds):
        out.append((order, ((-0.5 - pad, -0.5),), max(2.0, 0.1 * pad)))
        order *= 2
        pad += 6.0 * T ** (1.0 / 3.0)
    return out, pad


CALLERS = {"rbm": (_rbm_query, _rbm_schedule, 4, 1e-14),
           "fixed_point": (_fp_query, _fp_schedule, 3, 1e-13)}


@pytest.fixture
def scripted_det(monkeypatch):
    """Replace fredholm_det by a script of (value, estimate) pairs; returns
    the list of (order, intervals, shrink) each round received."""
    rounds = []

    def install(*script):
        steps = iter(script)

        def det(system, shrink=2.0):
            rounds.append((system.order, system.intervals, shrink))
            value, err = next(steps)
            return DetResult(value, err, system.order, 0.0)

        monkeypatch.setattr(fr, "fredholm_det", det)
        return rounds

    return install


@pytest.mark.parametrize("caller", sorted(CALLERS))
class TestRefine:
    def test_schedule_per_round(self, caller, scripted_det):
        query, schedule, _, _ = CALLERS[caller]
        rounds = scripted_det((0.3, 1e-3), (0.4, 1e-4), (0.5, 1e-9))
        res = query()
        expected, _ = schedule(3)
        # compared with ==: a pad step precomputed as one constant would
        # round differently in the third round of the RBM schedule
        assert rounds == expected
        assert (res.value, res.error_estimate) == (0.5, 1e-9)
        assert res.order_used == expected[-1][0]
        assert res.pad_used == schedule(2)[1]

    def test_stall_carries_last_round(self, caller, scripted_det):
        query, schedule, max_rounds, _ = CALLERS[caller]
        script = [(0.1 * k, 10.0 ** -(k + 2)) for k in range(max_rounds)]
        rounds = scripted_det(*script)
        with pytest.raises(ConvergenceError, match="stalled") as info:
            query(target=1e-12)
        assert rounds == schedule(max_rounds)[0]
        assert (info.value.value, info.value.error_estimate) == script[-1]

    def test_accepted_value_checked_against_unit_interval(
            self, caller, scripted_det):
        query, _, _, floor = CALLERS[caller]
        # an estimate of 0 leaves the caller's floor as the tolerance
        for value in (1.0 + 20 * floor, -20 * floor):
            scripted_det((value, 0.0))
            with pytest.raises(ConvergenceError, match=r"outside \[0, 1\]"):
                query()
        for value in (1.0 + 5 * floor, -5 * floor):
            scripted_det((value, 0.0))
            assert query().value == value

    def test_max_rounds_below_one_rejected(self, caller, scripted_det):
        query = CALLERS[caller][0]
        rounds = scripted_det()
        for max_rounds in (0, -1):
            with pytest.raises(ValueError, match="max_rounds"):
                query(max_rounds=max_rounds)
        assert rounds == []


class TestMemoryBound:
    @pytest.mark.parametrize("rep, dense", [("hitting", False),
                                            ("biorth", False),
                                            ("operator_step", False),
                                            ("fixed_point", True)])
    def test_round_past_the_bound_ends_the_loop(self, rep, dense,
                                                 scripted_det, monkeypatch):
        # the bound is set to the first round's largest block: N x N on the
        # fixed point's dense route; on the m x m route, with m the
        # evaluator's rows, the largest of m x m, m x N_i and the walk block
        # N_1 N_2.  A pad of 1 keeps N small: for operator_step m x m is
        # the largest (m = 457), for the others N_1 N_2.  The second round
        # doubles the order and is never assembled
        if dense:
            query = _fp_query
        else:
            spec = KernelSpec(t=1.0, indices=(3, 9), ic=EIGHT_BLOCK_IC,
                              representation=rep)
            kern = kernel_eval(spec)

            def query():
                return rbm_probability(spec, [-0.25, -3.5], pad=1.0,
                                       kern=kern)
        first, _ = _first_round(monkeypatch, query)
        n = [s.size for s in first.schemes]
        if dense:
            size = 8 * sum(n) ** 2
        else:
            m = kern.rows
            size = 8 * max([m * m, n[0] * n[1]] + [m * k for k in n])
            assert (size == 8 * m * m) == (rep == "operator_step")
        monkeypatch.setattr(fr, "_MAX_BLOCK_BYTES", size)
        rounds = scripted_det((0.3, 1e-3), (0.4, 1e-4))
        with pytest.raises(ConvergenceError, match="byte bound") as info:
            query()
        assert [order for order, _, _ in rounds] == [first.order]
        assert (info.value.value, info.value.error_estimate) == (0.3, 1e-3)
        # a first round past the bound has no value to carry
        monkeypatch.setattr(fr, "_MAX_BLOCK_BYTES", size - 1)
        with pytest.raises(ConvergenceError, match="byte bound") as info:
            query()
        assert (info.value.value, info.value.error_estimate) == (None, None)
        assert len(rounds) == 1

    def test_one_line_counts_its_layer(self, scripted_det, monkeypatch):
        # one line has no walk block, but its m x m matrix and m x N factor
        # count: m = 5 rows on N >= 5 nodes, so m x N is the largest
        spec = KernelSpec(t=1.0, indices=(5,), ic=idata.packed(0.0))
        first, _ = _first_round(monkeypatch,
                                lambda: rbm_probability(spec, [-3.0]))
        size = 8 * 5 * first.size
        scripted_det((0.5, 0.0))
        monkeypatch.setattr(fr, "_MAX_BLOCK_BYTES", size)
        assert rbm_probability(spec, [-3.0]).value == 0.5
        monkeypatch.setattr(fr, "_MAX_BLOCK_BYTES", size - 1)
        with pytest.raises(ConvergenceError, match="byte bound"):
            rbm_probability(spec, [-3.0])

    def test_large_layer_stops_before_assembly(self):
        # packed n = 20,000: m x m alone is 2.98 GiB, and no round starts
        spec = KernelSpec(t=1.0, indices=(20000,), ic=idata.packed(0.0))
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="2.98 GiB"):
            rbm_probability(spec, [-2.0 * math.sqrt(20000)])
        assert time.perf_counter() - start < 1.0


def test_fixed_point_floor_is_its_own(scripted_det):
    # 2e-13 above 1 is inside the fixed point's tolerance (floor 1e-13)
    # and outside the RBM's (floor 1e-14)
    scripted_det((1.0 + 2e-13, 0.0), (1.0 + 2e-13, 0.0))
    assert _fp_query().value == 1.0 + 2e-13
    with pytest.raises(ConvergenceError, match="outside"):
        _rbm_query()
