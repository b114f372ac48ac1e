import math

import numpy as np
import pytest
from scipy.special import ndtr

from rbmdet import fredholm as fr
from rbmdet import initial_data as idata
from rbmdet import scaling as sc
from rbmdet.errors import ConvergenceError
from rbmdet.fredholm import (DetResult, NystromSystem, fredholm_det,
                             rbm_probability)
from rbmdet.kernel import KernelSpec
from rbmdet.quad import build_scheme
from rbmdet.scaling import tracy_widom_gue_cdf


class TestBuildQuadrature:
    def test_order_two_nodes(self):
        sch = build_scheme([(-1.0, 1.0)], order=2)
        assert np.allclose(sorted(sch.nodes), [-1 / math.sqrt(3),
                                               1 / math.sqrt(3)])
        assert np.allclose(sch.weights, [1.0, 1.0])

    def test_polynomial_exactness(self):
        sch = build_scheme([(0.0, 1.0)], order=2)
        assert sch.integrate(sch.nodes ** 2) == pytest.approx(1 / 3,
                                                              abs=1e-15)
        assert sch.integrate(sch.nodes ** 3) == pytest.approx(1 / 4,
                                                              abs=1e-15)

    def test_split_point_honored(self):
        sch = build_scheme([(0.0, 2.0)], order=8, splits=(0.7,))
        edges = sch.edges[0]
        assert 0.7 in edges.tolist()
        # no node straddles: each panel lies on one side of the split
        assert not np.any((sch.nodes > 0.7 - 1e-12)
                          & (sch.nodes < 0.7 + 1e-12))


class TestFredholmDet:
    def test_zero_kernel(self):
        system = NystromSystem(intervals=((0.0, 5.0),), order=16,
                               block_fn=lambda i, j, x, y: np.zeros(
                                   (x.size, y.size)))
        assert system.det() == 1.0

    def test_rank_one_exponential(self):
        system = NystromSystem(
            intervals=((0.0, 30.0),), order=24, max_panel=2.0,
            block_fn=lambda i, j, x, y: np.exp(-x[:, None] - y[None, :]),
            pad_side="upper")
        res = fredholm_det(system)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.error_estimate < 1e-8

    def test_airy_kernel_stability_under_order_doubling(self):
        v40 = tracy_widom_gue_cdf(-1.0, order=40)
        v80 = tracy_widom_gue_cdf(-1.0, order=80)
        assert abs(v40 - v80) < 1e-8
        # independent high-precision reference (Bornemann's tables)
        assert v40 == pytest.approx(0.807225, abs=5e-5)


def _smooth_two_line_block(i, j, x, y):
    return (i + 1.0) / (j + 2.0) * np.exp(
        -0.3 * (x[:, None] - y[None, :]) ** 2 - 0.1 * np.abs(x[:, None]))


class TestShrunkCut:
    @pytest.mark.parametrize("pad_side", ["lower", "upper"])
    def test_principal_submatrix_is_cut_system(self, pad_side):
        kw = dict(order=12, block_fn=_smooth_two_line_block,
                  splits=(-1.3, 0.4), max_panel=0.7, pad_side=pad_side)
        system = NystromSystem(intervals=((-9.0, 0.4), (-8.2, -1.3)), **kw)
        keep, cut = system.shrunk_cut(2.0)
        sub = system.matrix()[np.ix_(keep, keep)]
        separate = NystromSystem(intervals=cut, **kw)
        assert sub.shape == (separate.size, separate.size)
        assert np.max(np.abs(sub - separate.matrix())) <= 1e-15
        for (lo, hi), (clo, chi), sch in zip(system.intervals, cut,
                                             system.schemes):
            # snapped to an existing edge at least the shrink inside
            if pad_side == "lower":
                assert hi == chi and clo >= lo + 2.0 and clo in sch.edges[0]
            else:
                assert lo == clo and chi <= hi - 2.0 and chi in sch.edges[0]

    def test_shrink_capped_at_half_interval(self):
        system = NystromSystem(intervals=((0.0, 1.0),), order=8,
                               block_fn=_smooth_two_line_block,
                               max_panel=0.1)
        keep, cut = system.shrunk_cut(2.0)
        assert cut[0][0] == pytest.approx(0.5, abs=1e-12)
        assert keep.size == system.size // 2

    def test_fredholm_det_reruns_on_cut_system(self):
        kw = dict(order=12, block_fn=_smooth_two_line_block,
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

    def test_conjugation_invariance(self):
        ic = idata.from_positions([0.5, 0.0, -0.5], extend_last=True)
        av = [-1.0, -2.5]
        r1 = rbm_probability(KernelSpec(t=1.0, indices=(1, 3), ic=ic,
                                        conjugated=True), av)
        r2 = rbm_probability(KernelSpec(t=1.0, indices=(1, 3), ic=ic,
                                        conjugated=False), av)
        assert r1.value == pytest.approx(r2.value, abs=1e-8)

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

    def test_wedge_data_probability(self):
        # leading-infinity data exercise the no-atom branch end to end
        ic = idata.narrow_wedge_approx([-1.0], eps=0.5)
        spec = KernelSpec(t=1.0, indices=(6,), ic=ic)
        res = rbm_probability(spec, [-6.0])
        assert 0.0 <= res.value <= 1.0
        assert res.error_estimate < 1e-6


class TestDivergenceStop:
    @pytest.mark.parametrize("n", [100, 200])
    def test_edge_refinement_stops_when_estimate_grows(self, n, monkeypatch):
        # packed data at the spectral edge at t = 1: the estimate grows from
        # round 1 to round 2, and doubling on would exhaust memory
        rounds = []

        def counted(system, shrink=2.0):
            rounds.append(fredholm_det(system, shrink))
            return rounds[-1]

        monkeypatch.setattr(fr, "fredholm_det", counted)
        spec = KernelSpec(t=1.0, indices=(n,), ic=idata.packed(0.0))
        with pytest.raises(ConvergenceError, match="diverges") as info:
            rbm_probability(spec, [-2.0 * math.sqrt(n)])
        assert len(rounds) == 2
        assert rounds[1].error_estimate >= rounds[0].error_estimate
        assert info.value.value == rounds[1].value
        assert info.value.error_estimate == rounds[1].error_estimate

    def test_fixed_point_refinement_stops_when_estimate_grows(
            self, monkeypatch):
        # the third round would meet the target; the second already failed
        # to improve on the first, so refinement stops there
        errs = iter([1e-3, 1e-3, 1e-9])

        def scripted(system, shrink=2.0):
            return DetResult(0.5, next(errs), system.order, 0.0)

        monkeypatch.setattr(sc, "fredholm_det", scripted)
        spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,), a_out=(0.0,))
        with pytest.raises(ConvergenceError, match="diverges") as info:
            sc.fixedpoint_probability(spec)
        assert (info.value.value, info.value.error_estimate) == (0.5, 1e-3)
        assert next(errs) == 1e-9
