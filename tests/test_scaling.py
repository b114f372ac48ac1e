import math

import numpy as np
import pytest
from scipy.integrate import quad

from rbmdet import scaling as sc
from rbmdet import special
from rbmdet.fredholm import NystromSystem


class TestScaleVars:
    def test_origin_point(self):
        eps, T = 0.04, 1.3
        sv = sc.scale_vars(eps, T, 0.0, 0.0)
        assert sv.t == pytest.approx(eps ** -1.5 * T)
        assert sv.n == round(eps ** -1.5 * T)
        assert sv.z == pytest.approx(-2 * eps ** -1.5 * T)

    def test_unit_eps_arithmetic(self):
        sv = sc.scale_vars(1.0, 4.0, 1.0, 0.0)
        assert sv.n == 2 and sv.t == 4.0

    def test_rounding_recorded_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            eps = float(rng.uniform(0.02, 0.4))
            sv = sc.scale_vars(eps, 1.0, float(rng.uniform(-0.5, 0.2)), 0.0)
            assert abs(sv.rounding) <= 0.5
            assert sv.n == round(sv.n_exact)

    def test_too_large_eps_rejected(self):
        with pytest.raises(ValueError):
            sc.scale_vars(1.0, 1.0, 2.0, 0.0)


class TestScaledKernels:
    def test_pointwise_convergence_at_origin(self):
        tgt = sc.s_fp(1.0, 0.0, 0.0)
        errs_s, errs_sb = [], []
        for eps in (1e-2, 1e-3, 1e-4):
            se, sbe = sc.scaled_kernels(eps, 1.0, 0.0, 0.0, 0.0)
            errs_s.append(abs(se - tgt))
            errs_sb.append(abs(sbe - tgt))
        assert errs_s[0] > errs_s[1] > errs_s[2]
        assert errs_sb[0] > errs_sb[1] > errs_sb[2]

    def test_pointwise_convergence_off_origin(self):
        # nonzero x pins the sign conventions of the limit formula
        T, x = 1.4, 0.35
        for v, u in [(0.2, -0.4), (0.0, 0.8)]:
            tgt = sc.s_fp(T, x, v - u)
            tgt_b = sc.s_fp(T, -x, v - u)
            prev = prev_b = None
            for eps in (1e-2, 1e-3, 1e-4):
                se, sbe = sc.scaled_kernels(eps, T, x, v, u)
                if prev is not None:
                    assert abs(se - tgt) < prev
                    assert abs(sbe - tgt_b) < prev_b
                prev, prev_b = abs(se - tgt), abs(sbe - tgt_b)
            assert prev < 0.02

    def test_exponential_decay_bound(self):
        # |S^eps(w)| <= C e^{-w} in the convolution argument w = v - u,
        # with the fitted C stable as eps decreases
        ws = np.linspace(-1.0, 6.0, 30)
        cs = []
        for eps in (0.05, 0.02, 0.008):
            vals = np.array([abs(sc.scaled_kernels(eps, 1.0, 0.0, w, 0.0)[0])
                             for w in ws])
            cs.append(float(np.max(vals * np.exp(ws))))
        assert max(cs) < 8.0
        assert max(cs) / min(cs) < 2.0

    def test_limit_kernel_is_airy_at_unit_time(self):
        ws = np.linspace(-3, 4, 40)
        assert np.allclose(sc.s_fp(1.0, 0.0, ws), special.airy_eval(ws),
                           rtol=0, atol=1e-12)


class TestFixedPointKernel:
    def test_single_wedge_cdf_structure(self):
        values = []
        for a in (-4.0, -2.0, 0.0, 2.0, 4.0):
            spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,),
                                     a_out=(a,))
            values.append(sc.fixedpoint_probability(spec).value)
        assert all(b > a for a, b in zip(values[:-1], values[1:]))
        assert values[0] < 0.01 and values[-1] > 0.999

    def test_two_wedge_inner_factor_is_heat_kernel(self):
        # direct Gaussian-integral oracle for the diffusion-2 propagator
        g = 0.6
        for x, y in [(0.3, 1.1), (2.0, 0.2)]:
            ref = quad(lambda s: math.exp(-(x - s) ** 2 / (4 * g * 0.5))
                       / math.sqrt(4 * math.pi * g * 0.5)
                       * math.exp(-(s - y) ** 2 / (4 * g * 0.5))
                       / math.sqrt(4 * math.pi * g * 0.5),
                       -30, 30)[0]
            assert sc.heat2(g, x, y) == pytest.approx(ref, rel=1e-9)

    def test_equal_points_drop_first_term(self):
        spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.3, 0.3),
                                 a_out=(0.0, 0.0))
        kern = sc.FixedPointKernel(spec)
        a = kern.block(0, 1, np.array([-1.0]), np.array([-2.0]))[0, 0]
        b = kern.block(0, 0, np.array([-1.0]), np.array([-2.0]))[0, 0]
        assert a == pytest.approx(b, rel=1e-13)

    def test_shift_invariance_at_kernel_level(self):
        c = 0.8
        s1 = sc.FixedPointSpec(wedges=(-0.5, -1.3), T=1.2, x=(0.2,),
                               a_out=(0.0,))
        s2 = sc.FixedPointSpec(wedges=(-0.5 - c, -1.3 - c), T=1.2,
                               x=(0.2 - c,), a_out=(0.0,))
        k1 = sc.FixedPointKernel(s1)
        k2 = sc.FixedPointKernel(s2)
        ui = np.array([-1.5, 0.3])
        uj = np.array([-2.0, 1.0])
        assert np.allclose(k1.block(0, 0, ui, uj), k2.block(0, 0, ui, uj),
                           rtol=1e-12, atol=1e-14)

    def test_two_wedge_kernel_against_brute_force(self):
        spec = sc.FixedPointSpec(wedges=(-0.4, -1.0), T=1.0, x=(0.0,),
                                 a_out=(0.0,))
        kern = sc.FixedPointKernel(spec)
        ui, uj = -0.7, -1.2
        got = kern.block(0, 0, np.array([ui]), np.array([uj]))[0, 0]
        a1, a2 = spec.wedges
        t1 = quad(lambda v: sc.s_fp(1.0, -a1, v - ui)
                  * sc.s_fp(1.0, a1, v - uj), 0, 40, limit=300)[0]
        t2 = quad(lambda v: sc.s_fp(1.0, -a2, v - ui)
                  * sc.s_fp(1.0, a2, v - uj), 0, 40, limit=300)[0]
        inner = quad(
            lambda v1: sc.s_fp(1.0, -a1, v1 - ui) * quad(
                lambda v2: sc.heat2(a1 - a2, v1, v2)
                * sc.s_fp(1.0, a2, v2 - uj), 0, 30, limit=200)[0],
            0, 30, limit=200)[0]
        ref = t1 + t2 - inner
        assert got == pytest.approx(ref, rel=1e-7)


def _fp_block_per_subset(kern, i, j, ui, uj):
    """The fixed-point block with every S_fp factor recomputed per wedge
    subset, as a reference for the memoized block."""
    from itertools import combinations
    spec = kern.spec
    xi, xj = spec.x[i], spec.x[j]
    out = np.zeros((ui.size, uj.size))
    if xi > xj:
        out -= sc.heat2(xi - xj, ui[:, None], uj[None, :])
    sch = kern._v_scheme(float(max(ui.max(), uj.max(), 0.0)) + kern.v_pad)
    nodes, w = sch.nodes, sch.weights
    for k in range(1, len(spec.wedges) + 1):
        sign = 1.0 if (k + 1) % 2 == 0 else -1.0
        for picks in combinations(range(len(spec.wedges)), k):
            aks = [spec.wedges[p] for p in picks]
            carry = sc.s_fp(spec.T, xi - aks[0],
                            nodes[:, None] - ui[None, :]) * w[:, None]
            for r in range(1, k):
                mid = sc.heat2(aks[r - 1] - aks[r], nodes[:, None],
                               nodes[None, :])
                carry = (carry.T @ mid).T * w[:, None]
            right = sc.s_fp(spec.T, -xj + aks[-1],
                            nodes[:, None] - uj[None, :])
            out += sign * (carry.T @ right)
    return out


class TestFixedPointFactorMemo:
    def test_two_wedge_block_matches_per_subset_loop(self):
        spec = sc.FixedPointSpec(wedges=(0.0, -1.0), T=1.0, x=(0.0, 0.5),
                                 a_out=(0.0, 0.5))
        kern = sc.FixedPointKernel(spec)
        u = [np.linspace(-6.0, 0.0, 7), np.linspace(-5.5, -0.5, 5),
             np.array([-3.0, -1.0])]
        # repeated and interleaved (point, node set) requests
        for i, j, a, b in [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0),
                           (1, 1, 1, 1), (0, 1, 2, 1), (0, 0, 0, 0),
                           (1, 0, 1, 2)]:
            got = kern.block(i, j, u[a], u[b])
            ref = _fp_block_per_subset(kern, i, j, u[a], u[b])
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
        # one entry per (point, offset x - a) and side; 0 and -0 coincide
        assert len(kern._factors) <= 7

    def test_one_v_grid_per_assembly(self, monkeypatch):
        # a negative threshold puts u nodes above 0; every block must still
        # use the one v grid, or the memo rebuilds factors it already had
        spec = sc.FixedPointSpec(wedges=(0.0, -1.0), T=1.0, x=(0.0, 0.5),
                                 a_out=(-1.0, 0.5))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return s_fp(*args, **kwargs)

        s_fp = sc.s_fp
        monkeypatch.setattr(sc, "s_fp", counted)
        kern = sc.FixedPointKernel(spec, order=24)
        pad = 18.0
        NystromSystem(intervals=tuple((-a - pad, -a) for a in spec.a_out),
                      order=32, block_fn=kern.block, max_panel=1.2).matrix()
        assert len(calls) == 7
        assert len(kern._schemes) == 1


class TestFixedPointSharedFactors:
    @pytest.mark.parametrize("T", [1.0, 2.3])
    @pytest.mark.parametrize("x", [0.0, 0.35, -1.5])
    def test_shared_airy_matches_two_calls(self, T, x):
        # the w grid puts Airy arguments on both sides of the switch at 8
        w = np.linspace(-6.0, 30.0, 97)[:, None] - np.array([[0.0, 2.5]])
        arg = T ** (-1.0 / 3.0) * w + T ** (-4.0 / 3.0) * x * x
        assert np.any(arg > 8.0) and np.any(arg <= 8.0)
        airy = sc._fp_airy(T, x, w)
        for xs in (x, -x):
            assert np.array_equal(sc.s_fp(T, xs, w, airy=airy),
                                  sc.s_fp(T, xs, w))
        for wv in (0.3, 20.0):   # one branch each, scalar w
            airy = sc._fp_airy(T, x, wv)
            for xs in (x, -x):
                assert sc.s_fp(T, xs, wv, airy=airy) == sc.s_fp(T, xs, wv)

    def test_one_airy_pass_per_point_and_wedge(self, monkeypatch):
        # offsets x_i - a_k and a_k - x_i share their Airy argument: one
        # evaluation per (point, wedge) per assembly, none on a repeat
        spec = sc.FixedPointSpec(wedges=(0.0, -1.0), T=1.0, x=(0.0, 0.5),
                                 a_out=(0.0, 0.5))
        points = []

        def counting(name):
            real = getattr(special, name)

            def run(x):
                points.append(np.size(x))
                return real(x)
            return run

        for name in ("airy_eval", "airy_log_pos"):
            monkeypatch.setattr(special, name, counting(name))
        kern = sc.FixedPointKernel(spec, order=24)
        pad = 18.0
        system = NystromSystem(
            intervals=tuple((-a - pad, -a) for a in spec.a_out), order=32,
            block_fn=kern.block, max_panel=1.2)
        system.matrix()
        (sch,) = kern._schemes.values()
        per_point = [sch.size * s.size for s in system.schemes]
        assert sum(points) == len(spec.wedges) * sum(per_point)
        del points[:]
        system.matrix()
        assert points == []

    def test_heat_propagators_once_per_gap(self, monkeypatch):
        spec = sc.FixedPointSpec(wedges=(0.0, -1.0, -2.5), T=1.0,
                                 x=(0.0, 0.5), a_out=(0.0, 0.5))
        u = [np.linspace(-6.0, 0.0, 7), np.linspace(-5.5, -0.5, 5)]
        requests = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)]
        kern = sc.FixedPointKernel(spec, order=24)
        refs = [_fp_block_per_subset(kern, i, j, u[i], u[j])
                for i, j in requests]
        gaps = []

        def counting(g, x, y):
            gaps.append(g)
            return heat2(g, x, y)

        heat2 = sc.heat2
        monkeypatch.setattr(sc, "heat2", counting)
        for (i, j), ref in zip(requests, refs):
            assert np.array_equal(kern.block(i, j, u[i], u[j]), ref)
        # wedge gaps 1, 1.5 and 2.5 once each on the one v grid; the point
        # gap 0.5 of block (1, 0) is not a propagator between wedges
        assert sorted(gaps) == [0.5, 1.0, 1.5, 2.5]


class TestFixedPointProbability:
    @pytest.mark.parametrize("a", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_single_wedge_matches_tracy_widom(self, a):
        spec = sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,), a_out=(a,))
        fp = sc.fixedpoint_probability(spec).value
        tw = sc.tracy_widom_gue_cdf(a)
        assert fp == pytest.approx(tw, abs=1e-6)

    def test_nonunit_time_reduces_to_rescaled_tw(self):
        T = 2.0
        spec = sc.FixedPointSpec(wedges=(0.0,), T=T, x=(0.0,), a_out=(0.5,))
        fp = sc.fixedpoint_probability(spec).value
        assert fp == pytest.approx(sc.tracy_widom_gue_cdf(0.5 * T ** (-1 / 3)),
                                   abs=1e-6)

    def test_spatial_stationarity_of_marginal(self):
        base = sc.fixedpoint_probability(
            sc.FixedPointSpec(wedges=(0.0,), T=1.0, x=(0.0,),
                              a_out=(-0.5,))).value
        shifted = sc.fixedpoint_probability(
            sc.FixedPointSpec(wedges=(-0.9,), T=1.0, x=(-0.9,),
                              a_out=(-0.5,))).value
        assert base == pytest.approx(shifted, abs=1e-8)


class TestConvergenceStudy:
    def test_monotone_within_errors_and_final_gap(self):
        rows = sc.convergence_study([0.0], 1.0, [0.0], [0.0],
                                    [0.2, 0.1, 0.05])
        assert all(r.skipped is None for r in rows)
        for a, b in zip(rows[:-1], rows[1:]):
            assert b.abs_err <= a.abs_err + a.combined_err + b.combined_err
        assert rows[-1].abs_err < 0.02

    def test_clean_epsilons_strictly_monotone(self):
        eps = [n ** (-2.0 / 3.0) for n in (11, 32, 89)]
        rows = sc.convergence_study([0.0], 1.0, [0.0], [0.0], eps)
        gaps = [r.abs_err for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-4

    def test_infeasible_eps_skipped_with_report(self):
        rows = sc.convergence_study([0.0], 1.0, [0.6], [0.0], [0.9, 0.04])
        assert rows[0].skipped is not None
        assert rows[1].skipped is None
