import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from rbmdet import biorth as bo
from rbmdet import initial_data as idata
from rbmdet.kernel import _s as kernel_s


class TestHeatOnPoly:
    def test_constant_fixed(self):
        out = bo.heat_on_poly(3.7, Polynomial([1.0]))
        assert out.degree() == 0 and out.coef[0] == 1.0

    def test_x_squared_picks_up_s(self):
        out = bo.heat_on_poly(2.5, Polynomial([0.0, 0.0, 1.0]))
        assert np.allclose(out.coef, [2.5, 0.0, 1.0])

    def test_gaussian_convolution_oracle(self):
        # for s > 0 the operator is convolution with N(0, s)
        s = 0.8
        p = Polynomial([0.3, -1.0, 0.5, 0.25])
        out = bo.heat_on_poly(s, p)
        for x in (-1.2, 0.0, 2.3):
            ref = quad(lambda y: p(x - y)
                       * math.exp(-y * y / (2 * s))
                       / math.sqrt(2 * math.pi * s), -12, 12)[0]
            assert out(x) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_group_property(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = Polynomial(rng.uniform(-2, 2, size=int(rng.integers(1, 9))))
            s = float(rng.uniform(0.1, 3.0))
            back = bo.heat_on_poly(-s, bo.heat_on_poly(s, p))
            assert np.allclose(back.coef[:p.coef.size], p.coef, atol=1e-12)


class TestHFamily:
    def test_n1_base_case(self):
        fam = bo.h_family(idata.from_positions([0.4]), 1)
        assert fam[0, 0].coef.tolist() == [1.0]

    def test_n2_packed(self):
        fam = bo.h_family(idata.from_positions([0.0, 0.0]), 2)
        assert np.allclose(fam[1, 0].coef, [0.0, -1.0])

    def test_boundary_and_degree_invariants(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 8):
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            ic = idata.from_positions(lv)
            fam = bo.h_family(ic, n)
            for k in range(n):
                assert fam[k, k].degree() == 0
                for l in range(k):
                    p = fam[k, l]
                    assert p.degree() == k - l
                    assert p(ic.level(n - l)) == pytest.approx(0.0,
                                                               abs=1e-12)

    def test_derivative_identity(self):
        # k-th derivative of h^n_l(0, .) at X0(n-k) is (-1)^k 1{k=l}
        rng = np.random.default_rng(17)
        for n in (3, 6, 8):
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            ic = idata.from_positions(lv)
            fam = bo.h_family(ic, n)
            for k in range(n):
                for l in range(n):
                    p = fam[l, 0]
                    d = p.deriv(k) if k <= p.degree() else Polynomial([0.0])
                    got = float(d(ic.level(n - k)))
                    want = (-1.0) ** k if k == l else 0.0
                    assert got == pytest.approx(want, abs=1e-11)

    def test_infinite_levels_rejected(self):
        ic = idata.from_positions([math.inf, 0.0])
        with pytest.raises(ValueError, match="hitting"):
            bo.h_family(ic, 2)


class TestPsiPhi:
    def test_n1_heat_kernel_and_unit(self):
        ic = idata.from_positions([0.7])
        psi, phi = bo.psi_phi_eval(ic, 1, 0, 1.3, 0.7)
        assert psi == pytest.approx(1 / math.sqrt(2 * math.pi * 1.3),
                                    rel=1e-13)
        assert phi == 1.0

    def test_pairing_integrates_to_one(self):
        ic = idata.from_positions([0.7])
        val = quad(lambda x: bo.psi_phi_eval(ic, 1, 0, 0.9, x)[0], -12, 12)[0]
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_n2_phi_is_linear(self):
        ic = idata.from_positions([0.0, 0.0])
        for x in (-1.0, 0.3, 2.0):
            _, phi = bo.psi_phi_eval(ic, 2, 1, 1.7, x)
            assert phi == pytest.approx(-x, abs=1e-13)


class TestGram:
    def test_n1_unit(self):
        g = bo.gram(idata.from_positions([0.3]), 1, 1.0)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_identity_random_levels(self, t):
        rng = np.random.default_rng(23)
        for n in (4, 8, 12):
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            g = bo.gram(idata.from_positions(lv), n, t)
            assert np.max(np.abs(g - np.eye(n))) < 1e-8


class TestPinv:
    @pytest.mark.parametrize("m", [1, 2, 30, 171, 172, 200, 400])
    def test_against_mpmath(self, m):
        # (m-1)! leaves the double range at m = 172, where 4^171/171! is
        # still 1e-206
        tiny = np.finfo(float).tiny
        d = np.concatenate([np.linspace(-50.0, 50.0, 101), [1e-3, 0.3]])
        got_delta = bo.pinv_delta(m, d, 0.0)
        got_ext = bo.pinv_ext(m, d, 0.0)
        for di, a, b in zip(d, got_delta, got_ext):
            ref = mpmath.mpf(float(di)) ** (m - 1) / mpmath.factorial(m - 1)
            for got, want in ((b, ref), (a, ref if di > 0 else 0)):
                if abs(want) >= tiny:
                    assert abs(got - want) <= 1e-12 * abs(want)
                elif abs(want) < 2.0 ** -1075:
                    assert got == 0.0
                else:   # subnormal: the spacing 2^-1074 adds to the bound
                    assert abs(got - want) <= 1e-12 * abs(want) + 2.0 ** -1074

    def test_unit_and_diagonal(self):
        assert bo.pinv_delta(1, 0.7, 0.2) == 1.0
        assert bo.pinv_ext(1, -0.7, 0.2) == 1.0
        assert bo.pinv_ext(1, 0.2, 0.2) == 1.0
        for m in (1, 2, 200):
            assert bo.pinv_delta(m, 0.2, 0.2) == 0.0
            assert bo.pinv_delta(m, -0.3, 0.2) == 0.0
        assert bo.pinv_ext(2, 0.2, 0.2) == 0.0
        assert bo.pinv_ext(200, 0.2, 0.2) == 0.0
        assert bo.pinv_delta(200, 1.0, 0.0) == 0.0   # 1/199! underflows

    def test_high_degree_g0n_is_finite(self):
        ic = idata.from_positions([0.0, -1.0], extend_last=True)
        for n in (172, 200):
            v = bo.g0n_eval(ic, n, -0.5, 0.3, method="hitting")
            assert math.isfinite(v)


class TestG0n:
    def test_n1_indicator(self):
        ic = idata.from_positions([0.25])
        assert bo.g0n_eval(ic, 1, 1.0, 0.9, "biorth") == 1.0
        assert bo.g0n_eval(ic, 1, 1.0, 0.9, "hitting") == 1.0
        assert bo.g0n_eval(ic, 1, -1.0, 0.9, "biorth") == 0.0
        assert bo.g0n_eval(ic, 1, -1.0, 0.9, "hitting") == 0.0
        # exactly on the level the two differ only on that null set
        assert bo.g0n_eval(ic, 1, 0.25, 0.9, "biorth") == 0.0
        assert bo.g0n_eval(ic, 1, 0.25, 0.9, "hitting") == 1.0

    def test_methods_agree_off_levels(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 6):
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            ic = idata.from_positions(lv, extend_last=True)
            for _ in range(25):
                x1 = float(rng.uniform(-3.5, 3.5))
                if min(abs(x1 - v) for v in lv) < 1e-3:
                    continue
                x2 = float(rng.uniform(-3.5, 3.5))
                a = bo.g0n_eval(ic, n, x1, x2, "biorth")
                b = bo.g0n_eval(ic, n, x1, x2, "hitting")
                assert a == pytest.approx(b, abs=1e-8, rel=1e-8)

    def test_polynomial_in_second_argument(self):
        rng = np.random.default_rng(37)
        n = 5
        lv = np.sort(rng.uniform(-1, 1, n))[::-1]
        ic = idata.from_positions(lv, extend_last=True)
        x1 = 1.7
        xs = np.linspace(-2, 2, 31)
        vals = bo.g0n_eval(ic, n, x1, xs, "biorth")
        coef = np.polynomial.polynomial.polyfit(xs, vals, n - 1)
        resid = np.max(np.abs(
            np.polynomial.polynomial.polyval(xs, coef) - vals))
        assert resid < 1e-9


class TestRepeatedGaussianIntegral:
    def test_against_quadrature(self):
        for m in (0, 1, 2, 4, 7):
            for w in (-2.0, -0.3, 0.0, 1.1, 3.0):
                got = float(bo.gauss_repeated_integral(m, w))
                if m == 0:
                    ref = math.exp(-w * w / 2) / math.sqrt(2 * math.pi)
                else:
                    ref = quad(
                        lambda s: (w - s) ** (m - 1) / math.factorial(m - 1)
                        * math.exp(-s * s / 2) / math.sqrt(2 * math.pi),
                        -40, w)[0]
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)

    # log J_m(w) = log(e^{-w^2/4} D_{-m}(-w) / sqrt(2 pi)), computed with
    # mpmath's pcfd at 60 digits and rounded to double
    PCFD_LOG_J = [
        (1, -10.0, '-0x1.a9d9ac076c031p+5'),
        (2, -5.0, '-0x1.0be8a856000f4p+4'),
        (3, -1.0, '-0x1.a3b2cd8e21849p+1'),
        (8, -1.2, '-0x1.2854d73183594p+3'),
        (8, -3.0, '-0x1.081206ca445cap+4'),
        (10, -10.0, '-0x1.29c431b8fdf7cp+6'),
        (20, -2.0, '-0x1.f23a1dd837ad6p+4'),
        (30, -5.0, '-0x1.1eabc132dcde4p+6'),
        (66, -10.0, '-0x1.b2d92acd90573p+7'),
        (200, -1.0, '-0x1.bd797d00c7f22p+8'),
        (200, -0.5, '-0x1.b638d5e37ccbdp+8'),
        (12, -40.0, '-0x1.a69dee5ac8190p+9'),
        (2, -1000.0, '-0x1.e84baf0143580p+18'),
        (50, 0.0, '-0x1.2841f7833759cp+6'),
        (5, 2.0, '0x1.2a7e9598112e4p-1'),
        (100, 30.0, '-0x1.18604c5a101e9p+4'),
    ]

    @pytest.mark.parametrize("m, w, ref", PCFD_LOG_J)
    def test_log_against_pcfd(self, m, w, ref):
        # the forward recurrence was off by 4.7e-2 relative at J_10(-10),
        # 1.7e3 at J_30(-5) and 2e37 at J_66(-10)
        ref = float.fromhex(ref)
        tol = 1e-14 * max(1.0, abs(ref))
        rows = bo.log_gauss_repeated_integrals(m, np.array([w, w]))
        assert rows.shape == (m, 2)
        assert np.all(np.abs(rows[-1] - ref) <= tol)
        assert bo.log_gauss_repeated_integrals(m, w).shape == (m,)
        if abs(ref) < 700:
            assert float(bo.gauss_repeated_integral(m, w)) == pytest.approx(
                math.exp(ref), rel=1e-13)

    def test_every_row_is_its_own_degree(self):
        # row m - 1 of a run to 12 is the last row of a run to m, whichever
        # way each run goes at each point
        w = np.array([-30.0, -4.0, -1.0, -0.2, 0.0, 0.7, 5.0])
        rows = bo.log_gauss_repeated_integrals(12, w)
        for m in range(1, 13):
            last = bo.log_gauss_repeated_integrals(m, w)[-1]
            assert np.all(np.abs(rows[m - 1] - last)
                          <= 1e-14 * np.maximum(1.0, np.abs(last)))

    def test_tail_underflows_to_zero_without_overflow(self):
        # S(t, -m) at x = z1 - z2 is e^x t^{(m-1)/2} J_m(-x/sqrt(t)); at
        # x = 800, e^x alone overflows, and the product was inf * 0
        got = kernel_s(1.0, -3, np.array([800.0, 1.0]))
        assert got[0] == 0.0
        ref = math.exp(1.0 + float.fromhex(self.PCFD_LOG_J[2][2]))
        assert got[1] == pytest.approx(ref, rel=1e-14)
