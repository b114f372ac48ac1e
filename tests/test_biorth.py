import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from rbmdet import biorth as bo
from rbmdet import initial_data as idata


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
