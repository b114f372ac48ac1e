import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from scipy.special import airy as scipy_airy
from scipy.special import gammaincc, gammaln, log_ndtr

from rbmdet import special as sp


def rodrigues_hermite(k):
    """Symbolic H_k from the Rodrigues formula (oracle)."""
    x = sympy.Symbol("x")
    expr = (-1) ** k * sympy.exp(x * x / 2) * sympy.diff(
        sympy.exp(-x * x / 2), x, k)
    return sympy.lambdify(x, sympy.expand(expr), "numpy")


def hermite(k, x):
    """H_k(x) = sqrt(k!) * H_k(x)/sqrt(k!) from the normalized recurrence."""
    la, sg = sp.hermite_normed_log(k, x)
    return float(sg * np.exp(la)) * math.sqrt(math.factorial(k))


def exact_hermite(k, x):
    """H_k(x), k >= 1, by the three-term recurrence in exact rational
    arithmetic at the float x (oracle)."""
    x = Fraction(x)
    h_prev, h = Fraction(1), x
    for j in range(1, k):
        h_prev, h = h, x * h - j * h_prev
    return h


class TestHermite:
    def test_h0_is_one(self):
        assert hermite(0, 17.3) == 1.0

    def test_h1_identity(self):
        assert hermite(1, 3.2) == pytest.approx(3.2, rel=1e-15)

    def test_h2_from_rodrigues(self):
        # symbolic differentiation gives H_2(x) = x^2 - 1
        assert hermite(2, 2.0) == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("k", range(3, 11))
    def test_rodrigues_oracle_small_degrees(self, k):
        oracle = rodrigues_hermite(k)
        for x in np.linspace(-3.5, 3.5, 29):
            ref = float(oracle(x))
            got = hermite(k, float(x))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_normalized_values_stay_finite(self):
        for k in (500, 1000, 2000):
            x = 3.0 * math.sqrt(k)
            la, sg = sp.hermite_normed_log(k, x)
            assert math.isfinite(la) and sg in (-1.0, 0.0, 1.0)
            la2, _ = sp.hermite_normed_log(k, -x)
            assert math.isfinite(la2)

    def test_normed_log_matches_direct(self):
        for k in (5, 30, 120):
            for x in (-4.0, 0.7, 9.0):
                ref = float(exact_hermite(k, x))
                assert hermite(k, x) == pytest.approx(ref, rel=1e-11)



def reference_hermite_normed_log(n, x):
    """The whole-array recurrence with a rescale scan on every step: the
    loop the bound-gated, in-place one must reproduce bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h_prev = np.ones_like(x)
    logscale = np.zeros_like(x)
    if n == 0:
        h = h_prev
    else:
        h = x.copy()
        for k in range(1, n):
            h_prev, h = h, (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1)
            m = np.abs(h)
            need = m > sp._BIG
            if np.any(need):
                f = np.where(need, m, 1.0)
                h = h / f
                h_prev = h_prev / f
                logscale = logscale + np.log(f)
    with np.errstate(divide="ignore"):
        logabs = np.log(np.abs(h)) + logscale
    return logabs, np.sign(h)


def reference_tail_sums(x):
    """All 26 terms of the exponential-tail series for Ai and Ai'."""
    zeta = 2.0 / 3.0 * x ** 1.5
    zi = 1.0 / zeta
    s_ai = np.zeros_like(x)
    s_aip = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(26):
        s_ai += sp._ASY_C[k] * term
        s_aip += sp._ASY_D[k] * term
        term = term * (-zi)
    return zeta, s_ai, s_aip


def assert_bitwise(got, ref):
    assert got[0].shape == ref[0].shape
    assert np.array_equal(got[0], ref[0], equal_nan=True)
    assert np.array_equal(got[1], ref[1], equal_nan=True)


C = 8192


class TestHermiteChunked:
    @pytest.mark.parametrize("size", [1, C - 1, C, C + 1, 3 * C + 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 193])
    def test_sizes_and_degrees(self, size, n):
        rng = np.random.default_rng([size, n])
        x = rng.normal(scale=2.0 * math.sqrt(n + 1), size=size)
        assert_bitwise(sp.hermite_normed_log(n, x),
                       reference_hermite_normed_log(n, x))

    @pytest.mark.parametrize("n", [0, 1, 2, 193])
    def test_shapes(self, n):
        x2 = np.linspace(-30.0, 30.0, 3 * 7).reshape(3, 7)
        got = sp.hermite_normed_log(n, x2)
        assert got[0].shape == got[1].shape == (3, 7)
        ref = reference_hermite_normed_log(n, x2.ravel())
        assert_bitwise((got[0].ravel(), got[1].ravel()), ref)
        x1 = x2[1]
        assert_bitwise(sp.hermite_normed_log(n, x1),
                       reference_hermite_normed_log(n, x1))
        la, sg = sp.hermite_normed_log(n, 2.5)
        ref = reference_hermite_normed_log(n, 2.5)
        assert isinstance(la, float) and isinstance(sg, float)
        assert (la, sg) == (ref[0][0], ref[1][0])

    def test_only_some_chunks_rescale(self):
        # points far below the rescale bound next to points that cross it
        # at different steps: one bound from max|x| gates the scan of all
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-1.0, 1.0, C),
                            rng.uniform(-60.0, 60.0, C),
                            rng.uniform(-20.0, 20.0, C),
                            rng.uniform(-60.0, 60.0, 11)])
        got = sp.hermite_normed_log(1500, x)
        ref = reference_hermite_normed_log(1500, x)
        assert_bitwise(got, ref)
        assert np.all(np.isfinite(got[0]))
        assert np.max(got[0]) > math.log(sp._BIG)   # the rescale did run

    def test_non_finite_points_leave_the_others_alone(self):
        # a NaN or inf makes the bound non-finite: the scan runs from the
        # first step, as in the reference loop
        x = np.array([np.nan, 60.0, -60.0, np.inf, 0.3])
        with np.errstate(invalid="ignore"):
            got = sp.hermite_normed_log(400, x)
            ref = reference_hermite_normed_log(400, x)
        assert_bitwise(got, ref)
        assert np.all(np.isfinite(got[0][[1, 2, 4]]))

    def test_exact_zeros_have_sign_zero(self):
        # H_2(+-1) = 0 and H_odd(0) = 0 come out of the recurrence exactly
        x = np.array([-1.0, 0.0, 1.0, 0.5])
        for n in (1, 2, 3, 193):
            got = sp.hermite_normed_log(n, x)
            assert_bitwise(got, reference_hermite_normed_log(n, x))
        la, sg = sp.hermite_normed_log(2, x)
        assert list(sg[[0, 2]]) == [0.0, 0.0] and la[0] == -math.inf
        assert sp.hermite_normed_log(193, x)[1][1] == 0.0


def separate_pair(n, x):
    return sp.hermite_normed_log(n, x), sp.hermite_normed_log(n - 1, x)


class TestHermitePair:
    @pytest.mark.parametrize("size", [1, C - 1, C, C + 1, 3 * C + 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 193, 1500])
    def test_sizes_and_degrees(self, size, n):
        rng = np.random.default_rng([size, n, 1])
        x = rng.normal(scale=2.0 * math.sqrt(n + 1), size=size)
        got = sp.hermite_normed_log_pair(n, x)
        for g, r in zip(got, separate_pair(n, x)):
            assert_bitwise(g, r)

    @pytest.mark.parametrize("n", [1, 2, 3, 193, 1500])
    def test_shapes(self, n):
        x2 = np.linspace(-60.0, 60.0, 3 * 7).reshape(3, 7)
        for x in (x2, x2[1]):
            got = sp.hermite_normed_log_pair(n, x)
            for g, r in zip(got, separate_pair(n, x)):
                assert g[0].shape == g[1].shape == x.shape
                assert_bitwise(g, r)
        got = sp.hermite_normed_log_pair(n, 2.5)
        ref = separate_pair(n, 2.5)
        assert all(isinstance(v, float) for g in got for v in g)
        assert got == ref

    def test_non_finite_points(self):
        x = np.array([np.nan, 60.0, -60.0, np.inf, 0.3, -np.inf])
        with np.errstate(invalid="ignore"):
            for n in (1, 2, 400):
                got = sp.hermite_normed_log_pair(n, x)
                for g, r in zip(got, separate_pair(n, x)):
                    assert_bitwise(g, r)

    def test_exact_zeros(self):
        # H_2(+-1) = 0 and H_odd(0) = 0, at either degree of the pair
        x = np.array([-1.0, 0.0, 1.0, 0.5])
        for n in (1, 2, 3, 193, 194):
            got = sp.hermite_normed_log_pair(n, x)
            for g, r in zip(got, separate_pair(n, x)):
                assert_bitwise(g, r)
        (_, s3), (_, s2) = sp.hermite_normed_log_pair(3, x)
        assert list(s2[[0, 2]]) == [0.0, 0.0] and s3[1] == 0.0

    def test_rescale_on_the_last_step(self):
        # beyond the turning point |h_k| grows with k, so a point with
        # |h_{n-1}| <= _BIG < |h_n| is rescaled first on the last step,
        # which divides h_{n-1} as well: the pair must copy it out before
        n = 194
        x = np.linspace(35.5, 38.5, 4001)
        got = sp.hermite_normed_log_pair(n, x)
        (la, _), (lb, _) = got
        last = (lb <= math.log(sp._BIG)) & (la > math.log(sp._BIG))
        assert last.sum() > 50
        for g, r in zip(got, separate_pair(n, x)):
            assert_bitwise(g, r)
        for g, r in zip(sp.hermite_normed_log_pair(n, x[last]),
                        separate_pair(n, x[last])):
            assert_bitwise(g, r)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            sp.hermite_normed_log_pair(0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 193])
    def test_psi_wrappers(self, n):
        t = 1.7
        x = np.linspace(-3.0, 3.0, 11) * math.sqrt(n * t) + 0.1
        (pa, ps), (qa, qs) = sp.psi_psibar_log(n, t, x)
        assert_bitwise((pa, ps), sp.psi_log(n, t, x))
        assert_bitwise((qa, qs), sp.psibar_log(n - 1, t, x))
        with pytest.raises(ValueError):
            sp.psi_psibar_log(n, 0.0, x)


def assert_rows_bitwise(n, x, degrees=None):
    """Row k of the all-degree run is hermite_normed_log(k, x), bitwise,
    for every k in ``degrees`` (default all)."""
    la, sg = sp.hermite_normed_log_all(n, x)
    assert la.shape == sg.shape == (n + 1,) + np.shape(x)
    for k in range(n + 1) if degrees is None else degrees:
        assert_bitwise((la[k], sg[k]), sp.hermite_normed_log(k, x))


class TestHermiteAllDegrees:
    @pytest.mark.parametrize("size", [1, C - 1, C, C + 1, 3 * C + 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 193])
    def test_sizes_and_degrees(self, size, n):
        rng = np.random.default_rng([size, n, 2])
        x = rng.normal(scale=2.0 * math.sqrt(n + 1), size=size)
        assert_rows_bitwise(n, x)

    def test_rescaled_chunks(self):
        # the rows a rescale runs through carry its running exponent
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.uniform(-1.0, 1.0, C),
                            rng.uniform(-60.0, 60.0, 11)])
        assert_rows_bitwise(900, x, [*range(0, 900, 47), 898, 899, 900])
        la, _ = sp.hermite_normed_log_all(900, x)
        assert np.max(la) > math.log(sp._BIG)

    def test_non_finite_points(self):
        x = np.array([np.nan, 60.0, -60.0, np.inf, 0.3, -np.inf])
        with np.errstate(invalid="ignore"):
            for n in (0, 1, 2, 400):
                assert_rows_bitwise(n, x)

    def test_exact_zeros(self):
        # H_2(+-1) = 0 and H_odd(0) = 0 on their rows
        x = np.array([-1.0, 0.0, 1.0, 0.5])
        assert_rows_bitwise(194, x)
        la, sg = sp.hermite_normed_log_all(3, x)
        assert list(sg[2, [0, 2]]) == [0.0, 0.0] and sg[3, 1] == 0.0
        assert la[2, 0] == -math.inf

    def test_shapes(self):
        x2 = np.linspace(-30.0, 30.0, 3 * 7).reshape(3, 7)
        assert_rows_bitwise(12, x2)
        la, sg = sp.hermite_normed_log_all(12, 2.5)
        assert la.shape == sg.shape == (13,)
        assert (float(la[12]), float(sg[12])) == sp.hermite_normed_log(12, 2.5)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            sp.hermite_normed_log_all(-1, 1.0)


class TestAiryTail:
    @pytest.mark.parametrize("size", [1, C - 1, C + 1, 3 * C + 5])
    def test_series_matches_all_26_terms(self, size):
        rng = np.random.default_rng(size)
        x = np.exp(rng.uniform(math.log(12.0), math.log(1e3), size))
        x[0] = np.nextafter(12.0, 13.0)
        zeta, s_ai, s_aip = reference_tail_sums(x)
        got = sp._airy_tail_sums(zeta)
        assert np.array_equal(got[0], s_ai)
        assert np.array_equal(got[1], s_aip)
        assert np.array_equal(sp._airy_tail_sums(zeta, with_deriv=False)[0],
                              s_ai)

    def test_public_values_on_both_sides_of_the_switch(self):
        x = np.concatenate([np.linspace(-25.0, 11.99, 501),
                            np.linspace(12.0, 14.0, 501),
                            np.geomspace(14.0, 1e3, C + 3)])
        far = x > sp._AIRY_HI
        xf = x[far]
        zeta, s_ai, s_aip = reference_tail_sums(xf)
        pre = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
        ai, aip = sp.airy_pair(x)
        assert np.array_equal(ai[far], pre * xf ** -0.25 * s_ai)
        assert np.array_equal(aip[far], -pre * xf ** 0.25 * s_aip)
        pos = x > 0
        log_ai = sp.airy_log_pos(x[pos])
        ref = (-zeta - 0.25 * np.log(xf) - math.log(2.0 * math.sqrt(math.pi))
               + np.log(s_ai))
        assert np.array_equal(log_ai[far[pos]], ref)
        assert np.array_equal(log_ai[~far[pos]], np.log(ai[pos & ~far]))


# float.hex of the special functions on fixed inputs, recorded from the
# blocked loops that the whole-array ones replaced: they hold every bit
# without leaning on a reference loop of this file.  Degree 900 on |x| up
# to 70 runs the recurrence through the 1e120 rescale; the Airy points
# sit on both sides of the switch to the tail series at x = 12 and far
# past it.
PIN_X900 = ['-0x1.1501e6853133dp+6', '-0x1.fe29f5e7cb0ccp+5',
            '0x1.c8457f5ca395cp+5', '-0x1.7a10d1d55d3c2p+5',
            '0x1.28b0fd0468402p+5', '-0x1.1098a14025200p-2',
            '0x1.59221b6b43e7ep+5', '-0x1.591b2be4d90f2p+5']
PIN_ALL900 = {
    2: ['0x1.041e74b6f33cfp+3', '0x1.fdae44cdf8f95p+2',
        '0x1.ef62e82df184dp+2', '0x1.d74f91737b24ep+2',
        '0x1.b844d38441935p+2', '-0x1.ae28759501d5bp-2',
        '0x1.cba3b5341c373p+2', '0x1.cba122551ac36p+2'],
    451: ['0x1.6e891b12b7890p+9', '0x1.5984223d59f49p+9',
          '0x1.3c0fdbb1cb19bp+9', '0x1.05f369c206001p+9',
          '0x1.56676d88ee644p+8', '-0x1.14162ef4dd208p+1',
          '0x1.ce35ac79e66d3p+8', '0x1.ce2678b10a4aap+8'],
    899: ['0x1.10d6266cfd501p+10', '0x1.edc108db5ea63p+9',
          '0x1.955dab7fb1ba6p+9', '0x1.164415d345be8p+9',
          '0x1.5350ff7d7b49ep+8', '-0x1.cdd9f06606a0bp+0',
          '0x1.ce7e1802ff1bep+8', '0x1.ce9d41f86859cp+8'],
    900: ['0x1.10f94d9df516dp+10', '0x1.edee72da9d7a8p+9',
          '0x1.95b5ed47ad8c4p+9', '0x1.1661a6ed0bc90p+9',
          '0x1.55f5b60569ec5p+8', '-0x1.e71f9bad8a9e7p+1',
          '0x1.cf8b47d37a795p+8', '0x1.cf8164bec5babp+8']}
PIN_ALL900_SIGN = {
    2: [1, 1, 1, 1, 1, -1, 1, 1],
    451: [-1, -1, 1, -1, 1, -1, 1, -1],
    899: [-1, -1, 1, 1, 1, 1, -1, 1],
    900: [1, 1, 1, -1, 1, -1, -1, -1]}
PIN_X1500 = ['-0x1.3e7f68de454c6p+6', '-0x1.2a4816f51afebp+6',
             '-0x1.0b15652ebb148p+3', '0x1.2149e37283facp+4',
             '-0x1.5cc57718ec2a0p+5', '0x1.f9ba7124d8900p+4']
PIN_PAIR1500 = (
    ['0x1.887c293012c94p+10', '0x1.5b24d35561d24p+10', '0x1.dfe979ff2e439p+3',
     '0x1.3ef9aa56cd01ap+6', '0x1.d887405bfb0b2p+8', '0x1.edebbc9217fbfp+7'],
    [1, 1, -1, -1, 1, -1],
    ['0x1.886ce1e9f5128p+10', '0x1.5b31b20ba81e9p+10', '0x1.e9faeec72d967p+3',
     '0x1.3cb360cd51246p+6', '0x1.d94ee59e175a0p+8', '0x1.efbe02bc859bap+7'],
    [-1, -1, 1, -1, -1, -1])
PIN_AIRY_X = [-30.0, -4.5, 11.75, 12.0, math.nextafter(12.0, 13.0), 12.5,
              40.0, 100.0]
PIN_AIRY = (
    ['-0x1.685154c82af7ap-4', '0x1.2b2a1940487f0p-2', '0x1.752b1f07bd59ap-42',
     '0x1.39b7a11f5a8f7p-43', '0x1.39b7a11f5a8cfp-43',
     '0x1.afc62c7a4a980p-46', '0x1.708d235f57b1bp-247',
     '0x1.a4a3f4c99a5dep-966'],
    ['0x1.3a86e13b8513fp+0', '-0x1.0bf62c807eeadp-1',
     '-0x1.41be955edb6b0p-40', '-0x1.114c208e15bebp-41',
     '-0x1.114c208e15bcap-41', '-0x1.7fc46fe0f2fb4p-44',
     '-0x1.23a7127c1f402p-244', '-0x1.06f749a991442p-962'])
PIN_AIRY_LOG_X = [0.5, 11.75, 12.0, math.nextafter(12.0, 13.0), 12.5, 40.0,
                  1e3, 1e6]
PIN_AIRY_LOG = ['-0x1.765be0ae85057p+0', '-0x1.cbc3e8785107dp+4',
                '-0x1.d9a1d95e554f6p+4', '-0x1.d9a1d95e554f8p+4',
                '-0x1.f5caefe270836p+4', '-0x1.55af974862ff1p+7',
                '-0x1.49735fc43cf32p+14', '-0x1.3de4357b16a4cp+29']


def _floats(pins):
    return np.array([float.fromhex(v) for v in pins])


class TestPinnedBits:
    def test_hermite_all_degrees(self):
        x = _floats(PIN_X900)
        la, sg = sp.hermite_normed_log_all(900, x)
        assert np.max(la) > math.log(sp._BIG)   # the rescale did run
        for k, pins in PIN_ALL900.items():
            assert [v.hex() for v in la[k]] == pins
            assert list(sg[k]) == PIN_ALL900_SIGN[k]

    def test_hermite_pair(self):
        (la, sg), (lb, sb) = sp.hermite_normed_log_pair(1500,
                                                        _floats(PIN_X1500))
        got = ([v.hex() for v in la], list(sg), [v.hex() for v in lb],
               list(sb))
        assert got == PIN_PAIR1500

    def test_airy(self):
        ai, aip = sp.airy_pair(np.array(PIN_AIRY_X))
        assert ([v.hex() for v in ai], [v.hex() for v in aip]) == PIN_AIRY
        log_ai = sp.airy_log_pos(np.array(PIN_AIRY_LOG_X))
        assert [v.hex() for v in log_ai] == PIN_AIRY_LOG

    def test_empty_input(self):
        empty = np.array([])
        for la, sg in (sp.hermite_normed_log(0, empty),
                       sp.hermite_normed_log(40, empty),
                       *sp.hermite_normed_log_pair(40, empty),
                       sp.airy_pair(empty)):
            assert la.shape == sg.shape == (0,)
        la, sg = sp.hermite_normed_log_all(40, empty)
        assert la.shape == sg.shape == (41, 0)
        assert sp.airy_log_pos(empty).shape == (0,)


def psi_pair(n, t, x):
    """(psi_n(t, x), psibar_n(t, x)) from the log-scale forms."""
    la, sg = sp.psi_log(n, t, x)
    lb, sb = sp.psibar_log(n, t, x)
    return float(sg * np.exp(la)), float(sb * np.exp(lb))


class TestPsiPair:
    def test_heat_kernel_base(self):
        psi, psibar = psi_pair(0, 1.0, 0.0)
        assert psi == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-14)
        assert psibar == 1.0

    def test_direct_low_degree(self):
        # psibar_1(4, 2) = sqrt(4) * H_1(2/2) = 2
        psi, psibar = psi_pair(1, 4.0, 2.0)
        assert psibar == pytest.approx(2.0, abs=1e-13)
        ref = 4.0 ** -0.5 / math.sqrt(2 * math.pi * 4.0) \
            * math.exp(-4.0 / 8.0) * 1.0
        assert psi == pytest.approx(ref, rel=1e-13)

    def test_large_degree_finite(self):
        # scaling-regime argument: x near the spectral edge 2 sqrt(n t)
        n, t = 500, 2.0
        x = 2.0 * math.sqrt(n * t)
        psi, psibar = psi_pair(n, t, x)
        assert math.isfinite(psi) and psi != 0.0
        assert math.isfinite(psibar) and psibar != 0.0

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            psi_pair(1, 0.0, 0.3)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_heat_equation(self, n):
        # d_t psi = (1/2) d_xx psi by central differences
        t, ht, hx = 1.3, 1e-5, 1e-4
        for x in (-1.7, 0.3, 2.1):
            dt = (psi_pair(n, t + ht, x)[0]
                  - psi_pair(n, t - ht, x)[0]) / (2 * ht)
            dxx = (psi_pair(n, t, x + hx)[0]
                   - 2 * psi_pair(n, t, x)[0]
                   + psi_pair(n, t, x - hx)[0]) / hx ** 2
            scale = max(abs(dt), abs(dxx), 1e-3)
            assert abs(dt - 0.5 * dxx) / scale < 1e-4

    def test_orthogonality_via_gauss_hermite(self):
        # integral of psi_n psibar_m is 1{n=m}; Gauss-Hermite oracle
        t = 1.7
        u, w = np.polynomial.hermite.hermgauss(80)
        x = u * math.sqrt(2.0 * t)  # e^{-x^2/(2t)} = e^{-u^2}
        for n in range(0, 13):
            for m in range(0, 13):
                la, sg = sp.psi_log(n, t, x)
                lb, sb = sp.psibar_log(m, t, x)
                # strip the Gaussian weight absorbed by Gauss-Hermite
                vals = sg * sb * np.exp(la + lb + x * x / (2 * t))
                integral = float(np.dot(w, vals)) * math.sqrt(2.0 * t)
                assert integral == pytest.approx(1.0 if n == m else 0.0,
                                                 abs=1e-10)


class TestAiry:
    def test_value_at_zero(self):
        ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert sp.airy_eval(0.0) == pytest.approx(ref, abs=1e-14)

    def test_decay_right_tail(self):
        for x in (12.0, 15.0, 20.0):
            assert abs(sp.airy_eval(x)) < 1e-12

    def test_lipschitz_on_oscillatory_range(self):
        xs = np.linspace(-5, 5, 2001)
        vals = sp.airy_eval(xs)
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        # |Ai'| < 1.5 on [-5, 5]
        assert np.max(slopes) < 1.5

    def test_against_scipy_on_working_domain(self):
        xs = np.linspace(-15, 10, 3001)
        ai, aip = sp.airy_pair(xs)
        ref_ai, ref_aip, _, _ = scipy_airy(xs)
        assert np.max(np.abs(ai - ref_ai)) < 1e-12
        assert np.max(np.abs(aip - ref_aip)) < 1e-12

    def test_log_branch_matches(self):
        for x in (5.0, 30.0, 200.0):
            lg = sp.airy_log_pos(x)
            ref = float(scipy_airy(x)[0])
            if ref > 0:
                assert lg == pytest.approx(math.log(ref), rel=1e-10)

    def test_hermite_edge_asymptotic_true_size(self):
        # the edge approximation with the plain 2 sqrt(n) centering has a
        # genuine ~0.041 sup error at n=500 (the turning-point variant is
        # an order of magnitude closer); pin both so regressions surface
        n = 500
        xs = np.linspace(-3, 2, 201)
        plain = n ** (1 / 12) * sp.oscillator_psi(
            n, 2 * math.sqrt(n) + n ** (-1 / 6) * xs)
        err_plain = np.max(np.abs(plain - sp.airy_eval(xs)))
        assert 0.03 < err_plain < 0.05
        shifted = n ** (1 / 12) * sp.oscillator_psi(
            n, 2 * math.sqrt(n + 0.5) + n ** (-1 / 6) * xs)
        err_shift = np.max(np.abs(shifted - sp.airy_eval(xs)))
        assert err_shift < 5e-3


    def test_anchor_table_pinned(self):
        # entries of the marched anchor table as the table built by a
        # scalar Taylor stepper and asymptotic seed gave them (float.hex)
        grid, ai, aip = sp._build_airy_anchors()
        pinned = {
            -20.0: ("-0x1.69479d94e9675p-3", "0x1.c9255202fe18bp-1"),
            -5.0: ("0x1.672de4d9e1d41p-2", "0x1.4f0ba25cb5a7ep-2"),
            0.25: ("0x1.2a26e236cdddcp-2", "-0x1.fe1446cddeab0p-3"),
            5.0: ("0x1.c66df1a2952e4p-14", "-0x1.036ea91e217e9p-12"),
            12.0: ("0x1.39b7a11f5a8f7p-43", "-0x1.114c208e15bebp-41"),
        }
        for x, (a, b) in pinned.items():
            (i,) = np.flatnonzero(grid == x)
            assert float(ai[i]).hex() == a and float(aip[i]).hex() == b


def _mp_rel(got, ref):
    """|got - ref|/|ref| at mpmath's precision, as a float."""
    return float(abs((mpmath.mpf(float(got)) - ref) / ref))


class TestScalarFunctions:
    """log n!, log Phi and Q(m, x) against 40-digit mpmath, and against
    the scipy functions they replace."""

    def test_log_factorial(self):
        ks = np.arange(1, 3001)
        got = sp.log_factorial(ks - 1)
        with mpmath.workdps(40):
            refs = [mpmath.loggamma(int(k)) for k in ks]
            # the exact factorials below 170 give the correctly rounded log
            assert all(float(r) == g for r, g in zip(refs[:170], got[:170]))
            worst = max(_mp_rel(g, r) for g, r in zip(got, refs) if r != 0)
        assert worst <= 6e-16
        assert np.abs(got - gammaln(ks)).max() <= 1e-15 * got.max()

    def test_log_factorial_shapes_and_far_arguments(self):
        # numbers, whole floats and arrays; arguments past the table too
        assert sp.log_factorial(5) == math.log(120.0)
        n = np.array([[3.0], [5000.0], [0.0]])
        got = sp.log_factorial(n)
        assert got.shape == (3, 1)
        assert got[:, 0].tolist() == [math.log(6.0), math.lgamma(5001.0),
                                      0.0]

    def test_log_ndtr(self):
        w = np.concatenate([np.linspace(-60.0, 30.0, 1801),
                            [-20.0, np.nextafter(-20.0, 0.0), -1e-300,
                             1e-300, 5.9, 6.0]])
        got = sp.log_ndtr(w)
        assert got.shape == w.shape
        with mpmath.workdps(40):
            # log1p(-Phi(-w)) keeps the digits of log Phi near 0
            refs = [mpmath.log1p(-mpmath.ncdf(-v)) if v > 0
                    else mpmath.log(mpmath.ncdf(v))
                    for v in map(mpmath.mpf, w)]
            worst = max(_mp_rel(g, r) for g, r in zip(got, refs))
        assert worst <= 2e-14
        assert np.abs(got / log_ndtr(w) - 1.0).max() <= 2e-13
        assert sp.log_ndtr(np.zeros((2, 3))).shape == (2, 3)

    def test_gamma_q(self):
        cases = []
        for m in [*range(1, 11), *range(11, 200, 9), 200]:
            xs = {0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 600.0,
                  m - 10.0, m - 1.0, float(m), m + 1.0, m + 10.0, 1.5 * m}
            cases += [(m, x) for x in sorted(xs) if 0.0 <= x <= 600.0]
        worst = 0.0
        with mpmath.workdps(40):
            for m, x in cases:
                ref = mpmath.gammainc(m, x, mpmath.inf, regularized=True)
                if ref > mpmath.mpf("1e-290"):
                    got = sp.gamma_q(m, x)
                    worst = max(worst, _mp_rel(got, ref))
                    assert abs(got - gammaincc(m, x)) <= 1e-12 * ref
        assert worst <= 4e-15

    def test_gamma_q_past_the_exponential_range(self):
        # e^{-x} below the normal range: the sum starts at its largest term
        with mpmath.workdps(40):
            for m, x in [(3, 709.5), (700, 750.0), (800, 750.0),
                         (1200, 1000.0), (900, 708.0), (900, 708.5)]:
                ref = mpmath.gammainc(m, x, mpmath.inf, regularized=True)
                assert _mp_rel(sp.gamma_q(m, x), ref) <= 1e-11
        assert sp.gamma_q(1, 800.0) == 0.0


class TestContour:
    def test_sbar_unit_residue(self):
        # n=1 reduces to exp(z2 - z1), equal to 1 on the diagonal
        assert sp.contour_eval("Sbar", 1.7, 1, 0.4, 0.4) \
            == pytest.approx(1.0, abs=1e-10)

    def test_s_heat_kernel_diagonal(self):
        for t in (0.5, 1.0, 2.3):
            got = sp.contour_eval("S", t, 0, 0.9, 0.9)
            assert got == pytest.approx(1 / math.sqrt(2 * math.pi * t),
                                        rel=1e-9)

    def test_s_matches_psi_form(self):
        from rbmdet.kernel import s_ops
        got = sp.contour_eval("S", 1.0, 3, 0.5, -0.2)
        ref = s_ops("S", 1.0, 3, 0.5, -0.2)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_random_grid_agreement(self):
        # 1e-8 agreement, relaxed only by the contour's own reported
        # cancellation floor (for n near 20 the integrand's L1 mass exceeds
        # the value by up to ~1e9, which caps double precision accuracy)
        from rbmdet.kernel import s_ops
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = float(rng.uniform(0.3, 3.0))
            n = int(rng.integers(0, 21))
            z1, z2 = (float(v) for v in rng.uniform(-2, 2, 2))
            ref = s_ops("S", t, n, z1, z2)
            got, err = sp.contour_eval("S", t, n, z1, z2, with_error=True)
            assert abs(got - ref) <= max(1e-8 * max(1.0, abs(ref)), 5 * err)
            if n >= 1:
                ref = s_ops("Sbar", t, n, z1, z2)
                got, err = sp.contour_eval("Sbar", t, n, z1, z2,
                                           with_error=True)
                assert abs(got - ref) <= max(1e-8 * max(1.0, abs(ref)),
                                             5 * err)

    # (kind, t, n, z1, z2) -> value and error estimate as float.hex, pinned
    # from the contour refinement before its S and Sbar branches shared one
    # acceptance loop; the last two Sbar rows accept after 2 and 4 circle
    # doublings, S at n = 20 accepts at the cancellation floor
    PINNED = [
        ("S", 1.0, 0, 0.3, -0.4,
         "0x1.41f25cc964fa6p-1", "0x1.0000000000000p-53"),
        ("S", 0.5, 2, 1.2, 0.7,
         "-0x1.72e8fb827ebacp-1", "0x1.a4b455d20caafp-51"),
        ("S", 1.0, 5, -0.8, 0.6,
         "0x1.4125f0efc63dbp-5", "0x1.4780000000000p-47"),
        ("S", 2.0, 12, -1.0, 1.5,
         "0x1.bde11514d26d2p+0", "0x1.a5eb000000000p-34"),
        ("S", 1.0, 20, 0.3, -0.4,
         "-0x1.bc5056b6459c4p+28", "0x1.3f5589015c8d3p+4"),
        ("S", 0.3, 7, 2.5, 0.0,
         "0x1.4988d2acd07e7p+7", "0x1.a800000000000p-40"),
        ("Sbar", 1.0, 1, 0.3, -0.4,
         "0x1.fc80db9dd5542p-2", "0x1.ca04e3c50d0e5p-55"),
        ("Sbar", 0.5, 2, 1.2, 0.7,
         "0x1.368b2fc6f960ap-2", "0x1.7e30c12e2c8e7p-55"),
        ("Sbar", 2.0, 12, -1.0, 1.5,
         "-0x1.0b07e3d0b672cp-5", "0x1.38afe43552108p-56"),
        ("Sbar", 1.0, 20, 0.3, -0.4,
         "-0x1.407873d8f4bcap-35", "0x1.c000000000000p-82"),
        ("Sbar", 1.0, 1, -60.0, 0.0,
         "0x1.79dbca0cc0000p+86", "0x1.1000000000000p+56"),
        ("Sbar", 1.0, 4, -80.0, 0.0,
         "-0x1.bc690d46e0000p+131", "0x1.b714b31caf3a7p+97"),
    ]

    @pytest.mark.parametrize("kind, t, n, z1, z2, value, err", PINNED)
    def test_pinned_values_and_estimates(self, kind, t, n, z1, z2, value, err):
        got, got_err = sp.contour_eval(kind, t, n, z1, z2, with_error=True)
        assert (float(got).hex(), float(got_err).hex()) == (value, err)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_cancellation_noise_at_large_t_raises(self, n):
        # at t = 1000 the circle radius is clamped at 0.3, where
        # e^{-t w^2 / 2} spans e^{+-45}: every run is noise (S-bar at n = 1
        # is e^{-0.5}, and the loop used to return 360 +- 145 for it)
        from rbmdet.errors import ConvergenceError
        with pytest.raises(ConvergenceError):
            sp.contour_eval("Sbar", 1000.0, n, 0.5, 0.0)

    def test_sbar_pinned_rows_need_circle_doublings(self, monkeypatch):
        real = sp._contour_sbar_circle
        points = []

        def counting(t, n, x, r, m):
            points.append(m)
            return real(t, n, x, r, m)

        monkeypatch.setattr(sp, "_contour_sbar_circle", counting)
        for n, z1, runs in ((1, -60.0, 3), (4, -80.0, 5)):
            del points[:]
            sp.contour_eval("Sbar", 1.0, n, z1, 0.0)
            assert points == [max(64, 4 * n) * 2 ** k for k in range(runs)]
