import math

import numpy as np
import pytest

from rbmdet import hitting as ht
from rbmdet import initial_data as idata
from rbmdet.errors import ConvergenceError

SINGLE_WEDGE_L2_MASS = 1.0 - 2.0 / math.e  # int_0^1 (1-b) e^{b-1} db
# the data of TestGridLaw; the walk starts below the first level
GRID_LEVELS = (2.0, 2.0, 0.5, 0.5, -1.0)
GRID_ETA = 1.7


def wedge_profile(start, level):
    return idata.StepProfile(
        n_inf=start, blocks=(idata.Block(start=start, level=level,
                                         length=None),))


class TestQExpPow:
    def test_single_step_density(self):
        assert ht.q_exp_pow(1, 1.0, 0.5) == pytest.approx(math.exp(-0.5),
                                                          rel=1e-14)

    def test_indicator(self):
        assert ht.q_exp_pow(3, 0.0, 0.0) == 0.0
        assert ht.q_exp_pow(2, -1.0, 2.0) == 0.0

    def test_three_step_convolution_oracle(self):
        # numerical triple convolution of Exp(1) step densities
        h = 2e-4
        s = np.arange(0.0, 12.0, h)
        one = np.exp(-s)
        two = np.convolve(one, one)[: s.size] * h
        three = np.convolve(two, one)[: s.size] * h
        for x, y in [(2.0, 0.0), (3.5, 1.2)]:
            d = x - y
            ref = three[int(round(d / h))]
            assert ht.q_exp_pow(3, x, y) == pytest.approx(ref, rel=1e-3)
        assert ht.q_exp_pow(3, 2.0, 0.0) == pytest.approx(
            math.exp(-2) * 4 / 2, rel=1e-14)

    def test_log_scale_large_m(self):
        v = ht.q_exp_pow(300, 0.0, -300.0)
        # Gamma(300) density at its mean, ~ 1/sqrt(2 pi 300)
        assert v == pytest.approx(1 / math.sqrt(2 * math.pi * 300), rel=0.01)


class TestExactLaw:
    def test_packed_atom(self):
        law = ht.law_from_blocks(idata.packed(0.0), 0.7, 5)
        assert law.atom_mass == 1.0
        assert law.components == {}
        assert law.masses() == {0: 1.0}

    def test_packed_never_hits_from_below(self):
        law = ht.law_from_blocks(idata.packed(0.0), -1.0, 5)
        assert law.total_mass() == 0.0

    def test_single_wedge_mass(self):
        law = ht.hitting_law_exact(wedge_profile(2, 0.0), 1.0, 5)
        assert set(law.masses()) == {2}
        assert law.masses()[2] == pytest.approx(SINGLE_WEDGE_L2_MASS,
                                                abs=1e-13)

    def test_single_wedge_mass_vs_mc(self):
        ic = idata.from_positions([math.inf, math.inf, 0.0],
                                  extend_last=True)
        law = ht.hitting_law_mc(ic, 1.0, 5, paths=10 ** 6, seed=123)
        comp = law.components[2]
        assert abs(comp.mass - SINGLE_WEDGE_L2_MASS) < 3 * comp.stderr

    def test_horizon_cuts_all_blocks(self):
        law = ht.hitting_law_exact(wedge_profile(6, 0.0), 1.0, 4)
        assert law.total_mass() == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            ic = idata.from_positions(lv, extend_last=True)
            eta = float(rng.uniform(-3, 3))
            law = ht.law_from_blocks(ic, eta, int(rng.integers(1, 9)))
            total = law.total_mass() + law.survivor_mass + law.dead_mass
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("span, raises", [(40, False), (80, True)])
    def test_sweep_off_its_mass_balance_raises(self, span, raises):
        # unit blocks X0(k) = -k from the middle of the span: the balance is
        # off by 2.9e-9 at span 40 and by 6.9 at span 80
        prof = idata.blocks(idata.from_positions(
            [-float(k) for k in range(1, span + 1)], extend_last=True))
        if raises:
            with pytest.raises(ConvergenceError):
                ht.hitting_law_exact(prof, -0.5 * span, span)
        else:
            law = ht.hitting_law_exact(prof, -0.5 * span, span)
            total = law.total_mass() + law.survivor_mass + law.dead_mass
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_two_narrow_wedges_at_eps_005_raise(self):
        # the law behind the hitting kernel of two wedges (0, -1) at
        # eps = 0.05, T = 1, x = -0.5, whose determinant was off by 1.2e-3
        # with an estimate of 1e-16 before the sweep checked its balance
        ic = idata.narrow_wedge_approx([0.0, -1.0], eps=0.05)
        with pytest.raises(ConvergenceError):
            ht.hitting_law_exact(idata.blocks(ic), -0.11, 109)

    def test_support_only_at_block_starts(self):
        ic = idata.from_positions([2.0, 2.0, 0.5, -1.0, -1.0],
                                  extend_last=True)
        law = ht.law_from_blocks(ic, 1.7, 5)
        starts = {b.start for b in idata.blocks(ic).blocks}
        assert law.components  # eta below c_0: hits occur at later drops
        assert set(law.components) <= starts
        for ell, comp in law.components.items():
            level = ic.curve(ell)
            assert np.all(comp.nodes >= level - 1e-12)

    def test_atom_monotone_in_eta_packed(self):
        for eta in (-0.5, -1e-9, 0.0, 0.3):
            law = ht.law_from_blocks(idata.packed(0.0), eta, 3)
            assert law.atom_mass == (1.0 if eta >= 0 else 0.0)


class TestInclusionExclusion:
    def test_matches_sweep(self):
        ic = idata.from_positions(
            [math.inf, 2.0, 2.0, 0.5, 0.5, -1.0], extend_last=True)
        prof = idata.blocks(ic)
        for eta in (3.0, 1.2, 0.1):
            a = ht.hitting_law_exact(prof, eta, 6)
            b = ht.hitting_law_exact(prof, eta, 6,
                                     method="inclusion_exclusion")
            assert set(a.components) == set(b.components)
            for ell in a.components:
                ca, cb = a.components[ell], b.components[ell]
                assert ca.mass == pytest.approx(cb.mass, abs=1e-12)
                for f in (lambda x: np.exp(-0.3 * x), np.cos):
                    assert ca.integrate(f) == pytest.approx(
                        cb.integrate(f), abs=1e-12)


    def test_split_matches_sweep(self):
        # nothing survives above the last level; the dead mass is P(no hit)
        # in both, from propagation in the sweep and from signed masses here
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            prof = idata.blocks(idata.from_positions(lv, extend_last=True))
            eta = float(rng.uniform(-3, 3))
            n_max = int(rng.integers(1, 9))
            a = ht.hitting_law_exact(prof, eta, n_max)
            b = ht.hitting_law_exact(prof, eta, n_max,
                                     method="inclusion_exclusion")
            assert b.survivor_mass == a.survivor_mass
            assert b.dead_mass == pytest.approx(a.dead_mass, abs=1e-12)


@pytest.mark.parametrize("method, tol", [("sweep", 1e-12),
                                         ("inclusion_exclusion", 1e-12),
                                         ("grid", 1e-6), ("mc", 1e-12)])
def test_mass_balance_every_method(method, tol):
    ic = idata.from_positions(GRID_LEVELS, extend_last=True)
    if method == "grid":
        grid = ht.default_grid(ic, GRID_ETA, 6, spacing=1e-3)
        law = ht.hitting_law_grid(ic, GRID_ETA, grid, 6)
    elif method == "mc":
        law = ht.hitting_law_mc(ic, GRID_ETA, 6, paths=20000, seed=3)
    else:
        law = ht.law_from_blocks(ic, GRID_ETA, 6, method=method)
    assert law.components
    assert 0.0 <= law.survivor_mass <= 1.0 and 0.0 <= law.dead_mass <= 1.0
    total = law.total_mass() + law.survivor_mass + law.dead_mass
    assert total == pytest.approx(1.0, abs=tol)


class TestGridLaw:
    def test_agrees_with_exact(self):
        ic = idata.from_positions([2.0, 2.0, 0.5, 0.5, -1.0],
                                  extend_last=True)
        eta = 1.7
        exact = ht.law_from_blocks(ic, eta, 6)
        grid = ht.default_grid(ic, eta, 6, spacing=1e-3)
        approx = ht.hitting_law_grid(ic, eta, grid, 6)
        assert exact.components
        assert set(exact.components) == set(approx.components)
        for ell in exact.components:
            assert approx.components[ell].mass == pytest.approx(
                exact.components[ell].mass, abs=1e-6)
            # integrated absolute density difference on the grid support
            f = lambda b: np.interp(b, grid,
                                    np.abs(approx.components[ell].values))
            ca = exact.components[ell]
            l1 = float(np.dot(ca.weights,
                              np.abs(ca.values - f(ca.nodes))))
            assert l1 < 1e-5

    # Spacings whose arange nodes do not land on eta = 1.7: the curve's
    # first level lies above eta, and the support must not rise to it.
    @pytest.mark.parametrize("spacing", [2e-3, 1.1e-3, 9.5e-4, 5e-4])
    def test_agrees_with_exact_at_spacings(self, spacing):
        ic = idata.from_positions(GRID_LEVELS, extend_last=True)
        exact = ht.law_from_blocks(ic, GRID_ETA, 6)
        grid = ht.default_grid(ic, GRID_ETA, 6, spacing=spacing)
        approx = ht.hitting_law_grid(ic, GRID_ETA, grid, 6)
        assert exact.components
        assert set(exact.components) == set(approx.components)
        for ell, ce in exact.components.items():
            ca = approx.components[ell]
            assert ca.mass == pytest.approx(ce.mass, abs=1e-6)
            on_exact = np.interp(ce.nodes, grid, np.abs(ca.values))
            assert float(np.dot(ce.weights,
                                np.abs(ce.values - on_exact))) < 1e-5

    def test_mass_balance(self):
        ic = idata.from_positions(GRID_LEVELS, extend_last=True)
        grid = ht.default_grid(ic, GRID_ETA, 6, spacing=1e-3)
        law = ht.hitting_law_grid(ic, GRID_ETA, grid, 6)
        total = law.total_mass() + law.survivor_mass + law.dead_mass
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("spacing", [2e-3, 1e-3, 9.5e-4])
    def test_default_grid_holds_anchors(self, spacing):
        ic = idata.from_positions(GRID_LEVELS, extend_last=True)
        grid = ht.default_grid(ic, GRID_ETA, 6, spacing=spacing)
        assert set(GRID_LEVELS) | {GRID_ETA} <= set(grid.tolist())
        assert np.diff(grid).min() >= spacing / 2

    # eta half-way between two nodes leaks about spacing / 2 of mass, far
    # above the default bound of 10 spacing^2
    @pytest.mark.parametrize("spacing", [2e-3, 1e-3, 5e-4])
    def test_mid_gap_grid_leak_raises(self, spacing):
        ic = idata.from_positions(GRID_LEVELS, extend_last=True)
        steps = np.arange(-round(15.0 / spacing), 2) - 0.5
        grid = GRID_ETA + spacing * steps
        with pytest.raises(ValueError, match="leaks mass"):
            ht.hitting_law_grid(ic, GRID_ETA, grid, 6)

    def test_total_mass_below_one(self):
        ic = idata.from_positions([1.0, 0.0], extend_last=True)
        grid = ht.default_grid(ic, 0.5, 4, spacing=2e-3)
        law = ht.hitting_law_grid(ic, 0.5, grid, 4)
        assert law.total_mass() <= 1.0 + 1e-9

    def test_atom_case(self):
        ic = idata.packed(0.0)
        grid = np.linspace(-10, 1, 1001)
        law = ht.hitting_law_grid(ic, 0.2, grid, 4)
        assert law.atom_mass == 1.0 and not law.components

    def test_insufficient_grid_reported(self):
        ic = idata.from_positions([2.0, -5.0], extend_last=True)
        grid = np.linspace(-2.0, 3.0, 200)  # bottom above the lowest level
        with pytest.raises(ValueError, match="cover"):
            ht.hitting_law_grid(ic, 1.0, grid, 4)


class TestMonteCarloLaw:
    def test_packed_atom(self):
        law = ht.hitting_law_mc(idata.packed(0.0), 0.7, 5, paths=100, seed=1)
        assert law.atom_mass == 1.0

    def test_deterministic(self):
        ic = idata.from_positions([1.0, 0.0, -1.0], extend_last=True)
        a = ht.hitting_law_mc(ic, 2.0, 5, paths=30000, seed=42)
        b = ht.hitting_law_mc(ic, 2.0, 5, paths=30000, seed=42)
        assert a.masses() == b.masses()
        for ell in a.components:
            assert np.array_equal(a.components[ell].values,
                                  b.components[ell].values)

    def test_three_methods_agree(self):
        ic = idata.from_positions([2.0, 2.0, 0.5, 0.5, -1.0],
                                  extend_last=True)
        eta = 1.7
        exact = ht.law_from_blocks(ic, eta, 6)
        mc = ht.hitting_law_mc(ic, eta, 6, paths=400000, seed=7)
        assert exact.components
        for ell, comp in exact.components.items():
            m_mc = mc.components[ell]
            tol = max(1e-5, 3 * m_mc.stderr)
            assert abs(comp.mass - m_mc.mass) < tol
