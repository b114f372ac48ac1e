import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from rbmdet import hitting as ht
from rbmdet import initial_data as idata
from rbmdet import special
from rbmdet.errors import ConvergenceError

SINGLE_WEDGE_L2_MASS = 1.0 - 2.0 / math.e  # int_0^1 (1-b) e^{b-1} db
# the data of TestGridLaw; the walk starts below the first level
GRID_LEVELS = (2.0, 2.0, 0.5, 0.5, -1.0)
GRID_ETA = 1.7


def wedge_profile(start, level):
    return idata.StepProfile(
        n_inf=start, blocks=(idata.Block(start=start, level=level,
                                         length=None),))


def _reference_q_exp_pow(m, x, y):
    """The walk density with log and exp over every entry, the positive
    ones picked afterwards."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    with np.errstate(divide="ignore", invalid="ignore"):
        logv = (y - x) + (m - 1) * np.log(np.where(d > 0, d, 1.0)) \
            - special.log_factorial(m - 1)
        out = np.where(d > 0, np.exp(logv), 0.0)
    return float(out) if out.ndim == 0 else out


class TestQExpPow:
    @pytest.mark.parametrize("m", [1, 2, 6, 172, 400])
    def test_bitwise_the_reference(self, m):
        # random pairs, d <= 0 (ties included), d of one ulp, and at x = 0
        # d of subnormal size
        rng = np.random.default_rng(m)
        x = rng.normal(0.0, 30.0, (40, 1))
        x[0] = 0.0
        y = np.concatenate([rng.normal(0.0, 30.0, 60), x[:20, 0],
                            np.nextafter(x[:20, 0], -np.inf),
                            x[:20, 0] - 5e-324, x[:20, 0] - 1e-310])[None, :]
        got = ht.q_exp_pow(m, x, y)
        assert got.shape == (40, 140)
        assert got.tobytes() == _reference_q_exp_pow(m, x, y).tobytes()
        for xs, ys in [(1.0, 0.5), (0.5, 1.0), (2.0, 2.0),
                       (1.0, np.nextafter(1.0, 0.0))]:
            v = ht.q_exp_pow(m, xs, ys)
            assert type(v) is float
            assert v == _reference_q_exp_pow(m, xs, ys)

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


def test_polynomial_helpers_are_bitwise_numpy():
    rng = np.random.default_rng(3)
    for size in range(1, 40):
        c = rng.standard_normal(size) * np.exp2(rng.integers(-200, 201, size))
        assert ht._polyint(c).tobytes() == npoly.polyint(c).tobytes()
        der = npoly.polyder(c)
        if size == 1:
            # a constant's derivative: numpy keeps the zero's sign
            assert ht._polyder(c).tolist() == [0.0] and der.tolist() == [0.0]
        else:
            assert ht._polyder(c).tobytes() == der.tobytes()


class TestExactLaw:
    def test_packed_atom(self):
        law = ht.hitting_law_exact(idata.blocks(idata.packed(0.0)), 0.7, 5)
        assert law.atom_mass == 1.0
        assert law.components == {}
        assert law.masses() == {0: 1.0}

    def test_packed_never_hits_from_below(self):
        law = ht.hitting_law_exact(idata.blocks(idata.packed(0.0)), -1.0, 5)
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

    def test_horizon_past_finite_data_raises(self):
        # three particles: epochs 0..2 exist, a horizon of 4 needs X0(4)
        prof = idata.blocks(idata.from_positions([0.0, -1.0, -2.0]))
        assert ht.hitting_law_exact(prof, -0.5, 3).components
        with pytest.raises(ValueError, match="3 particles"):
            ht.hitting_law_exact(prof, -0.5, 4)

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
            law = ht.hitting_law_exact(idata.blocks(ic), eta,
                                       int(rng.integers(1, 9)))
            total = law.total_mass() + law.unhit_mass
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("span, raises", [(40, False), (80, False),
                                              (160, True)])
    def test_sweep_off_its_mass_balance_raises(self, span, raises):
        # unit blocks X0(k) = -k from the top, eta = -1.5: the walk runs
        # down the whole span.  With its first piece expanded about the
        # midpoint, the balance was off by 4.4e-8 at span 80 (and by 6.9
        # from the middle of the span); at span 160 the pieces still lose
        # the law
        prof = idata.blocks(idata.from_positions(
            [-float(k) for k in range(1, span + 1)], extend_last=True))
        if raises:
            # the pieces go negative before the balance is summed
            with pytest.raises(ConvergenceError, match="negative mass"):
                ht.hitting_law_exact(prof, -1.5, span)
        else:
            law = ht.hitting_law_exact(prof, -1.5, span)
            assert abs(law.total_mass() + law.unhit_mass - 1.0) <= 1e-12
            assert all(np.all(c.values >= 0)
                       for c in law.components.values())

    def test_sweep_mass_lost_below_the_cut_raises(self, monkeypatch):
        # a step that reports half the mass it pushes below the cut leaves
        # the law off by -0.219 (it balances to 1e-14 otherwise)
        real = ht._propagate_one_step

        def leaky(pieces, cut, eta):
            pieces, dead = real(pieces, cut, eta)
            return pieces, 0.5 * dead

        prof = idata.blocks(idata.from_positions([0, 0, -1, -1, -3],
                                                 extend_last=True))
        law = ht.hitting_law_exact(prof, -0.5, 12)
        assert abs(law.total_mass() + law.unhit_mass - 1.0) <= 1e-12
        monkeypatch.setattr(ht, "_propagate_one_step", leaky)
        with pytest.raises(ConvergenceError, match="off its mass balance"):
            ht.hitting_law_exact(prof, -0.5, 12)

    @pytest.mark.parametrize("eps, horizon", [(0.05, 109), (0.03, 226)])
    def test_two_narrow_wedges_balance(self, eps, horizon):
        # the law behind the hitting kernel of two wedges (0, -1) at T = 1,
        # x = -0.5: it hits only the second block, 40 (eps = 0.05) or 67
        # walk units below eta.  Once off its balance by 1.2e-6 and
        # raising, it now balances and equals inclusion-exclusion
        prof = idata.blocks(idata.narrow_wedge_approx([0.0, -1.0], eps=eps))
        law = ht.hitting_law_exact(prof, -0.11, horizon)
        ref = ht.hitting_law_exact(prof, -0.11, horizon,
                                   method="inclusion_exclusion")
        assert abs(law.total_mass() + law.unhit_mass - 1.0) <= 1e-14
        assert set(law.components) == set(ref.components) == {
            prof.blocks[1].start}
        for ell, comp in law.components.items():
            assert abs(comp.mass - ref.components[ell].mass) <= 1e-14
        assert abs(law.unhit_mass - ref.unhit_mass) <= 1e-14

    @pytest.mark.parametrize("run", [171, 172])
    def test_longest_first_free_run(self, run):
        # the first free run's monomial 1/(run-1)! is a normal double up to
        # run = 171; past it the law raises and names both numbers.  The
        # hit mass is P(Gamma(171) <= 100) = 7.0858e-11
        prof = idata.StepProfile(0, (idata.Block(start=run, level=-100.0,
                                                 length=30),))
        if run > 171:
            with pytest.raises(ConvergenceError,
                               match="free run of 172 steps.* at most 171"):
                ht.hitting_law_exact(prof, 0.0, run + 1)
        else:
            law = ht.hitting_law_exact(prof, 0.0, run + 1)
            assert abs(law.total_mass() + law.unhit_mass - 1.0) <= 1e-14
            assert abs(law.components[run].mass
                       - 7.08579952563139e-11) <= 1e-14

    def test_negative_component_mass_raises(self):
        # a hit piece whose mass is below -1e-12 has lost the law; it is
        # not dropped as if it were an empty component
        piece = ht._Piece(-1.0, 0.0, 0.0, np.array([-1e-9]))
        with pytest.raises(ConvergenceError, match="negative mass"):
            ht._pieces_to_component([piece], 0.0, 2.0)
        tiny = ht._Piece(-1.0, 0.0, 0.0, np.array([-1e-13]))
        assert ht._pieces_to_component([tiny], 0.0, 2.0) is None
        kept = ht._pieces_to_component([ht._Piece(-1.0, 0.0, 0.0,
                                                  np.array([1.0]))], 0.0, 2.0)
        assert kept.mass == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_support_only_at_block_starts(self):
        ic = idata.from_positions([2.0, 2.0, 0.5, -1.0, -1.0],
                                  extend_last=True)
        law = ht.hitting_law_exact(idata.blocks(ic), 1.7, 5)
        starts = {b.start for b in idata.blocks(ic).blocks}
        assert law.components  # eta below c_0: hits occur at later drops
        assert set(law.components) <= starts
        for ell, comp in law.components.items():
            level = ic.curve(ell)
            assert np.all(comp.nodes >= level - 1e-12)

    def test_atom_monotone_in_eta_packed(self):
        for eta in (-0.5, -1e-9, 0.0, 0.3):
            law = ht.hitting_law_exact(idata.blocks(idata.packed(0.0)), eta, 3)
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
        # the unhit mass is P(no hit) in both, from propagation in the sweep
        # and from signed masses here
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
            assert b.unhit_mass == pytest.approx(a.unhit_mass, abs=1e-12)


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
        law = ht.hitting_law_exact(idata.blocks(ic), GRID_ETA, 6,
                                   method=method)
    assert law.components
    assert 0.0 <= law.unhit_mass <= 1.0
    total = law.total_mass() + law.unhit_mass
    assert total == pytest.approx(1.0, abs=tol)


class TestGridLaw:
    def test_agrees_with_exact(self):
        ic = idata.from_positions([2.0, 2.0, 0.5, 0.5, -1.0],
                                  extend_last=True)
        eta = 1.7
        exact = ht.hitting_law_exact(idata.blocks(ic), eta, 6)
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
        exact = ht.hitting_law_exact(idata.blocks(ic), GRID_ETA, 6)
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
        total = law.total_mass() + law.unhit_mass
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
        exact = ht.hitting_law_exact(idata.blocks(ic), eta, 6)
        mc = ht.hitting_law_mc(ic, eta, 6, paths=400000, seed=7)
        assert exact.components
        for ell, comp in exact.components.items():
            m_mc = mc.components[ell]
            tol = max(1e-5, 3 * m_mc.stderr)
            assert abs(comp.mass - m_mc.mass) < tol
