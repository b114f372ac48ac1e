import math
import tracemalloc

import numpy as np
import pytest

from rbmdet import initial_data as idata
from rbmdet import simulate as sim

TW_MEAN = -1.7711  # mean of the beta=2 Tracy-Widom law

STEP_IC = idata.from_positions([2.0, 1.5, 1.0, 1.0, 0.5, 0.0, -0.5],
                               extend_last=True)


def _reference_reflect(levels, inc):
    """The allocate-everything recursion: W with its t = 0 column, then a new
    row per particle, reflected off the running minimum of the gap."""
    w = np.concatenate([np.zeros(inc.shape[:-1] + (1,)),
                        np.cumsum(inc, axis=-1)], axis=-1)
    w = w + levels[..., None]
    x = np.empty_like(w)
    x[..., 0, :] = w[..., 0, :]
    for k in range(1, w.shape[-2]):
        gap = x[..., k - 1, :] - w[..., k, :]
        running = np.minimum.accumulate(gap, axis=-1)
        x[..., k, :] = w[..., k, :] + np.minimum(running, 0.0)
    return x


def _reference_mc(ic, t, indices, a, paths, dt, seed):
    """mc_distribution drawing each 512-path chunk in one normal() call and
    reflecting it with the reference recursion."""
    n = max(indices)
    levels = np.array([ic.level(i) for i in range(1, n + 1)])
    steps = round(t / dt)
    sel = np.array(indices) - 1
    hits = 0
    for c, start in enumerate(range(0, paths, 512)):
        rng = sim._philox(seed, c)
        inc = rng.normal(0.0, math.sqrt(dt),
                         size=(min(512, paths - start), n, steps))
        x = _reference_reflect(levels[None, :], inc)
        hits += int(np.sum(np.all(x[:, sel, -1] >= np.array(a), axis=1)))
    p_hat = hits / paths
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / paths) / paths)


class TestNoise:
    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="whole number"):
            sim.sample_noise(2, 1.0, 0.3, seed=1)
        with pytest.raises(ValueError, match="whole number"):
            sim.sample_noise(2, 0.5, 1.0, seed=1)
        with pytest.raises(ValueError, match="dt > 0"):
            sim.sample_noise(2, 1.0, 0.0, seed=1)
        # float quotients a few ulps off a whole number are accepted
        assert sim.sample_noise(1, 0.3, 0.1, seed=1).n_steps == 3
        assert sim.sample_noise(1, 1.0, 1e-3, seed=1).n_steps == 1000

    def test_seed_reproducibility(self):
        a = sim.sample_noise(3, 1.0, 0.01, seed=5)
        b = sim.sample_noise(3, 1.0, 0.01, seed=5)
        assert np.array_equal(a.increments, b.increments)
        c = sim.sample_noise(3, 1.0, 0.01, seed=6)
        assert not np.array_equal(a.increments, c.increments)

    def test_moments(self):
        noise = sim.sample_noise(10, 100.0, 1e-3, seed=0)
        inc = noise.increments.ravel()  # 1e6 draws
        n = inc.size
        assert abs(inc.mean()) < 4 * math.sqrt(1e-3 / n)
        assert abs(inc.var() - 1e-3) < 4 * 1e-3 * math.sqrt(2.0 / n)

    def test_particle_streams_differ(self):
        noise = sim.sample_noise(2, 1.0, 0.01, seed=5)
        assert not np.array_equal(noise.increments[0], noise.increments[1])


class TestReflect:
    def test_one_particle_is_driving_path(self):
        noise = sim.sample_noise(1, 1.0, 0.01, seed=2)
        ens = sim.rbm_reflect(idata.from_positions([0.8]), noise)
        assert np.allclose(ens.paths[0], noise.paths(np.array([0.8]))[0])

    def test_two_particle_hand_example(self):
        noise = sim.NoiseField(dt=1.0, increments=np.array([[0.3], [0.5]]),
                               seed=None)
        ens = sim.rbm_reflect(idata.from_positions([0.0, 0.0]), noise)
        assert ens.paths[1, 1] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("positions", [
        [0.9, 0.4, 0.1, -0.3, -1.2],
        [0.5, 0.5, 0.5, 0.5],
        [1.0, 1.0, 0.0, 0.0, 0.0, -1.0],
    ])
    def test_paths_equal_reference_recursion(self, positions):
        noise = sim.sample_noise(len(positions), 1.0, 1e-3, seed=31)
        ens = sim.rbm_reflect(idata.from_positions(positions), noise)
        ref = _reference_reflect(np.array(positions), noise.increments)
        assert np.array_equal(ens.paths, ref)

    def test_increasing_levels_rejected(self):
        noise = sim.sample_noise(2, 1.0, 0.01, seed=2)
        with pytest.raises(ValueError, match="nonincreasing"):
            sim.rbm_reflect(idata.InitialCondition((0.0, 1.0)), noise)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(9)
        for s in range(5):
            n = int(rng.integers(2, 12))
            lv = np.sort(rng.uniform(-1, 1, n))[::-1]
            noise = sim.sample_noise(n, 0.5, 1e-3, seed=50 + s)
            ens = sim.rbm_reflect(idata.from_positions(lv), noise)
            assert ens.is_ordered(1e-12)


class TestLpp:
    def test_single_row(self):
        noise = sim.sample_noise(4, 1.0, 0.01, seed=7)
        w = noise.paths()
        assert sim.lpp_value(noise, 3, 3, 1.0) == pytest.approx(
            w[2, -1], abs=1e-14)

    def test_time_zero(self):
        noise = sim.sample_noise(4, 1.0, 0.01, seed=7)
        assert sim.lpp_value(noise, 1, 3, 0.0) == 0.0

    def test_two_by_two_exhaustive(self):
        inc = np.array([[0.5, -0.2], [0.1, 0.4]])
        noise = sim.NoiseField(dt=1.0, increments=inc, seed=None)
        w = noise.paths()
        ref = max(w[0, s] + w[1, 2] - w[1, s] for s in range(3))
        assert sim.lpp_value(noise, 1, 2, 2.0) == pytest.approx(ref,
                                                                abs=1e-14)


def _reference_variational(levels, noise):
    """rbm_variational recomputing the dual row's prefix sums at every
    step of every start row, as it did before they were taken once."""
    dual = noise.negated()
    n, m = dual.increments.shape
    x = np.full((n, m + 1), np.inf)
    for l in range(1, n + 1):
        g = np.concatenate([[0.0], np.cumsum(dual.increments[l - 1])])
        x[l - 1] = np.minimum(x[l - 1], levels[l - 1] - g)
        for k in range(l + 1, n + 1):
            wk = np.concatenate([[0.0], np.cumsum(dual.increments[k - 1])])
            g = wk + np.maximum.accumulate(g - wk)
            x[k - 1] = np.minimum(x[k - 1], levels[l - 1] - g)
    return x


class TestDuality:
    @pytest.mark.parametrize("n", [12, 60])
    def test_variational_paths_equal_per_row_recomputation(self, n):
        lv = np.sort(np.random.default_rng(n).uniform(-2, 2, n))[::-1]
        noise = sim.sample_noise(n, 1.0, 1e-3, seed=n)
        got = sim.rbm_variational(idata.from_positions(lv), noise)
        assert np.array_equal(got.paths, _reference_variational(lv, noise))

    def test_exact_pathwise_identity(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for s in range(50):
            n = int(rng.integers(1, 21))
            lv = np.sort(rng.uniform(-2, 2, n))[::-1]
            ic = idata.from_positions(lv)
            noise = sim.sample_noise(n, 1.0, 1e-3, seed=1000 + s)
            a = sim.rbm_reflect(ic, noise)
            b = sim.rbm_variational(ic, noise)
            worst = max(worst, float(np.max(np.abs(a.paths - b.paths))))
        assert worst < 1e-12

    def test_coincident_levels(self):
        noise = sim.sample_noise(6, 1.0, 2e-3, seed=77)
        ic = idata.from_positions([1.0, 1.0, 0.0, 0.0, 0.0, -1.0])
        a = sim.rbm_reflect(ic, noise)
        b = sim.rbm_variational(ic, noise)
        assert np.max(np.abs(a.paths - b.paths)) < 1e-12

    def test_growth_order(self):
        # mean of -X_1(n) tracks the corrected edge 2 sqrt(n) + n^{-1/6} E[TW]
        # once dt is small enough; 15% of 2 sqrt(nt) at dt = 1e-4
        n = 200
        vals = []
        for f in range(30):
            noise = sim.sample_noise(n, 1.0, 1e-4, seed=900 + f)
            ens = sim.rbm_reflect(idata.packed(0.0), noise)
            vals.append(-ens.paths[n - 1, -1])
        mean = float(np.mean(vals))
        assert abs(mean / (2 * math.sqrt(n)) - 1.0) < 0.15


class TestMcDistribution:
    def test_single_particle_symmetry(self):
        est, se = sim.mc_distribution(idata.packed(0.0), 1.0, [1], [0.0],
                                      paths=40000, dt=1e-2, seed=3)
        assert abs(est - 0.5) < 3 * se

    def test_stderr_scales_with_paths(self):
        _, se1 = sim.mc_distribution(idata.packed(0.0), 1.0, [1], [0.0],
                                     paths=1000, dt=1e-2, seed=3)
        _, se2 = sim.mc_distribution(idata.packed(0.0), 1.0, [1], [0.0],
                                     paths=16000, dt=1e-2, seed=3)
        assert se1 / se2 == pytest.approx(4.0, rel=0.2)

    def test_thread_count_invariance(self):
        args = (idata.packed(0.0), 1.0, [2], [-1.0])
        a = sim.mc_distribution(*args, paths=30000, dt=2e-3, seed=11,
                                threads=1)
        b = sim.mc_distribution(*args, paths=30000, dt=2e-3, seed=11,
                                threads=4)
        assert a == b

    @pytest.mark.parametrize("ic, indices, a, paths", [
        (idata.packed(0.0), [5], [-3.0], 1000),
        (idata.packed(0.5), [2, 4], [-0.5, -1.5], 3000),
        (STEP_IC, [3, 6, 8], [0.0, -1.0, -2.0], 1000),
        (STEP_IC, [2, 9], [0.5, -2.5], 3000),
    ], ids=["packed-1", "packed-2", "step-3", "step-2"])
    def test_bitwise_equal_to_reference(self, ic, indices, a, paths):
        ref = _reference_mc(ic, 1.0, indices, a, paths, 2e-3, seed=5)
        for threads in (1, 2):
            assert sim.mc_distribution(ic, 1.0, indices, a, paths, 2e-3,
                                       seed=5, threads=threads) == ref

    def test_block_draws_continue_the_chunk_stream(self):
        one = sim._philox(4, 0).normal(0.0, math.sqrt(1e-3), size=(300, 3, 7))
        rng = sim._philox(4, 0)
        blocks = np.empty_like(one)
        for start in (0, 128, 256):
            b = blocks[start:start + 128]
            rng.standard_normal(out=b)
            b *= math.sqrt(1e-3)
        assert np.array_equal(blocks, one)

    def test_pinned_estimate(self):
        est, _ = sim.mc_distribution(idata.packed(0.0), 1.0, [5], [-4.0],
                                     paths=20000, dt=1e-3, seed=7)
        assert est == 0.9256

    def test_peak_memory_is_bounded(self):
        tracemalloc.start()
        try:
            sim.mc_distribution(idata.packed(0.0), 1.0, [5], [-4.0],
                                paths=2048, dt=1e-3, seed=7, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="start at 1"):
            sim.mc_distribution(idata.packed(0.0), 1.0, [0, 3], [5.0, -2.0],
                                paths=100, dt=1e-2, seed=1)
        with pytest.raises(ValueError, match="finite"):
            sim.mc_distribution(idata.InitialCondition((0.0,), n_inf=2), 1.0,
                                [3], [0.0], paths=100, dt=1e-2, seed=1)
        with pytest.raises(ValueError, match="nonincreasing"):
            sim.mc_distribution(idata.InitialCondition((0.0, 1.0)), 1.0,
                                [2], [0.0], paths=100, dt=1e-2, seed=1)
        with pytest.raises(ValueError, match="whole number"):
            sim.mc_distribution(idata.packed(0.0), 1.0, [1], [0.0],
                                paths=100, dt=0.3, seed=1)

    def test_determinant_agreement_after_bias_extrapolation(self):
        # the grid estimate carries an O(sqrt(dt)) reflection bias; the
        # sqrt(dt)-Richardson combination of two grids removes it and then
        # matches the determinant within Monte Carlo noise
        from rbmdet.fredholm import rbm_probability
        from rbmdet.kernel import KernelSpec
        a = -4.0
        det = rbm_probability(KernelSpec(t=1.0, indices=(5,),
                                         ic=idata.packed(0.0)), [a]).value
        p4, se4 = sim.mc_distribution(idata.packed(0.0), 1.0, [5], [a],
                                      paths=60000, dt=4e-3, seed=21)
        p1, se1 = sim.mc_distribution(idata.packed(0.0), 1.0, [5], [a],
                                      paths=60000, dt=1e-3, seed=22)
        extrap = 2 * p1 - p4
        se = math.sqrt(4 * se1 ** 2 + se4 ** 2)
        assert abs(extrap - det) < 3 * se
        # and the bias shrinks with dt
        assert abs(p1 - det) < abs(p4 - det)


class TestGue:
    def test_one_by_one_is_standard_normal(self):
        lam = sim.gue_edge_sample(1, 50000, seed=3)
        assert abs(lam.mean()) < 4 / math.sqrt(lam.size)
        assert abs(lam.var() - 1.0) < 4 * math.sqrt(2.0 / lam.size)

    def test_edge_location_with_tw_correction(self):
        for n in (16, 64):
            lam = sim.gue_edge_sample(n, 20000, seed=5)
            corrected = 2 * math.sqrt(n) + n ** (-1.0 / 6.0) * TW_MEAN
            assert abs(lam.mean() / corrected - 1.0) < 0.10

    def test_cdf_matches_determinant_n2(self):
        from rbmdet.fredholm import rbm_probability
        from rbmdet.kernel import KernelSpec
        lam = sim.gue_edge_sample(2, 100000, seed=13)
        spec = KernelSpec(t=1.0, indices=(2,), ic=idata.packed(0.0))
        for a in (-2.5, -1.0, 0.5):
            det = rbm_probability(spec, [a]).value
            emp = float(np.mean(lam <= -a))
            se = math.sqrt(max(emp * (1 - emp), 1e-5) / lam.size)
            assert abs(det - emp) < 3 * se

    def test_seed_determinism(self):
        assert np.array_equal(sim.gue_edge_sample(3, 1000, seed=1),
                              sim.gue_edge_sample(3, 1000, seed=1))
