import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from rbmdet import initial_data as idata
from rbmdet import special
from rbmdet.fredholm import NystromSystem
from rbmdet.kernel import KernelSpec, kernel_eval, s_ops, sbar_epi

STEP_IC = idata.from_positions([1.5, 1.5, 0.0, 0.0, -1.2, -1.2, -1.2, -2.0],
                               extend_last=True)


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
        spec = KernelSpec(t=1.1, indices=(2, 5), ic=STEP_IC)
        kern = kernel_eval(spec)
        z = 0.4
        for n_eff, l in [(1, 1), (-2, 4), (0, 2)]:
            n = 2  # base index
            l = n - n_eff
            y = -0.7
            ref = quad(
                lambda x: s_ops("S", 1.1, n, x, z)
                * math.exp(y - x) * (x - y) ** (l - 1) / math.factorial(l - 1),
                y, 60.0, limit=400)[0]
            got = float(kern._s_matrix(n_eff, np.array([y]),
                                       np.array([z]))[0, 0])
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-11)


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

    def test_gauge_relation(self):
        conj = kernel_eval(KernelSpec(t=1.3, indices=(2, 5), ic=STEP_IC,
                                      conjugated=True))
        plain = kernel_eval(KernelSpec(t=1.3, indices=(2, 5), ic=STEP_IC,
                                       conjugated=False))
        for (ni, zi, nj, zj) in [(2, 0.3, 5, -1.0), (5, -2.0, 2, 1.0),
                                 (5, 0.0, 5, -0.7)]:
            a = conj((ni, zi), (nj, zj))
            b = plain((ni, zi), (nj, zj))
            assert a == pytest.approx(b * math.exp(zj - zi),
                                      rel=1e-12, abs=1e-14)

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

    def test_factor_memo_matches_fresh_evaluator(self):
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        rng = np.random.default_rng(5)
        node_sets = [np.linspace(-7.0, 1.0, 9), np.linspace(-6.0, -2.5, 7),
                     rng.uniform(-7.0, 1.0, 5)]

        def fresh(hull):
            k = kernel_eval(spec)
            k.block(3, 3, hull, hull)   # same discretization as the memo
            return k

        hull = np.array([-7.0, 1.0])
        kern = fresh(hull)
        for _ in range(12):
            ni, nj = (int(v) for v in rng.choice(spec.indices, 2))
            zi, zj = (node_sets[int(v)] for v in rng.integers(0, 3, 2))
            got = kern.block(ni, nj, zi, zj)
            assert np.array_equal(got, fresh(hull).block(ni, nj, zi, zj))
            assert len(kern._factors) <= 2 * len(spec.indices)
        # a block reaching past the hull rebuilds the discretization; stale
        # factors are replaced, not reused
        wide = np.linspace(-7.0, 2.0, 6)
        got = kern.block(9, 3, wide, node_sets[0])
        grown = np.array([-7.0, 2.0])
        assert np.array_equal(got, fresh(grown).block(9, 3, wide,
                                                      node_sets[0]))
        got = kern.block(3, 9, node_sets[1], node_sets[2])
        assert np.array_equal(got, fresh(grown).block(3, 9, node_sets[1],
                                                      node_sets[2]))
        assert set(kern._factors) <= {(side, n) for side in ("row", "col")
                                      for n in spec.indices}

    def test_factor_memo_under_threads(self):
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        node_sets = [np.linspace(-7.0, 1.0, 9), np.linspace(-6.0, -2.5, 7)]
        requests = [(ni, nj, a, b) for ni in spec.indices
                    for nj in spec.indices for a in (0, 1) for b in (0, 1)]
        kern = kernel_eval(spec)
        kern.block(3, 3, np.array([-7.0, 1.0]), np.array([-7.0, 1.0]))
        expected = {r: kern.block(r[0], r[1], node_sets[r[2]],
                                  node_sets[r[3]]) for r in requests}
        mismatches = []

        def worker(shift):
            for k in range(3 * len(requests)):
                r = requests[(k * (2 * shift + 1)) % len(requests)]
                got = kern.block(r[0], r[1], node_sets[r[2]],
                                 node_sets[r[3]])
                if not np.array_equal(got, expected[r]):
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
        assert len(kern._factors) <= 2 * len(spec.indices)

    def test_one_recurrence_per_line_and_atom_nodes(self, monkeypatch):
        # S_n and Sbar_n on a line's atom nodes share their argument, and
        # one recurrence to degree n yields both: per assembly, one pair
        # call per line and no recurrence argument run twice
        spec = KernelSpec(t=1.0, indices=(3, 9), ic=STEP_IC)
        calls = []

        def counting(name):
            real = getattr(special, name)

            def run(n, x):
                calls.append((name, n, np.asarray(x).tobytes()))
                return real(n, x)
            return run

        for name in ("hermite_normed_log", "hermite_normed_log_pair"):
            monkeypatch.setattr(special, name, counting(name))
        kern = kernel_eval(spec)

        def assemble(order):
            del calls[:]
            NystromSystem(intervals=((-7.0, 1.0), (-6.0, -2.5)), order=order,
                          block_fn=lambda i, j, x, y: kern.block(
                              spec.indices[i], spec.indices[j], x, y),
                          max_panel=1.0).matrix()
            return list(calls)

        for order in (16, 32):
            made = assemble(order)
            pairs = [(n, x) for name, n, x in made if name.endswith("pair")]
            assert sorted(n for n, _ in pairs) == list(spec.indices)
            args = [x for _, _, x in made]
            assert len(set(args)) == len(args)
            assert assemble(order) == []   # the memo serves a repeat
        # a point evaluation, or one line on two node sets, builds each
        # side alone
        for a, b in [((3, -1.0), (3, -2.0)), ((3, -1.0), (9, -2.0))]:
            del calls[:]
            kern(a, b)
            assert calls and not any(c[0].endswith("pair") for c in calls)
        z = np.linspace(-6.0, -1.0, 5)
        del calls[:]
        kern.block(3, 3, z, z + 0.5)
        assert calls and not any(c[0].endswith("pair") for c in calls)

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

    def test_biorth_requires_finite_levels(self):
        ic = idata.narrow_wedge_approx([-1.0], eps=0.5)
        with pytest.raises(ValueError):
            KernelSpec(t=1.0, indices=(6,), ic=ic, representation="biorth")
