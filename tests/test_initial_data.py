import math

import numpy as np
import pytest

from rbmdet import initial_data as idata


class TestFromPositions:
    def test_packed_is_single_block(self):
        ic = idata.from_positions([0.0, 0.0, 0.0])
        prof = idata.blocks(ic)
        assert len(prof.blocks) == 1
        assert prof.blocks[0] == idata.Block(start=0, level=0.0, length=3)

    def test_three_blocks(self):
        ic = idata.from_positions([3.0, 1.0, 1.0, 0.0])
        prof = idata.blocks(ic)
        assert [b.level for b in prof.blocks] == [3.0, 1.0, 0.0]
        assert [b.start for b in prof.blocks] == [0, 1, 3]

    def test_increasing_rejected_with_index(self):
        with pytest.raises(ValueError, match="index 2"):
            idata.from_positions([0.0, 1.0])

    def test_inf_only_leading(self):
        ic = idata.from_positions([math.inf, math.inf, 1.0, 0.0])
        assert ic.n_inf == 2
        assert ic.level(1) == math.inf
        assert ic.level(3) == 1.0
        with pytest.raises(ValueError):
            idata.from_positions([1.0, math.inf, 0.0])

    def test_infinite_level_named_by_its_sign(self):
        with pytest.raises(ValueError, match=r"^\+inf level at index 2"):
            idata.from_positions([1.0, math.inf, 0.0])
        for levels in ([0.0, -math.inf], [math.inf, -math.inf]):
            with pytest.raises(ValueError, match=r"^-inf level at index 2"):
                idata.from_positions(levels)

    def test_length_guard(self):
        ic = idata.from_positions([1.0, 0.0])
        with pytest.raises(ValueError, match="extend_last"):
            ic.level(3)
        ext = idata.from_positions([1.0, 0.0], extend_last=True)
        assert ext.level(9) == 0.0


class TestNarrowWedge:
    def test_single_wedge_at_origin_is_packed(self):
        ic = idata.narrow_wedge_approx([0.0], eps=0.37)
        assert ic.n_inf == 0
        prof = idata.blocks(ic)
        assert prof.blocks[0].start == 0
        assert prof.blocks[0].level == 0.0

    def test_single_wedge_block_start(self):
        # a = [-1], eps = 0.5: block start l1 = ceil(4) = 4, level 2a/eps = -4
        ic = idata.narrow_wedge_approx([-1.0], eps=0.5)
        assert ic.n_inf == 4
        prof = idata.blocks(ic)
        assert prof.blocks[0].start == 4
        assert prof.blocks[0].level == -4.0
        assert prof.blocks[0].length is None
        assert ic.curve(3) == math.inf
        assert ic.curve(4) == -4.0

    def test_two_wedges(self):
        ic = idata.narrow_wedge_approx([-0.5, -1.0], eps=1.0)
        prof = idata.blocks(ic)
        assert [b.start for b in prof.blocks] == [1, 2]
        assert [b.level for b in prof.blocks] == [-1.0, -2.0]

    def test_block_starts_equal_ceilings(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            # keep wedges separated by more than eps so blocks cannot collide
            a = -np.cumsum(rng.uniform(0.4, 1.0, k))
            eps = float(rng.uniform(0.05, 0.3))
            ic = idata.narrow_wedge_approx(a, eps)
            prof = idata.blocks(ic)
            expected = [math.ceil(-2 * v / eps) for v in a]
            assert [b.start for b in prof.blocks] == expected
            levels = [b.level for b in prof.blocks]
            assert all(y < x for x, y in zip(levels[:-1], levels[1:]))

    def test_nondecreasing_wedges_rejected(self):
        with pytest.raises(ValueError):
            idata.narrow_wedge_approx([-1.0, -0.5], eps=0.1)
        with pytest.raises(ValueError):
            idata.narrow_wedge_approx([0.5], eps=0.1)

    def test_collision_rejected(self):
        # ceil(4.2) == ceil(4.4) == 5 at eps = 0.5
        with pytest.raises(ValueError, match="collide"):
            idata.narrow_wedge_approx([-1.05, -1.1], eps=0.5)


class TestBlocksRoundTrip:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            raw = np.sort(rng.integers(-3, 4, n))[::-1].astype(float)
            ic = idata.from_positions(raw)
            prof = idata.blocks(ic)
            back = [b.level for b in prof.blocks for _ in range(b.length)]
            assert tuple(back) == ic.levels
            assert prof.n_inf == ic.n_inf


class TestCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "init.csv"
        p.write_text("index,position\n1,inf\n2,2.5\n3,0.0\n")
        ic = idata.read_csv(p)
        assert ic.n_inf == 1
        assert ic.levels == (2.5, 0.0)

    def test_contiguity_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,1.0\n3,0.0\n")
        with pytest.raises(ValueError, match="contiguous"):
            idata.read_csv(p)
