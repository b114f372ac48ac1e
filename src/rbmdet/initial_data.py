"""Initial conditions for the ordered particle system.

Particles are indexed from 1 with nonincreasing levels X0(1) >= X0(2) >= ...;
a leading run of +inf levels (narrow-wedge style data) is stored as an
explicit count, never as a sentinel float, because the hitting logic branches
on it.

The discrete-time hitting problems run along the *curve* c_k = X0(k+1),
k = 0, 1, ...; block starts quoted anywhere in this package are 0-based
epochs of that curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


@dataclass(frozen=True)
class InitialCondition:
    """Right-finite ordered initial data.

    levels      finite particle levels for indices n_inf+1 .. n_inf+len(levels)
    n_inf       number of leading +inf particles
    extend_last when True the last finite level repeats for all larger
                indices (step data whose rightmost block is unbounded)
    """

    levels: tuple
    n_inf: int = 0
    extend_last: bool = False

    def __post_init__(self):
        if self.n_inf < 0:
            raise ValueError("n_inf must be >= 0")
        if len(self.levels) == 0:
            raise ValueError("at least one finite level is required")
        for v in self.levels:
            if not math.isfinite(v):
                raise ValueError("levels must be finite; leading +inf entries "
                                 "are carried by n_inf")

    @property
    def length(self) -> int:
        """Number of explicitly represented particles."""
        return self.n_inf + len(self.levels)

    def level(self, i: int) -> float:
        """X0(i) for the 1-based particle index i."""
        if i < 1:
            raise ValueError("particle indices start at 1")
        if i <= self.n_inf:
            return INF
        j = i - self.n_inf - 1
        if j < len(self.levels):
            return self.levels[j]
        if self.extend_last:
            return self.levels[-1]
        raise ValueError(
            f"initial condition has {self.length} particles, index {i} "
            "requested (construct with extend_last for step data)")

    def curve(self, k: int) -> float:
        """Hitting curve c_k = X0(k+1) at 0-based epoch k."""
        return self.level(k + 1)

    def curve_array(self, n: int) -> np.ndarray:
        """c_0 .. c_{n-1} as an array (entries may be +inf)."""
        return np.array([self.curve(k) for k in range(n)], dtype=float)

    @property
    def min_level(self) -> float:
        return self.levels[-1]

    @property
    def max_level(self) -> float:
        return self.levels[0]


@dataclass(frozen=True)
class Block:
    """Maximal constant run of the hitting curve.

    start   0-based curve epoch of the first entry
    level   common level
    length  run length, or None when the block extends to the horizon
    """

    start: int
    level: float
    length: int | None


@dataclass(frozen=True)
class StepProfile:
    n_inf: int
    blocks: tuple

    def __post_init__(self):
        lv = [b.level for b in self.blocks]
        for a, b in zip(lv[:-1], lv[1:]):
            if not b < a:
                raise ValueError("block levels must be strictly decreasing")
        for blk in self.blocks[:-1]:
            if blk.length is None:
                raise ValueError("only the final block may be unbounded")
        for blk in self.blocks:
            if blk.length is not None and blk.length <= 0:
                raise ValueError("block lengths must be positive")

    def blocks_within(self, horizon: int):
        """Blocks whose start epoch is < horizon."""
        return [b for b in self.blocks if b.start < horizon]


def from_positions(positions, extend_last: bool = False) -> InitialCondition:
    """Validated InitialCondition from a 1-based sequence of levels.

    +inf entries are allowed only as a leading run.  An increasing adjacent
    pair is rejected, reporting the 1-based index of the second member.
    """
    vals = [float(v) for v in positions]
    if not vals:
        raise ValueError("empty initial condition")
    n_inf = 0
    while n_inf < len(vals) and math.isinf(vals[n_inf]) and vals[n_inf] > 0:
        n_inf += 1
    finite = vals[n_inf:]
    if not finite:
        raise ValueError("initial condition needs at least one finite level")
    for off, v in enumerate(finite):
        if math.isnan(v):
            raise ValueError(f"NaN level at index {n_inf + off + 1}")
        if math.isinf(v):
            raise ValueError(
                f"{v:+} level at index {n_inf + off + 1}: only a leading run "
                "of +inf is allowed")
    for off in range(1, len(finite)):
        if finite[off] > finite[off - 1]:
            raise ValueError(
                f"levels must be nonincreasing: violation at index "
                f"{n_inf + off + 1}")
    return InitialCondition(tuple(finite), n_inf=n_inf,
                            extend_last=extend_last)


def packed(level: float = 0.0) -> InitialCondition:
    """All particles at a common level."""
    return InitialCondition((float(level),), extend_last=True)


def narrow_wedge_approx(a, eps: float) -> InitialCondition:
    """Step approximation of multiple narrow wedges at positions a_1 > ... > a_l.

    The hitting curve is +inf on epochs [0, l_1) and equals 2 a_k / eps on
    [l_k, l_{k+1}), with block starts l_k = ceil(-2 a_k / eps); the last block
    extends indefinitely.  Wedge positions must be <= 0 and strictly
    decreasing; eps must be small enough that consecutive block starts do not
    collide.
    """
    a = [float(v) for v in a]
    if not a:
        raise ValueError("at least one wedge position required")
    if a[0] > 0:
        raise ValueError("wedge positions must be <= 0")
    for prev, cur in zip(a[:-1], a[1:]):
        if not cur < prev:
            raise ValueError("wedge positions must be strictly decreasing")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    starts = [math.ceil(-2.0 * ak / eps) for ak in a]
    for s0, s1 in zip(starts[:-1], starts[1:]):
        if not s1 > s0:
            raise ValueError(
                f"eps={eps} too large: wedge blocks collide (starts {starts})")
    levels = []
    for k in range(len(a) - 1):
        levels.extend([2.0 * a[k] / eps] * (starts[k + 1] - starts[k]))
    levels.append(2.0 * a[-1] / eps)
    return InitialCondition(tuple(levels), n_inf=starts[0], extend_last=True)


def blocks(ic: InitialCondition) -> StepProfile:
    """Decompose the hitting curve into maximal constant blocks.

    Block starts are epoch n_inf and every strict level drop; the final block
    is unbounded exactly when the condition extends indefinitely.
    """
    out = []
    pos = ic.n_inf
    vals = list(ic.levels)
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] == vals[i]:
            j += 1
        length = j - i + 1
        last = j + 1 == len(vals)
        out.append(Block(start=pos, level=vals[i],
                         length=None if (last and ic.extend_last) else length))
        pos += length
        i = j + 1
    return StepProfile(n_inf=ic.n_inf, blocks=tuple(out))


def read_csv(path) -> InitialCondition:
    """Read ``index,position`` lines (1-based contiguous indices; an ``inf``
    token is allowed only in a leading run)."""
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected 'index,position'")
            if ln == 1 and not parts[0].lstrip("-").isdigit():
                continue  # header
            idx = int(parts[0])
            val = INF if parts[1].lower() in ("inf", "+inf", "infinity") \
                else float(parts[1])
            rows.append((idx, val))
    if not rows:
        raise ValueError("empty CSV initial condition")
    rows.sort()
    for want, (idx, _) in enumerate(rows, start=1):
        if idx != want:
            raise ValueError(f"indices must be 1-based and contiguous; "
                             f"got {idx} where {want} expected")
    return from_positions([v for _, v in rows])
