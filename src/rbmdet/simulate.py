"""Shared-noise Monte Carlo for the reflected particle system.

The same Brownian increments drive two constructions:

* ``rbm_reflect``     - recursive Skorokhod reflection, each particle pushed
  down off the previous one via the running-minimum representation;
* ``rbm_variational`` - the last-passage dynamic program.  Reflections push
  particles down, so the pathwise identity
  X_t(n) = min_l (X0(l) - G[(0,l) -> (t,n)]) holds with the last-passage
  field collecting the *negated* driving increments; the negation lives here,
  not in ``lpp_value``.

Both are evaluated on the same discrete grid, where the min-plus identity is
exact, so the duality check is a machine-precision test rather than a
statistical one.

All randomness flows from a user seed through numpy SeedSequence spawning
(counter-based Philox streams): per-particle streams for one noise field,
per-chunk streams for Monte Carlo, deterministic regardless of scheduling.

Reflection works in place on a buffer of increments (``_reflect_paths``), so
Monte Carlo holds one block of ``_MC_BLOCK`` paths per worker (5 MB for
n = 5 at 1000 steps) plus one gap row, whatever the chunk size or path
count.  A chunk draws its blocks one after another from
its own stream, which gives the very numbers one draw of the whole chunk
would.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import InitialCondition

# paths (matrices) per Monte Carlo (GUE) chunk; chunk c uses stream (seed, c)
_MC_CHUNK = 512
_GUE_CHUNK = 2048
# paths drawn and reflected at once within a Monte Carlo chunk
_MC_BLOCK = 128


def _philox(seed, *key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _grid_steps(t: float, dt: float) -> int:
    """Number of dt steps in t, which must be a whole number >= 1 of them
    (to a relative 1e-9)."""
    if not dt > 0:
        raise ValueError("need dt > 0")
    ratio = t / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or not math.isclose(ratio, steps, rel_tol=1e-9):
        raise ValueError(f"t={t} is not a whole number (>= 1) of dt={dt} "
                         "steps")
    return steps


def _levels(ic: InitialCondition, n: int) -> np.ndarray:
    """X0(1..n), which reflection and the variational formula need finite
    and nonincreasing."""
    levels = np.array([ic.level(i) for i in range(1, n + 1)], dtype=float)
    if not np.all(np.isfinite(levels)):
        raise ValueError("reflection requires finite levels for all particles")
    if np.any(np.diff(levels) > 0):
        raise ValueError("reflection requires nonincreasing levels")
    return levels


@dataclass(frozen=True)
class NoiseField:
    """Brownian increments for N particles on a uniform grid.

    increments[k, i] is the step of particle k+1 over (t_i, t_{i+1}],
    Normal(0, dt), from an independent counter-based stream per particle.
    """

    dt: float
    increments: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    def paths(self) -> np.ndarray:
        """Brownian paths W_k(t_i) from 0 on the grid (column 0 is t = 0)."""
        n, m = self.increments.shape
        out = np.empty((n, m + 1))
        out[:, 0] = 0.0
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    def negated(self) -> "NoiseField":
        return replace(self, increments=-self.increments)


def sample_noise(n_particles: int, horizon: float, dt: float,
                 seed: int) -> NoiseField:
    """Deterministic-in-seed noise field with Normal(0, dt) increments over a
    horizon of a whole number of dt steps."""
    steps = _grid_steps(horizon, dt)
    inc = np.empty((n_particles, steps))
    for k in range(n_particles):
        inc[k] = _philox(seed, k).normal(0.0, math.sqrt(dt), size=steps)
    return NoiseField(dt=dt, increments=inc)


def _reflect_paths(levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized Skorokhod recursion, in place, possibly batched.

    levels: (N,), nonincreasing; x: (..., N, M) holding the increments over
    t_1 .. t_M, overwritten with the reflected paths at t_1 .. t_M and
    returned.  Row k is reflected down off row k-1:
    X_k(t) = W_k(t) + min(0, min_{s<=t}(X_{k-1}(s) - W_k(s))).
    The gap at t_0 = 0 is levels[k-1] - levels[k] >= 0, so seeding the
    running minimum with 0 stands for it.  Beyond x, the recursion holds one
    gap row of shape (..., M).
    """
    np.cumsum(x, axis=-1, out=x)
    x += levels[:, None]
    gap = np.empty(x.shape[:-2] + x.shape[-1:])
    for k in range(1, x.shape[-2]):
        np.subtract(x[..., k - 1, :], x[..., k, :], out=gap)
        np.minimum(gap[..., :1], 0.0, out=gap[..., :1])
        np.minimum.accumulate(gap, axis=-1, out=gap)
        x[..., k, :] += gap
    return x


def rbm_reflect(ic: InitialCondition, noise: NoiseField) -> np.ndarray:
    """Particle paths by recursive reflection off the previous particle:
    (n_particles, n_steps + 1), column 0 the levels."""
    levels = _levels(ic, noise.n_particles)
    x = np.empty((noise.n_particles, noise.n_steps + 1))
    x[:, 0] = levels
    x[:, 1:] = noise.increments
    _reflect_paths(levels, x[:, 1:])
    return x


def lpp_value(noise: NoiseField, start_row: int, end_row: int,
              t: float) -> float:
    """Last passage value G[(0, start_row) -> (t, end_row)] on the grid.

    Rows are 1-based; the supremum over up-right paths of collected
    increments becomes a running-max dynamic program on the grid.  t is 0
    or a whole number of grid steps (to a relative 1e-9).
    """
    if not 1 <= start_row <= end_row <= noise.n_particles:
        raise ValueError("need 1 <= start_row <= end_row <= particles")
    i = 0 if t == 0 else _grid_steps(t, noise.dt)
    if i > noise.n_steps:
        raise ValueError(f"t={t} off the grid")
    g = _lpp_rows(noise, start_row, end_row)
    return float(g[i])


def _lpp_rows(noise: NoiseField, start_row: int, end_row: int) -> np.ndarray:
    """G[(0, start_row) -> (t_i, end_row)] for every grid time t_i."""
    w = np.concatenate([[0.0], np.cumsum(noise.increments[start_row - 1])])
    g = w.copy()
    for k in range(start_row + 1, end_row + 1):
        wk = np.concatenate([[0.0], np.cumsum(noise.increments[k - 1])])
        g = wk + np.maximum.accumulate(g - wk)
    return g


def rbm_variational(ic: InitialCondition, noise: NoiseField) -> np.ndarray:
    """Particle paths from the last-passage variational formula on the same
    noise, shaped as :func:`rbm_reflect`'s: X_t(n) = min_{l <= n}(X0(l) -
    G[(0,l) -> (t,n)]) with the dual field carrying the negated
    increments."""
    n = noise.n_particles
    levels = _levels(ic, n)
    w = noise.negated().paths()
    x = np.full(w.shape, np.inf)
    for l in range(1, n + 1):
        g = w[l - 1]
        x[l - 1] = np.minimum(x[l - 1], levels[l - 1] - g)
        for k in range(l + 1, n + 1):
            g = w[k - 1] + np.maximum.accumulate(g - w[k - 1])
            x[k - 1] = np.minimum(x[k - 1], levels[l - 1] - g)
    return x


def mc_distribution(ic: InitialCondition, t: float, indices, a,
                    paths: int, dt: float, seed: int, threads: int = 1):
    """Empirical P(X_t(n_j) >= a_j for all j) with binomial standard error.

    t must be a whole number of dt steps.  Chunked; chunk c draws from the
    stream (seed, c), and the count reduction is a fixed-order sum, so the
    estimate is identical for any thread count.  A chunk draws and reflects
    its paths _MC_BLOCK at a time into one reused buffer; each block
    continues the chunk's stream, so the numbers are those of one draw of
    the whole chunk.  A worker holds _MC_BLOCK * max(indices) * t/dt
    float64 for the paths and _MC_BLOCK * t/dt for the reflection's gap
    row: about 6 MB for index 5 at 1000 steps.
    """
    indices = [int(n) for n in np.atleast_1d(indices)]
    a = [float(v) for v in np.atleast_1d(a)]
    if len(indices) != len(a):
        raise ValueError("need one threshold per index")
    if min(indices) < 1:
        raise ValueError("particle indices start at 1")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    n = max(indices)
    levels = _levels(ic, n)
    steps = _grid_steps(t, dt)
    sel = np.array(indices, dtype=int) - 1
    thresh = np.array(a)
    scale = math.sqrt(dt)

    n_chunks = (paths + _MC_CHUNK - 1) // _MC_CHUNK
    sizes = [min(_MC_CHUNK, paths - c * _MC_CHUNK) for c in range(n_chunks)]

    def run_chunk(c: int) -> int:
        rng = _philox(seed, c)
        buf = np.empty((min(_MC_BLOCK, sizes[c]), n, steps))
        hits = 0
        for start in range(0, sizes[c], _MC_BLOCK):
            x = buf[:min(_MC_BLOCK, sizes[c] - start)]
            rng.standard_normal(out=x)
            x *= scale
            _reflect_paths(levels, x)
            hits += int(np.sum(np.all(x[:, sel, -1] >= thresh, axis=1)))
        return hits

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            counts = list(ex.map(run_chunk, range(n_chunks)))
    else:
        counts = [run_chunk(c) for c in range(n_chunks)]
    hits = sum(counts)
    p_hat = hits / paths
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / paths) / paths)
    return p_hat, stderr


def gue_edge_sample(n: int, samples: int, seed: int) -> np.ndarray:
    """Largest eigenvalues of n x n GUE matrices.

    Convention pinned by the one-particle case: diagonal entries N(0,1),
    off-diagonal complex with unit total variance, so the 1x1 ensemble is
    standard normal and the edge sits near 2 sqrt(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    out = np.empty(samples)
    done = 0
    c = 0
    while done < samples:
        size = min(_GUE_CHUNK, samples - done)
        rng = _philox(seed, c)
        xr = rng.normal(size=(size, n, n))
        xi = rng.normal(size=(size, n, n))
        aa = (xr + 1j * xi) / math.sqrt(2.0)
        h = (aa + np.conj(np.swapaxes(aa, 1, 2))) / math.sqrt(2.0)
        ev = np.linalg.eigvalsh(h)
        out[done:done + size] = ev[:, -1]
        done += size
        c += 1
    return out
