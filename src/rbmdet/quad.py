"""Composite Gauss-Legendre panel quadrature.

Shared by the kernel assembly, the Nystrom determinant and the scaled-kernel
integrals.  Panels never straddle a requested split point, so integrands with
indicator kinks at known locations are integrated piecewise-smoothly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@dataclass(frozen=True)
class Scheme:
    """Quadrature nodes/weights on a union of intervals.

    ``edges[k]`` are input interval k's panel boundaries (``order`` nodes
    per panel, in order).
    """

    nodes: np.ndarray
    weights: np.ndarray
    intervals: tuple[tuple[float, float], ...]
    order: int
    edges: tuple = ()

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def panel_edges(lo: float, hi: float, splits=(), max_panel: float | None = None):
    """Sorted panel boundaries of [lo, hi], honoring interior split points
    and an optional cap on panel width."""
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    pts = [lo, hi]
    for s in splits:
        if lo < s < hi:
            pts.append(float(s))
    pts = sorted(set(pts))
    if max_panel is None:
        return np.asarray(pts)
    edges = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, int(np.ceil((b - a) / max_panel)))
        edges.extend(a + (b - a) * (j + 1) / k for j in range(k))
    return np.asarray(edges)


def gauss_legendre_panels(lo, hi, order=24, splits=(), max_panel=None):
    """Nodes, weights and panel edges of composite Gauss-Legendre panels."""
    edges = panel_edges(lo, hi, splits, max_panel)
    x, w = _gl_rule(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights, edges


def build_scheme(intervals, order=24, splits=(), max_panel=None) -> Scheme:
    """Composite Gauss-Legendre scheme over several intervals.

    ``splits`` are mandatory panel boundaries (applied to every interval they
    fall inside); ``order`` is the node count per panel.
    """
    nodes, weights, edges = [], [], []
    for lo, hi in intervals:
        x, w, e = gauss_legendre_panels(lo, hi, order=order, splits=splits,
                                        max_panel=max_panel)
        nodes.append(x)
        weights.append(w)
        edges.append(e)
    return Scheme(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        intervals=tuple((float(a), float(b)) for a, b in intervals),
        order=order,
        edges=tuple(edges),
    )
