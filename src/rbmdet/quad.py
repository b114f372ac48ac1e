"""Composite Gauss-Legendre panel quadrature on one interval.

``build_scheme`` is the one builder, shared by the Nystrom determinant, the
kernel's eta layer, the hitting laws, the fixed-point v grid and the
biorthogonal Gram integrals.  Panels never straddle a requested split
point, so integrands with indicator kinks at known locations are
integrated piecewise-smoothly.
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
    """Quadrature nodes/weights on one interval.

    ``edges`` are the panel boundaries (``order`` nodes per panel, in
    order).
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    edges: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


def build_scheme(lo, hi, order=24, splits=(), max_panel=None) -> Scheme:
    """Composite Gauss-Legendre scheme on [lo, hi]: ``order`` nodes per
    panel, panel boundaries at every split point inside the interval, and
    panels no wider than ``max_panel`` if given."""
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    pts = [lo, hi]
    for s in splits:
        if lo < s < hi:
            pts.append(float(s))
    edges = pts = sorted(set(pts))
    if max_panel is not None:
        edges = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            k = max(1, int(np.ceil((b - a) / max_panel)))
            edges.extend(a + (b - a) * (j + 1) / k for j in range(k))
    edges = np.asarray(edges)
    x, w = _gl_rule(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return Scheme(nodes=nodes, weights=weights, order=order, edges=edges)
