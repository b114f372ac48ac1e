"""Biorthogonal representation of the extended kernel.

The polynomial family h^n_k(l, .) is built by exact antidifferentiation of
the recursion

    h^n_k(k, z) = 1,      h^n_k(l, z) = int_z^{X0(n-l)} h^n_k(l+1, y) dy,

so h^n_k(l, .) has degree exactly k - l and vanishes at X0(n-l) for l < k.
The pair

    Psi^n_k = d^k e^{(t/2) d^2} delta_{X0(n-k)},
    Phi^n_k = e^{-(t/2) d^2} h^n_k(0, .)

is biorthogonal: <Psi^n_k, Phi^n_l> = 1{k = l}.  The backward heat operator
acts on polynomials as a finite series and is exact here.

Everything in this module carries exact double-precision polynomial
coefficients; it is a validation path, capped by default at moderate n where
coefficient growth keeps conditioning harmless.  The hitting representation
is the scalable route.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from . import special
from .hitting import hitting_law_exact
from .initial_data import InitialCondition, blocks
from .quad import build_scheme

DEFAULT_N_CAP = 30


def heat_on_poly(s: float, p: Polynomial) -> Polynomial:
    """e^{(s/2) d^2} applied to a polynomial: sum_j (s/2)^j / j! p^(2j).

    Finite sum, defined for either sign of s; the group property
    heat(-s) o heat(s) = id holds to rounding.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(np.asarray(p, dtype=float))
    out = Polynomial([0.0])
    term = p
    j = 0
    while term.degree() >= 0 and not np.all(term.coef == 0.0):
        out = out + term * ((0.5 * s) ** j / math.factorial(j))
        term = term.deriv(2)
        j += 1
        if j > p.degree() // 2 + 1:
            break
    return out


def h_family(ic: InitialCondition, n: int) -> dict:
    """The triangular table (k, l) -> h^n_k(l, .), 0 <= l <= k <= n-1, for
    level-n data by exact antidifferentiation; all levels X0(1..n) must be
    finite."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_N_CAP:
        raise ValueError(
            f"n={n} exceeds the biorthogonal-path cap {DEFAULT_N_CAP}; "
            "use the hitting representation")
    if ic.n_inf > 0:
        raise ValueError("biorthogonal path requires finite levels; "
                         "use the hitting representation")
    table = {}
    for k in range(n):
        table[(k, k)] = Polynomial([1.0])
        for l in range(k - 1, -1, -1):
            prim = table[(k, l + 1)].integ()
            upper = float(prim(ic.level(n - l)))
            table[(k, l)] = Polynomial([upper]) - prim
    return table


def gauss_repeated_integral(m: int, w):
    """J_m(w): the m-fold repeated integral of the standard normal density,

        J_0 = phi,  J_1 = Phi,  J_m = (w J_{m-1} + J_{m-2}) / (m - 1),

    i.e. J_m(w) = int_{-inf}^w (w-s)^{m-1}/(m-1)! phi(s) ds for m >= 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    w = np.asarray(w, dtype=float)
    if m == 0:
        return np.exp(-0.5 * w * w) / math.sqrt(2 * math.pi)
    return np.exp(log_gauss_repeated_integrals(m, w)[-1])


def log_gauss_repeated_integrals(m: int, w):
    """log J_k(w), k = 1..m, as rows of shape (m,) + w.shape (w finite):
    the ratios r_k = J_k / J_{k-1} from log J_1 = log Phi(w), upward where
    J grows against the recurrence's other solution (w >= 0) or loses at
    most e^3 to it by step m, and downward where it is the minimal
    solution, which the upward run loses (J_30(-5) by a factor 1.7e3).

    The downward run (Miller, Gautschi 1967) iterates u_k = 1/r_k =
    c + k/u_{k+1}, c = -w, for all its points together from one depth K.
    It starts at the minimal solution's asymptotic ratio, u_{K+1} =
    (c + A)/2 with A = sqrt(c^2 + 4(K+1)), which is off by less than 1/A^2
    (relative; under 0.5/A^2 against mpmath's pcfd for c in [0.01, 10],
    K in [2, 5000]).  Step k shrinks a relative error by k r_k r_{k+1} =
    1 - c r_k < (a_k - c)/(a_k + c), a_k = sqrt(c^2 + 4k), which is
    e^{-2 artanh(c/a_k)}; from K down to m that is e^{-(F(A) - F(a))} with
    F' = a artanh(c/a) >= c and a = a_m, and the errors of the rows below
    m add up to at most (a + c)/(2c) times that at m.  K is the smallest
    depth (to within the two passes that solve for A) with

        c (A - a) + 2 log A >= 53 log 2 + log((a + c) / (2c)),

    that is, every row within 2^-53 of its limit, and at least m; a
    deeper start than a point needs only adds accuracy.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    w = np.asarray(w, dtype=float)
    wf = w.ravel()
    out = np.zeros((m, wf.size))
    out[0] = special.log_ndtr(wf)
    # the other solution gains 2 artanh(c/a_k) at step k, c = |w|, a_k =
    # sqrt(c^2 + 4(k-1)): F(a_m) - F(c) by step m, F' = a artanh(c/a) >= c
    c = np.abs(wf)
    a_m = np.sqrt(c * c + 4.0 * (m - 1))
    lose = np.zeros(wf.size, dtype=bool)
    if m > 1:
        lose = (wf < 0) & (0.5 * c * (a_m - c) + 2.0 * (m - 1) * np.log(
            (a_m + c) / (2.0 * math.sqrt(m - 1))) > 3.0)
    down, up = np.flatnonzero(lose), np.flatnonzero(~lose)
    q = np.exp(-0.5 * wf[up] ** 2 - 0.5 * math.log(2 * math.pi) - out[0, up])
    for k in range(2, m + 1):
        r = (wf[up] + q) / (k - 1)
        out[k - 1, up] = np.log(r)
        q = 1.0 / r
    # one start, deep enough for every point: log A taken at a gives an A
    # above the root of the depth condition, at that A one below it, and
    # at that one an A above it again, which is kept
    cs = c[down]
    a = np.sqrt(cs * cs + 4.0 * m)
    need = 53.0 * math.log(2.0) + np.log((a + cs) / (2.0 * cs))
    top = a
    for _ in range(3):
        top = a + (need - 2.0 * np.log(top)) / cs
    depth = max(m, int(np.ceil(np.max((top * top - cs * cs) / 4.0,
                                      initial=0.0))) - 1)
    u = 0.5 * (cs + np.sqrt(cs * cs + 4.0 * (depth + 1)))
    for k in range(depth if down.size else 1, 1, -1):
        np.divide(k, u, out=u)
        u += cs
        if k <= m:
            out[k - 1, down] = -np.log(u)
    return np.cumsum(out, axis=0).reshape((m,) + w.shape)


def psi_n_k(ic: InitialCondition, n: int, k: int, t: float, x):
    """Psi^n_k(x) for any k < n (negative k smoothes instead of
    differentiating)."""
    if k >= n:
        raise ValueError("requires k < n")
    y = ic.level(n - k)
    x = np.asarray(x, dtype=float)
    if k >= 0:
        la, sg = special.psi_log(k, t, y - x)
        return sg * np.exp(la)
    m = -k
    return np.exp(0.5 * (m - 1) * math.log(t) + log_gauss_repeated_integrals(
        m, (x - y) / math.sqrt(t))[-1])


def phi_n_k(fam: dict, k: int, t: float) -> Polynomial:
    """Phi^n_k as an explicit polynomial (backward heat on h^n_k(0, .))
    from the table ``fam`` of :func:`h_family`."""
    return heat_on_poly(-t, fam[k, 0])


def psi_phi_eval(ic: InitialCondition, n: int, k: int, t: float, x):
    """(Psi^n_k(x), Phi^n_k(x)) for 0 <= k <= n-1."""
    if not 0 <= k <= n - 1:
        raise ValueError("requires 0 <= k <= n-1")
    if t <= 0:
        raise ValueError("t must be > 0")
    fam = h_family(ic, n)
    psi = psi_n_k(ic, n, k, t, x)
    phi = phi_n_k(fam, k, t)(np.asarray(x, dtype=float))
    return psi, phi


def gram(ic: InitialCondition, n: int, t: float, order: int = 24) -> np.ndarray:
    """Gram matrix <Psi^n_k, Phi^n_l>, k, l = 0..n-1 (should be identity).

    Gauss-Legendre panels on a window wide enough that the Gaussian factors
    are below double precision at the ends.
    """
    fam = h_family(ic, n)
    levels = [ic.level(i) for i in range(1, n + 1)]
    # wide enough that exp(-w^2/2t) * (range + w)^(n-1) is below rounding
    w = 8.0 * math.sqrt(t) + 2.0
    spread = max(levels) - min(levels) + 1.0
    for _ in range(4):
        w = math.sqrt(2.0 * t * (40.0 + (n - 1) * math.log(spread + w)))
    lo, hi = min(levels) - w, max(levels) + w
    scheme = build_scheme(lo, hi, order=order,
                          max_panel=max(0.5 * math.sqrt(t), 0.5))
    xs = scheme.nodes
    psi = np.empty((n, xs.size))
    phi = np.empty((n, xs.size))
    for k in range(n):
        psi[k] = psi_n_k(ic, n, k, t, xs)
        phi[k] = phi_n_k(fam, k, t)(xs)
    return (psi * scheme.weights) @ phi.T


def _monomial(m, d):
    """d^{m-1}/(m-1)! from logs: (m-1)! and d^{m-1} leave the double range
    past m = 171 while their quotient need not (50^199/199! = 1.2e-36)."""
    if m == 1:
        return np.ones_like(d)
    with np.errstate(divide="ignore"):
        mag = np.exp((m - 1) * np.log(np.abs(d))
                     - special.log_factorial(m - 1))
    return np.where((d < 0) & (m % 2 == 0), -mag, mag)


def pinv_delta(m: int, x, y):
    """Kernel of d^{-m} applied to delta_y: (x-y)^{m-1}/(m-1)! 1{x > y}.

    The indicator is open: points exactly at x = y evaluate to 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    d = np.asarray(x, dtype=float) - y
    out = np.where(d > 0, _monomial(m, d), 0.0)
    return float(out) if out.ndim == 0 else out


def pinv_ext(m: int, x, y):
    """Analytic extension of d^{-m}: (x-y)^{m-1}/(m-1)! without indicator."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = _monomial(m, np.asarray(x, dtype=float) - y)
    return float(out) if np.ndim(out) == 0 else out


def g0n_eval(ic: InitialCondition, n: int, x1: float, x2,
             method: str = "biorth"):
    """The degree-(n-1) generating polynomial of the kernel, two ways.

    method="biorth":  sum_k d^{-(n-k)} delta_{X0(n-k)}(x1) h^n_k(0, x2)
    method="hitting": E_{B_0=x1}[e^{x1-B_tau} pinv_ext(n-tau)(B_tau, x2);
                      tau < n]

    The two agree except possibly at x1 on the levels themselves (a null
    set).  Output is vectorized over x2.
    """
    x2 = np.asarray(x2, dtype=float)
    if method == "biorth":
        fam = h_family(ic, n)
        total = np.zeros_like(x2, dtype=float)
        for k in range(n):
            w = pinv_delta(n - k, x1, ic.level(n - k))
            if w != 0.0:
                total = total + w * fam[k, 0](x2)
        return float(total) if total.ndim == 0 else total
    if method == "hitting":
        law = hitting_law_exact(blocks(ic), x1, n)
        x2v = np.atleast_1d(x2)
        out = np.empty_like(x2v)
        for i, xx in enumerate(x2v):
            out[i] = law.expectation(
                lambda ell, b: np.exp(x1 - b) * pinv_ext(n - ell, b, xx))
        out = out.reshape(x2.shape) if x2.ndim else out
        return float(out[0]) if x2.ndim == 0 else out
    raise ValueError(f"unknown method {method!r}")
