"""Hermite polynomials, heat-dressed Hermite functions, Airy, and contour
integrals for the one-sided building-block kernels.

Conventions
-----------
All Hermite polynomials are probabilists': H_{k+1}(x) = x H_k(x) - k H_{k-1}(x),
H_0 = 1, H_1 = x, orthogonal w.r.t. the standard Gaussian weight with
<H_n, H_m> = n! delta_{nm}.  No physicists' variant appears anywhere in the
public surface.

The dressed functions are

    psi_n(t, x)    = t^{-n/2} (2 pi t)^{-1/2} exp(-x^2/(2t)) H_n(x/sqrt(t))
    psibar_n(t, x) = (1/n!) t^{n/2} H_n(x/sqrt(t))

psi_n solves the forward heat equation in (t, x), psibar_n the backward one,
and integral of psi_n * psibar_m over x is delta_{nm}.

For large degree everything is computed in log scale: the recurrence carries
H_k(x)/sqrt(k!) with a running exponent, which stays representable for
k <= 2000 and |x| <= 3 sqrt(k).  One run to degree n records any of the
degrees it passes: degree n - 1 too (:func:`hermite_normed_log_pair`),
which S_n and Sbar_n = psibar_{n-1} on one argument share, or every degree
0..n (:func:`hermite_normed_log_all`), the kernel's exact atom rows.

Both hot loops walk their input in blocks of ``_CHUNK`` elements and update
preallocated buffers in place, with the same floating-point operations in
the same order as a whole-array loop, so every value is bitwise the same:

* the Hermite recurrence runs all n steps on one block before the next, and
  scans a block for values to rescale only once a bound on |h_k| computed
  from max|x| of the block can exceed the rescale threshold;
* the exponential-tail series of Ai and Ai' (x > 12) stops, per block, at
  the first term whose bound is below 2^-55: every later term is below half
  an ulp of the partial sum and would not change it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_LOG_2PI = math.log(2.0 * math.pi)

# rescale bound for the running-exponent recurrence
_BIG = 1e120

# elements per block of the Hermite recurrence and the Airy tail series:
# their three float64 work buffers (192 KiB) stay in a per-core L2 cache
_CHUNK = 8192


def hermite_normed_log(n: int, x):
    """(log|H_n(x)/sqrt(n!)|, sign), vectorized over x.

    The normalized recurrence h_{k+1} = (x h_k - sqrt(k) h_{k-1})/sqrt(k+1)
    keeps magnitudes near exp(x^2/4) scale; a running per-element exponent
    absorbs growth beyond double range.  sign is 0 where H_n(x) = 0 exactly.

    x is walked in chunks of ``_CHUNK`` elements, each run through all n
    steps in preallocated buffers.  Elements do not interact, so the result
    does not depend on the chunking.  The rescale scan of a chunk starts
    only once the bound B_{k+1} = (X B_k + sqrt(k) B_{k-1})/sqrt(k+1),
    B_0 = 1, B_1 = X = max|x|, on the exact |h_{k+1}| passes _BIG/2 (the
    margin covers rounding), and then runs on every step.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _row(*_hermite_logs(n, x, n), 0)


def hermite_normed_log_pair(n: int, x):
    """(log|h_n|, sign) and (log|h_{n-1}|, sign) of H_k(x)/sqrt(k!) from one
    run of the recurrence to degree n >= 1.

    Each half is bitwise equal to :func:`hermite_normed_log` at its degree:
    the run records h_{n-1} and its running exponent when it reaches them,
    so a rescale on the last step cannot touch them.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    rows = _hermite_logs(n, x, n - 1)
    return _row(*rows, 1), _row(*rows, 0)


def hermite_normed_log_all(n: int, x):
    """(log|h_k|, sign) for every degree k = 0..n from one run of the
    recurrence, as arrays of shape (n + 1,) + x.shape; row k is bitwise
    equal to :func:`hermite_normed_log` at degree k."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return _hermite_logs(n, x, 0)


def _row(la, sg, k):
    """Row k of ``_hermite_logs``, as floats for a scalar x."""
    return (float(la[k]), float(sg[k])) if la.ndim == 1 else (la[k], sg[k])


def _hermite_logs(n, x, lowest):
    """(log|h_k|, sign) of the degrees k = lowest..n, one row each, from
    one run of the recurrence to degree n."""
    x = np.asarray(x, dtype=float)
    xf = np.atleast_1d(x).ravel()
    count = n - lowest + 1
    hs = np.empty((count, xf.size))
    ls = np.zeros((count, xf.size))
    roots = [math.sqrt(k) for k in range(n + 1)]
    size = min(xf.size, _CHUNK)
    bufs = [np.empty(size) for _ in range(4)]
    for lo in range(0, xf.size, _CHUNK):
        hi = min(lo + _CHUNK, xf.size)
        _hermite_chunk(n, xf[lo:hi], roots, bufs, hs[:, lo:hi],
                       ls[:, lo:hi], lowest)
    logabs = np.abs(hs)
    with np.errstate(divide="ignore"):
        np.log(logabs, out=logabs)
    logabs += ls
    np.sign(hs, out=hs)
    shape = (count,) + x.shape
    return logabs.reshape(shape), hs.reshape(shape)


def _hermite_chunk(n, x, roots, bufs, hs, ls, lowest):
    """Run the normalized recurrence to degree n on one chunk, writing h_k
    and its running exponent into row k - lowest of ``hs`` and ``ls``, for
    every k >= lowest, as soon as the run reaches degree k."""
    m = x.size
    h, h_prev, tmp, logscale = (b[:m] for b in bufs)
    h[:] = x
    h_prev.fill(1.0)
    logscale.fill(0.0)
    for k, v in ((0, h_prev), (1, h)):
        if lowest <= k <= n:
            hs[k - lowest] = v
    bound_limit = 0.5 * _BIG
    big_x = float(np.max(np.abs(x)))
    b_prev, b = 1.0, big_x
    # "not <=" so that a NaN or infinite bound turns the scan on
    scan = not b <= bound_limit
    for k in range(1, n):
        # h_prev <- (x h - sqrt(k) h_prev)/sqrt(k+1), then swap
        np.multiply(h_prev, roots[k], out=h_prev)
        np.multiply(x, h, out=tmp)
        np.subtract(tmp, h_prev, out=h_prev)
        np.divide(h_prev, roots[k + 1], out=h_prev)
        h, h_prev = h_prev, h
        if not scan:
            b_prev, b = b, (big_x * b + roots[k] * b_prev) / roots[k + 1]
            scan = not b <= bound_limit
        if scan:
            np.abs(h, out=tmp)
            # one reduction in place of an elementwise test on most steps;
            # "not <=" lets a NaN through to the elementwise test
            if not tmp.max() <= _BIG:
                # only growth needs taming: normalized values never decay
                # collectively below double range
                f = np.where(tmp > _BIG, tmp, 1.0)
                h /= f
                h_prev /= f
                logscale += np.log(f)
        if k + 1 >= lowest:
            hs[k + 1 - lowest] = h
            ls[k + 1 - lowest] = logscale


def _psi_logabs(la, n, t, x):
    """log|psi_n(t, x)| from la = log|h_n(x/sqrt(t))|."""
    return (la + 0.5 * math.lgamma(n + 1) - 0.5 * n * math.log(t)
            - 0.5 * (_LOG_2PI + math.log(t)) - x * x / (2.0 * t))


def _psibar_logabs(la, n, t):
    """log|psibar_n(t, x)| from la = log|h_n(x/sqrt(t))|."""
    return la - 0.5 * math.lgamma(n + 1) + 0.5 * n * math.log(t)


def _check_t(t):
    if t <= 0:
        raise ValueError("t must be > 0")


def psi_log(n: int, t: float, x):
    """(log|psi_n(t, x)|, sign), vectorized over x."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    la, sg = hermite_normed_log(n, x / math.sqrt(t))
    return _psi_logabs(la, n, t, x), sg


def psibar_log(n: int, t: float, x):
    """(log|psibar_n(t, x)|, sign), vectorized over x."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    la, sg = hermite_normed_log(n, x / math.sqrt(t))
    return _psibar_logabs(la, n, t), sg


def psi_psibar_log(n: int, t: float, x):
    """(log|psi_n(t, x)|, sign) and (log|psibar_{n-1}(t, x)|, sign), the
    factors of S and Sbar on one argument, from one recurrence run to
    degree n >= 1.  Each is bitwise equal to :func:`psi_log` and
    :func:`psibar_log`."""
    _check_t(t)
    x = np.asarray(x, dtype=float)
    (la, sg), (lb, sb) = hermite_normed_log_pair(n, x / math.sqrt(t))
    return (_psi_logabs(la, n, t, x), sg), (_psibar_logabs(lb, n - 1, t), sb)


def oscillator_psi(n: int, x):
    """Hermite oscillator wavefunction (2pi)^{-1/4} (n!)^{-1/2} e^{-x^2/4} H_n(x).

    Near the spectral edge x = 2 sqrt(n) this approaches n^{-1/12} Ai at the
    usual edge rescaling.
    """
    x = np.asarray(x, dtype=float)
    la, sg = hermite_normed_log(n, x)
    return sg * np.exp(la - 0.25 * x * x - 0.25 * _LOG_2PI)


# ---------------------------------------------------------------------------
# Airy function: Taylor ODE march on an anchor grid built at import, asymptotic
# expansions outside it.  Double precision, absolute error < 1e-12 on
# [-15, 10] (validated in the test suite against series and scipy).
# ---------------------------------------------------------------------------

_AIRY_LO, _AIRY_HI, _AIRY_STEP = -20.0, 12.0, 0.25

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _asy_coeffs(kmax=40):
    c = [1.0]
    d = [1.0]
    for k in range(kmax):
        ck = c[-1] * (3 * k + 0.5) * (3 * k + 1.5) * (3 * k + 2.5) \
            / (54.0 * (k + 1) * (k + 0.5))
        c.append(ck)
        d.append(-ck * (6 * (k + 1) + 1) / (6 * (k + 1) - 1))
    return np.asarray(c), np.asarray(d)


_ASY_C, _ASY_D = _asy_coeffs()


def _build_airy_anchors():
    """Anchor table of (Ai, Ai') on the marching grid.

    Positive side is seeded at the asymptotic regime and marched down so that
    the exponentially growing companion solution is damped rather than
    amplified; the arrival value at 0 is checked against the exact Ai(0).
    """
    grid = np.arange(_AIRY_LO, _AIRY_HI + 0.5 * _AIRY_STEP, _AIRY_STEP)
    n = grid.size
    ai = np.empty(n)
    aip = np.empty(n)
    i0 = int(round((0.0 - _AIRY_LO) / _AIRY_STEP))
    # downward march from the asymptotic seed at the right end
    ai[-1:], aip[-1:] = _airy_asy_pos_vec(grid[-1:])
    for i in range(n - 2, -1, -1):
        ai[i], aip[i] = _airy_taylor_batch(grid[i + 1], ai[i + 1], aip[i + 1],
                                           -_AIRY_STEP, nterms=40)
    drift = max(abs(ai[i0] - _AI0), abs(aip[i0] - _AIP0))
    if drift > 1e-12:
        raise RuntimeError(f"Airy anchor march inconsistent at 0: {drift:.2e}")
    # re-pin the exact origin values
    ai[i0], aip[i0] = _AI0, _AIP0
    return grid, ai, aip


def _airy_taylor_batch(c, a, b, h, nterms=26):
    """Taylor march from a single anchor to offsets h (array or scalar)."""
    T = [a, b]
    for k in range(nterms - 2):
        prev = T[k - 1] if k >= 1 else 0.0
        T.append((c * T[k] + prev) / ((k + 1) * (k + 2)))
    y = np.zeros_like(h)
    yp = np.zeros_like(h)
    for k in range(len(T) - 1, -1, -1):
        y = y * h + T[k]
        if k >= 1:
            yp = yp * h + k * T[k]
    return y, yp


# The tail series runs only for x > _AIRY_HI, where zeta >= 27.7 and the
# bounds _ASY_BOUND[k] zeta^-k fall monotonically over k < _ASY_TERMS: once
# one is below 2^-55, every later term is below half an ulp of a partial sum
# near 1, and adding it would not change the sum.
_ASY_TERMS = 26
_ASY_BOUND = np.maximum(np.abs(_ASY_C), np.abs(_ASY_D))[:_ASY_TERMS]
_ASY_TOL = 2.0 ** -55


def _airy_tail_sums(zeta, with_deriv=True):
    """sum_k C_k (-1/zeta)^k and, with ``with_deriv``, sum_k D_k (-1/zeta)^k
    for zeta > 27.7, summed in chunks of ``_CHUNK`` and stopped per chunk
    at the first term bound below 2^-55 (so bitwise equal to all
    ``_ASY_TERMS`` terms)."""
    s_ai = np.zeros_like(zeta)
    s_aip = np.zeros_like(zeta) if with_deriv else None
    size = min(zeta.size, _CHUNK)
    term_buf, ratio_buf, tmp_buf = (np.empty(size) for _ in range(3))
    for lo in range(0, zeta.size, _CHUNK):
        hi = min(lo + _CHUNK, zeta.size)
        m = hi - lo
        term, ratio, tmp = term_buf[:m], ratio_buf[:m], tmp_buf[:m]
        np.divide(1.0, zeta[lo:hi], out=ratio)
        bounds = _ASY_BOUND * float(ratio.max()) ** np.arange(_ASY_TERMS)
        small = np.flatnonzero(bounds < _ASY_TOL)
        nterms = int(small[0]) if small.size else _ASY_TERMS
        np.negative(ratio, out=ratio)    # -1/zeta, from one term to the next
        term.fill(1.0)
        sa = s_ai[lo:hi]
        sd = None if s_aip is None else s_aip[lo:hi]
        for k in range(nterms):
            np.multiply(term, _ASY_C[k], out=tmp)
            sa += tmp
            if sd is not None:
                np.multiply(term, _ASY_D[k], out=tmp)
                sd += tmp
            term *= ratio
    return s_ai, s_aip


def _airy_asy_pos_vec(x):
    zeta = 2.0 / 3.0 * x ** 1.5
    s_ai, s_aip = _airy_tail_sums(zeta)
    pre = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return pre * x ** -0.25 * s_ai, -pre * x ** 0.25 * s_aip


def _airy_asy_neg_vec(x):
    z = -x
    zeta = 2.0 / 3.0 * z ** 1.5
    phase = zeta + 0.25 * math.pi
    zi2 = 1.0 / (zeta * zeta)
    se = np.zeros_like(z)
    so = np.zeros_like(z)
    de = np.zeros_like(z)
    do = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(10):
        se += _ASY_C[2 * k] * term
        so += _ASY_C[2 * k + 1] * term
        de += _ASY_D[2 * k] * term
        do += _ASY_D[2 * k + 1] * term
        term = term * (-zi2)
    so = so / zeta
    do = do / zeta
    isp = 1.0 / math.sqrt(math.pi)
    ai = isp * z ** -0.25 * (np.sin(phase) * se - np.cos(phase) * so)
    aip = -isp * z ** 0.25 * (np.cos(phase) * de + np.sin(phase) * do)
    return ai, aip


_AIRY_ANCHORS = _build_airy_anchors()  # (grid, Ai values, Ai' values)


def airy_pair(x):
    """(Ai(x), Ai'(x)), vectorized over x."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).astype(float).ravel()
    ai = np.empty_like(xv)
    aip = np.empty_like(xv)
    grid, tai, taip = _AIRY_ANCHORS
    hi = xv > _AIRY_HI
    lo = xv < _AIRY_LO
    mid = ~(hi | lo)
    if np.any(hi):
        ai[hi], aip[hi] = _airy_asy_pos_vec(xv[hi])
    if np.any(lo):
        ai[lo], aip[lo] = _airy_asy_neg_vec(xv[lo])
    if np.any(mid):
        xm = xv[mid]
        j = np.clip(np.round((xm - _AIRY_LO) / _AIRY_STEP).astype(int),
                    0, grid.size - 1)
        am = np.empty_like(xm)
        apm = np.empty_like(xm)
        for ju in np.unique(j):
            sel = j == ju
            am[sel], apm[sel] = _airy_taylor_batch(
                grid[ju], tai[ju], taip[ju], xm[sel] - grid[ju])
        ai[mid] = am
        aip[mid] = apm
    ai = ai.reshape(np.atleast_1d(x).shape)
    aip = aip.reshape(np.atleast_1d(x).shape)
    if scalar:
        return float(ai[0]), float(aip[0])
    return ai, aip


def airy_eval(x):
    """Ai(x), vectorized over x."""
    return airy_pair(x)[0]


def airy_log_pos(x):
    """log Ai(x) for x > 0, valid far beyond double underflow of Ai itself.
    Vectorized."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).ravel()
    if np.any(xv <= 0):
        raise ValueError("airy_log_pos requires x > 0")
    out = np.empty_like(xv)
    near = xv <= _AIRY_HI
    if np.any(near):
        out[near] = np.log(airy_pair(xv[near])[0])
    far = ~near
    if np.any(far):
        xf = xv[far]
        zeta = 2.0 / 3.0 * xf ** 1.5
        s, _ = _airy_tail_sums(zeta, with_deriv=False)
        out[far] = -zeta - 0.25 * np.log(xf) \
            - math.log(2.0 * math.sqrt(math.pi)) + np.log(s)
    out = out.reshape(np.atleast_1d(x).shape)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Contour-integral forms of the building-block kernels, used as an
# independent cross-check of the psi-based formulas.
#
#   S(t, n; z1, z2)    = (1/2 pi i) int_{iR+delta} dw w^n
#                           exp(t w^2 / 2 + (1 - w)(z1 - z2))
#   Sbar(t, n; z1, z2) = (1/2 pi i) oint_{|w|=r} dw w^{-n}
#                           exp(-t w^2 / 2 + (w - 1)(z1 - z2))
#
# The vertical line works for any real delta; the circle for any radius.
# ---------------------------------------------------------------------------


def _contour_s_line(t, n, x, delta, width, step):
    """Trapezoid on the vertical segment |Im w| <= width (even symmetry).

    Returns (value, scale); ``scale`` is the L1 mass of the samples, the
    natural measure of cancellation-limited accuracy.
    """
    y = np.arange(0.0, width + step, step)
    w = delta + 1j * y
    vals = (w ** n * np.exp(0.5 * t * w * w + (1.0 - w) * x)).real
    vals[0] *= 0.5
    return step * np.sum(vals) / math.pi, step * np.sum(np.abs(vals)) / math.pi


def _contour_sbar_circle(t, n, x, r, m):
    """Periodic trapezoid with m points on the circle |w| = r.

    Returns (value, scale) as ``_contour_s_line`` does.
    """
    theta = 2.0 * math.pi * np.arange(m) / m
    w = r * np.exp(1j * theta)
    vals = (w ** (1 - n) * np.exp(-0.5 * t * w * w + (w - 1.0) * x)).real
    return float(np.mean(vals)), float(np.mean(np.abs(vals)))


def contour_eval(kind: str, t: float, n: int, z1: float, z2: float,
                 tol: float = 1e-10, with_error: bool = False):
    """Contour-integral value of the S (kind="S", n >= 0) or Sbar
    (kind="Sbar", n >= 1) kernel at (z1, z2).

    Used only as a cross-check of the closed psi-based forms.  The integrand
    cancels down from an L1 mass that can exceed the value by many orders
    (worst near n ~ 20), so the refinement accepts at the double-precision
    cancellation floor, 2e-16 of that mass, and, with ``with_error``, returns
    (value, achieved error estimate).  Raises ConvergenceError with the
    achieved error when refinement stalls above both tolerances, or when
    the floor exceeds 1e-6 of the value (large t, where the runs are
    cancellation noise).  One loop
    refines both: the line's step is halved and the circle's point count
    doubled, up to 12 and 9 times.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    x = z1 - z2

    def done(cur, err):
        return (cur, err) if with_error else cur

    if kind == "S":
        if n < 0:
            raise ValueError("kind='S' requires n >= 0")
        # saddle of n log w + t w^2/2 - w x on the real axis minimizes the
        # peak of the integrand, which bounds the cancellation loss
        delta = (x + math.sqrt(x * x + 4.0 * t * max(n, 1))) / (2.0 * t)
        delta = max(delta, 1e-3)
        width = math.sqrt(2.0 * (709.0) / t)  # beyond this the integrand underflows
        width = min(width, 20.0 / math.sqrt(t) + 10.0)
        step = min(0.25 / math.sqrt(t), 0.5 / (1.0 + abs(x)))
        runs = (_contour_s_line(t, n, x, delta, width, step / 2 ** k)
                for k in range(13))
    elif kind == "Sbar":
        if n < 1:
            raise ValueError("kind='Sbar' requires n >= 1")
        r = (-abs(x) + math.sqrt(x * x + 4.0 * t * max(n - 1, 1))) / (2.0 * t)
        r = max(r, 0.3)
        runs = (_contour_sbar_circle(t, n, x, r, max(64, 4 * n) * 2 ** k)
                for k in range(10))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    prev, _ = next(runs)
    for cur, scale in runs:
        err = abs(cur - prev)
        # a cancellation floor that is not small against the value means
        # every run is noise, whatever two of them agree to
        floor = 2e-16 * scale
        if (err <= max(tol * max(1.0, abs(cur)), floor)
                and floor <= 1e-6 * max(1.0, abs(cur))):
            return done(cur, max(err, 1e-16 * scale))
        prev = cur
    raise ConvergenceError(
        f"{kind} contour stalled (err={err:.2e})", value=cur,
        error_estimate=err)
