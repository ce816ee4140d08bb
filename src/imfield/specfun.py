"""Bessel and Hankel functions of integer order for real arguments.

Everything is computed from scratch in float64 by one evaluator, _jy, with
one pass per branch of x: a power series for every order below 0.25,
normalized downward recurrence for the middle range, and beyond 17.5 the
large-argument asymptotic series of hankel_asym_coeffs, summed through a
fixed 35th power of 1/x as two real polynomials in 1/x^2 per order. _jy
returns J_m and Y_m, or with every=True the tables J_0..J_m and Y_0..Y_m
from the same pass. bessel_j, bessel_y and hankel1 take the one order
asked for from it; the private _hankel01 takes the order-1 tables, the
H_0, H_1 pair that multipole and Karp sums start from, bit for bit as two
hankel1 calls would; the Graf table of scatter takes the J table. The
private _outgoing_design builds from the pair the outgoing-multipole
columns that the gap fit of propagate and the exterior expansion of
scatter both sum. No third-party special-function library is used
anywhere in the package; tests validate against independent oracles.

All evaluation functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AsymptoticCoeffs",
    "bessel_j",
    "bessel_y",
    "hankel1",
    "j0_roots",
    "hankel_asym_coeffs",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.57721566490153286061

# Branch boundaries. Below _SERIES_SPLIT the defining power series needs a
# handful of terms; above _ASYM_SPLIT the asymptotic series bottoms out near
# machine epsilon. In between, one normalized downward recurrence pass gives
# J_m and, through the Neumann sums, Y_0 and Y_1.
_SERIES_SPLIT = 0.25
_ASYM_SPLIT = 17.5
# Last power of 1/x kept in the asymptotic branch. The k-th term of the H_0
# and H_1 series is smaller than the one before it while k <= 2x, so every
# kept term shrinks for x >= _ASYM_SPLIT; the last is ~8.5e-17 at the split.
_ASYM_ORDER = int(2 * _ASYM_SPLIT)

# Three-double split of 2*pi; the leading part has a 29-bit mantissa so
# k*_TWOPI_A is exact for k < 2^24, making the phase reduction below accurate
# to ~1 ulp of the reduced argument for x up to ~1e8.
_TWOPI_A = 6.2831853032112122
_TWOPI_B = 3.9683743187221617e-09
_TWOPI_C = 6.578502774529703e-26


def _reduce_phase(x: np.ndarray) -> np.ndarray:
    """x mod 2*pi mapped near [-pi, pi], computed in compensated arithmetic."""
    k = np.round(x / (2.0 * np.pi))
    return ((x - k * _TWOPI_A) - k * _TWOPI_B) - k * _TWOPI_C


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Coefficients of the large-argument Hankel expansion.

    Represents H_m(z) ~ sqrt(2/(pi z)) * exp(i(z - m*pi/2 - pi/4)) *
    sum_k coeffs[k] * z**(-k). coeffs[0] == 1 always.
    """

    order: int
    coeffs: list = field(default_factory=lambda: [1.0 + 0.0j])

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be a nonnegative integer")
        if len(self.coeffs) == 0 or self.coeffs[0] != 1.0:
            raise ValueError("leading coefficient must be 1")

    def evaluate(self, z):
        """Sum of the truncated series sum_k coeffs[k] z^-k (no prefactor)."""
        u = 1.0 / np.asarray(z, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        for a in reversed(self.coeffs):
            out = out * u + a
        return complex(out) if out.ndim == 0 else out


def _check_order(m) -> int:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError("order must be a nonnegative integer")
    if m < 0:
        raise ValueError("order must be a nonnegative integer")
    return int(m)


def _prep_x(x, positive: bool):
    """Flatten x to a 1-d float array; domain-check. Returns (arr, shape, scalar)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("argument must be finite")
    if positive:
        if np.any(flat <= 0.0):
            raise ValueError("argument must be > 0")
    else:
        if np.any(flat < 0.0):
            raise ValueError("argument must be >= 0")
    return flat, arr.shape, scalar


def _j_series(top: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_top by the defining power series, shape (top + 1, len(x));
    adequate for x below ~1.

    The leading terms (x/2)^m / m! are built by a running product, so for
    large orders they underflow to zero instead of overflowing, and J_m(0)
    comes out exact. All orders share one stopping test, which the slowest
    converging order 0 decides.
    """
    half = 0.5 * x
    orders = np.arange(top + 1)[:, None]
    term = np.cumprod(np.vstack([np.ones_like(half), half / orders[1:]]),
                      axis=0)
    total = term.copy()
    hsq = half * half
    for k in range(1, 24):
        term = term * (-hsq) / (k * (orders + k))
        total += term
        if np.max(np.abs(term)) < 1e-19 * max(np.max(np.abs(total)), 1e-300):
            break
    return total


@functools.lru_cache(maxsize=None)
def _neumann_weights(k: int):
    """Rows of the running sums that J_k enters, and its weights there.

    Row 0 is the normaliser J_0 + 2 (J_2 + J_4 + ...), which equals 1
    exactly; rows 1 and 2 are S_0 = sum_j w_j J_2j and
    S_1 = sum_j w_j (J_2j-1 - J_2j+1), with w_j = (-1)^(j+1) / j, which give
    Y_0 and Y_1 (see _y01). Collecting S_1 by index gives J_2j+1 the weight
    w_j+1 - w_j, so every sum can be built in one pass over descending k
    without keeping a table. Returns (slice of rows, weight column).
    """
    def w(j):
        return 0.0 if j == 0 else (-1.0) ** (j + 1) / j

    if k == 0:
        rows, wts = slice(0, 1), [1.0]
    elif k % 2 == 0:
        rows, wts = slice(0, 2), [2.0, w(k // 2)]
    else:
        rows, wts = slice(2, 3), [w(k // 2 + 1) - w(k // 2)]
    col = np.array(wts)[:, None]
    col.setflags(write=False)
    return rows, col


def _add_neumann(sums, k: int, jk):
    """Add the share of J_k (values jk) to the rows of sums, in place."""
    rows, col = _neumann_weights(k)
    sums[rows] += col * jk


def _y01(x: np.ndarray, j0, j1, sums):
    """Y_0 and Y_1 from J_0, J_1 and the Neumann sums (rows 1, 2 of sums)."""
    ell = np.log(0.5 * x) + EULER_GAMMA
    y0 = (2.0 / np.pi) * ell * j0 + (4.0 / np.pi) * sums[1]
    y1 = (2.0 / np.pi) * (ell * j1 - j0 / x) - (2.0 / np.pi) * sums[2]
    return y0, y1


def _miller(x: np.ndarray, n_top: int, m: int, every: bool = False):
    """J_m, Y_0 and Y_1 at each x by one normalized downward recurrence.

    Requires n_top to exceed max(x) and m by a safety margin (~40) so the
    seeded minimal solution dominates. Only the running values J_m, J_1,
    J_0 and the Neumann sums (normaliser included) are kept, all rescaled
    together whenever the recurrence rescales, so memory stays O(len(x)).
    With every=True each order J_0..J_m is kept instead, and the first value
    returned is that table, shape (m + 1, len(x)).
    """
    jp = np.zeros_like(x)  # J_{k+1}, unnormalized
    jc = np.full_like(x, 1e-30)  # J_k, unnormalized
    sums = np.zeros((3,) + x.shape)
    kept = {}
    keep = range(max(m, 1) + 1) if every else (m, 1)
    # bounds on |J_k| and |J_{k+1}| over all x decide when to look for
    # entries to rescale; from n_top = 77 at x >= 0.25 (the middle branch
    # for orders up to 17) the bound stays below 1e153, so none ever are
    step, bound, prev = 2.0 / float(x.min()), 1e-30, 0.0
    for k in range(n_top, -1, -1):
        _add_neumann(sums, k, jc)
        if k in keep:
            kept[k] = jc
        if k == 0:
            break
        jp, jc = jc, (2.0 * k / x) * jc - jp
        bound, prev = k * step * bound + prev, bound
        if bound > 1e250:
            scale = np.where(np.abs(jc) > 1e250, 1e-250, 1.0)
            jc = jc * scale
            jp = jp * scale
            sums *= scale
            kept = {key: val * scale for key, val in kept.items()}
            bound, prev = float(np.abs(jc).max()), float(np.abs(jp).max())
    norm = sums[0]
    j1 = kept[1] / norm
    y0, y1 = _y01(x, jc / norm, j1, sums / norm)
    if every:
        return np.stack([kept[k] for k in range(m + 1)]) / norm, y0, y1
    return (jc if m == 0 else kept[m]) / norm, y0, y1


def _horner(coeffs, v):
    """sum_j coeffs[j] v^j by Horner's rule, in place on one array."""
    acc = np.full_like(v, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= v
        acc += c
    return acc


def _jy_asym(x: np.ndarray, orders=(0, 1)):
    """(J_m, Y_m) for each m of orders, a subset of (0, 1), at x >=
    _ASYM_SPLIT, from the asymptotic series of H_m = J_m + i Y_m.

    The hankel_asym_coeffs series through x^-_ASYM_ORDER has a_k = i^k r_k
    with r_k real, so it equals P(x^-2) + i Q(x^-2) / x for the two real
    polynomials of _ASYM_PQ, each summed by Horner's rule; H_m is that sum
    times sqrt(2/(pi x)) exp(i(x - m pi/2 - pi/4)). The orders share the
    reduced phase, the amplitude and its cos and sin.
    """
    u = 1.0 / x
    v = u * u
    phase = _reduce_phase(x) - 0.25 * np.pi
    amp = np.sqrt(2.0 / (np.pi * x))
    c, s = amp * np.cos(phase), amp * np.sin(phase)
    out = []
    for m in orders:
        p, q = _ASYM_PQ[m]
        big_p = _horner(p, v)
        big_q = u * _horner(q, v)
        re = c * big_p - s * big_q
        im = s * big_p + c * big_q
        # exp(-i m pi/2) is 1 for H_0 and -i for H_1
        out.append((re, im) if m == 0 else (im, -re))
    return out


def _upward(c0, c1, m: int, x, every: bool = False):
    """C_m from C_0, C_1 by the three-term recurrence (stable when the
    dominant solution is being propagated); with every=True the list
    C_0..C_m from the same pass.

    When an entry saturates to +-inf (Y_m beyond float range at tiny x), it
    is frozen there instead of turning into NaN on the next step.
    """
    if m <= 1:
        return [c0, c1][:m + 1] if every else c1 if m else c0
    seq = [c0, c1]
    prev, cur = np.asarray(c0), np.asarray(c1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m):
            nxt = (2.0 * k / x) * cur - prev
            bad = ~np.isfinite(cur)
            if bad.any():
                nxt = np.where(bad, cur, nxt)
            prev, cur = cur, nxt
            if every:
                seq.append(cur)
    return seq if every else cur


def _jy(m: int, x: np.ndarray, need_j: bool = True, need_y: bool = True,
        every: bool = False):
    """(J_m, Y_m) at each x of a flat array, from one pass per branch.

    With every=True the two are the tables J_0..J_m and Y_0..Y_m instead,
    shape (m + 1, len(x)). An entry not needed is None. x must be > 0,
    except that x = 0 is allowed when only J is needed. Every branch works
    point by point, so the values do not depend on which other points share
    the call, except that the power series stops on a test over all of its
    points.

    Below _SERIES_SPLIT, one power series gives J_0..J_max(m, 13); Y_0 and
    Y_1 follow from its first 14 orders, which make the Neumann tails
    < 1e-19 there (the recurrence would overflow at tiny x). In the middle
    range one _miller pass gives J and Y_0, Y_1. From _ASYM_SPLIT up a lone
    order 0 or 1 comes straight from _jy_asym; otherwise the (0, 1) pair
    does. Y_m recurs up from Y_0, Y_1 in every branch.
    """
    lead = (m + 1,) if every else ()
    jv = np.empty(lead + x.shape) if need_j else None
    yv = np.empty(lead + x.shape) if need_y else None

    def put(out, mask, val):
        # row by row: 1-d masked stores are several times faster than
        # one out[:, mask] store
        for row, v in zip(out, val) if every else [(out, val)]:
            row[mask] = v

    small = x < _SERIES_SPLIT
    big = x >= _ASYM_SPLIT
    mid = ~(small | big)

    if small.any():
        xs = x[small]
        js = _j_series(max(m, 13) if need_y else m, xs)
        if need_j:
            put(jv, small, js[:m + 1] if every else js[m])
        if need_y:
            sums = np.zeros((3,) + xs.shape)
            for k in range(14):
                _add_neumann(sums, k, js[k])
            y0, y1 = _y01(xs, js[0], js[1], sums)
            put(yv, small, _upward(y0, y1, m, xs, every))

    if mid.any():
        xs = x[mid]
        jm, y0, y1 = _miller(xs, max(m, int(_ASYM_SPLIT)) + 60, m, every)
        if need_j:
            put(jv, mid, jm)
        if need_y:
            put(yv, mid, _upward(y0, y1, m, xs, every))

    if big.any():
        xs = x[big]
        if m <= 1 and not every:
            (jm, ym), = _jy_asym(xs, (m,))
        else:
            (j0, y0), (j1, y1) = _jy_asym(xs)
            ym = _upward(y0, y1, m, xs, every) if need_y else None
            # Upward recurrence for J is stable only while m stays well
            # below x; otherwise fall back to downward recurrence.
            up = m <= 0.75 * xs
            if need_j and up.all():
                jm = _upward(j0, j1, m, xs, every)
            elif need_j:
                jm = np.empty(lead + xs.shape)
                if up.any():
                    put(jm, up, _upward(j0[up], j1[up], m, xs[up], every))
                xr = xs[~up]
                n_top = max(m, int(np.ceil(xr.max()))) + 60
                put(jm, ~up, _miller(xr, n_top, m, every)[0])
        if need_j:
            put(jv, big, jm)
        if need_y:
            put(yv, big, ym)
    return jv, yv


def bessel_j(m, x):
    """Bessel function J_m(x) for integer m >= 0 and real x >= 0.

    Accepts scalars or arrays. Raises ValueError for m < 0 or x < 0.
    """
    m = _check_order(m)
    flat, shape, scalar = _prep_x(x, positive=False)
    out = _jy(m, flat, need_y=False)[0]
    if scalar:
        return float(out[0])
    return out.reshape(shape)


def bessel_y(m, x):
    """Bessel function Y_m(x) for integer m >= 0 and real x > 0.

    Accepts scalars or arrays. Raises ValueError for m < 0 or x <= 0.
    """
    m = _check_order(m)
    flat, shape, scalar = _prep_x(x, positive=True)
    out = _jy(m, flat, need_j=False)[1]
    if scalar:
        return float(out[0])
    return out.reshape(shape)


def hankel1(m, x):
    """Hankel function of the first kind, H_m(x) = J_m(x) + i Y_m(x), x > 0."""
    m = _check_order(m)
    flat, shape, scalar = _prep_x(x, positive=True)
    out = np.empty(flat.shape, dtype=complex)
    out.real, out.imag = _jy(m, flat)
    if scalar:
        return complex(out[0])
    return out.reshape(shape)


def _hankel01(x):
    """(hankel1(0, x), hankel1(1, x)), bit for bit, from one pass per branch.

    The pair is the every=True table of _jy at order 1: the two orders share
    the power series below _SERIES_SPLIT, one _miller pass keeping J_0 and
    J_1 (from the same n_top as hankel1) in the middle range, and the
    reduced phase, amplitude and cos/sin of the asymptotic branch. Every
    branch works point by point, so the values do not depend on which other
    points share the call, except that the power series stops on a test
    over all of its points below _SERIES_SPLIT.
    """
    flat, shape, scalar = _prep_x(x, positive=True)
    out = np.empty((2,) + flat.shape, dtype=complex)
    out.real, out.imag = _jy(1, flat, every=True)
    if scalar:
        return complex(out[0, 0]), complex(out[1, 0])
    return out[0].reshape(shape), out[1].reshape(shape)


def _outgoing_design(points, center, kappa, modes):
    """Outgoing-multipole columns H_|m|(kappa r) e^(i m phi) about center.

    Points have shape (..., 2); the result has shape (..., 2 modes + 1),
    column modes + m holding order m for m = -modes..modes. H_2..H_modes
    follow from one _hankel01 pair by one _upward pass, stable for H;
    columns m and -m share H_|m| and take conjugate phase factors, powers
    of e^(i phi) = (dx + i dy) / r.
    """
    pts = np.asarray(points, dtype=float)
    dx = pts[..., 0] - center[0]
    dy = pts[..., 1] - center[1]
    r = np.hypot(dx, dy)
    z = kappa * r
    h = _upward(*_hankel01(z), modes, z, every=True)
    e1 = (dx + 1j * dy) / r
    cols = np.empty(z.shape + (2 * modes + 1,), dtype=complex)
    cols[..., modes] = h[0]
    e = e1
    for m in range(1, modes + 1):
        cols[..., modes + m] = h[m] * e
        cols[..., modes - m] = h[m] * e.conj()
        e = e * e1
    return cols


def j0_roots(n):
    """First n positive roots of J_0, ascending, to absolute error <= 1e-12.

    Starts from the large-root expansion about (j - 1/4)*pi (root spacing is
    asymptotically pi, which guarantees the starting point lands within the
    basin of the intended root) and polishes with Newton steps using
    J_0' = -J_1.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be an integer >= 1")
    roots = []
    for j in range(1, int(n) + 1):
        beta = (j - 0.25) * np.pi
        b8 = 8.0 * beta
        t = beta + 1.0 / b8 - 124.0 / (3.0 * b8**3) + 120928.0 / (15.0 * b8**5)
        for _ in range(8):
            step = bessel_j(0, t) / bessel_j(1, t)  # -J0/J0' = +J0/J1
            step = min(max(step, -0.5), 0.5)
            t = t + step
            if abs(step) < 1e-14 * t:
                break
        roots.append(float(t))
    return roots


def hankel_asym_coeffs(m, K):
    """Coefficients a_0..a_K of the large-argument expansion of H_m.

    Convention: H_m(z) ~ sqrt(2/(pi z)) exp(i(z - m*pi/2 - pi/4))
    * sum_k a_k z^-k, with a_k = a_{k-1} * i * (4m^2 - (2k-1)^2) / (8k)
    and a_0 = 1.
    """
    m = _check_order(m)
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool) or K < 0:
        raise ValueError("K must be an integer >= 0")
    mu = 4.0 * m * m
    coeffs = [1.0 + 0.0j]
    for k in range(1, int(K) + 1):
        coeffs.append(coeffs[-1] * 1j * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k))
    return AsymptoticCoeffs(order=m, coeffs=coeffs)


def _asym_pq(m: int):
    """Real coefficients of P and Q (see _jy_asym) for H_m: a_2j = p_j and
    a_2j+1 = i q_j. Read-only arrays."""
    a = np.array(hankel_asym_coeffs(m, _ASYM_ORDER).coeffs)
    p, q = a[0::2].real.copy(), a[1::2].imag.copy()
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


_ASYM_PQ = [_asym_pq(m) for m in (0, 1)]
