"""Tests for the from-scratch Bessel/Hankel routines.

Reference values were computed from independent oracles and frozen here:
  - power-series oracle: J_m(x) = sum_k (-1)^k (x/2)^(m+2k) / (k! (m+k)!)
    summed in 60-digit arithmetic (>= 200 terms);
  - root oracle: bisection of the power series on [2, 3] to 50+ digits;
  - quadrature oracle for Y_0: the integral representation
    Y_0(x) = -(2/pi) * int_0^inf cos(x cosh t) dt, evaluated at test time.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from imfield import (
    AsymptoticCoeffs,
    bessel_j,
    bessel_y,
    hankel1,
    j0_roots,
    hankel_asym_coeffs,
)
from imfield import specfun
from imfield.specfun import _hankel01, _jy, _outgoing_design

# Frozen oracle values (power-series oracle, 60-digit summation).
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335
J60_AT_30 = 9.80755764312862e-14
J40_AT_10 = 6.03089531234691e-21
C1 = 2.404825557695773  # first positive root of J_0 (bisection oracle)


# ---------------------------------------------------------------- bessel_j

def test_j_at_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for m in (1, 2, 7):
        assert bessel_j(m, 0.0) == 0.0


def test_j0_at_one_matches_series_oracle():
    assert abs(bessel_j(0, 1.0) - J0_AT_1) <= 1e-15


def test_j1_at_one_matches_series_oracle():
    assert abs(bessel_j(1, 1.0) - J1_AT_1) <= 1e-15


def test_j0_vanishes_at_first_root():
    assert abs(bessel_j(0, C1)) <= 1e-12


def test_j_high_order_stability():
    # Minimal-solution values recovered with full relative accuracy.
    assert abs(bessel_j(60, 30.0) - J60_AT_30) <= 1e-11 * abs(J60_AT_30)
    assert abs(bessel_j(40, 10.0) - J40_AT_10) <= 1e-11 * abs(J40_AT_10)


# points below the series split where J_60 stays a normal float
SERIES_X = np.linspace(0.02, 0.25, 300, endpoint=False)


@pytest.mark.parametrize("m", [20, 40, 60])
def test_j_series_high_order_matches_mpmath(m):
    # the leading term (x/2)^m / m! rounds about twice, not once per order
    got = bessel_j(m, SERIES_X)
    with mpmath.workdps(40):
        ref = [mpmath.besselj(m, mpmath.mpf(float(x))) for x in SERIES_X]
        err = max(abs((mpmath.mpf(float(g)) - r) / r) for g, r in zip(got, ref))
    assert float(err) <= 6e-16


def _running_product_series(top, x):
    # the leading terms (x/2)^m / m! as a running product of x / 2m
    half = 0.5 * x
    orders = np.arange(top + 1)[:, None]
    term = np.cumprod(np.vstack([np.ones_like(half), half / orders[1:]]),
                      axis=0)
    total = term.copy()
    for k in range(1, 24):
        term = term * (-half * half) / (k * (orders + k))
        total += term
        if np.max(np.abs(term)) < 1e-19 * max(np.max(np.abs(total)), 1e-300):
            break
    return total


def test_j_series_low_orders_keep_running_product_bits(monkeypatch):
    # at m <= 2 the power-and-factorial leading terms round exactly like the
    # running product, so J and H (whose Y_0, Y_1 sum J_0..J_13) keep every
    # bit at the series points
    x = np.concatenate([SERIES_X, np.geomspace(1e-8, 0.02, 200)])
    new = [(bessel_j(m, x), hankel1(m, x)) for m in range(3)]
    monkeypatch.setattr(specfun, "_j_series", _running_product_series)
    for m, (j, h) in enumerate(new):
        assert np.array_equal(j.view(np.uint64), bessel_j(m, x).view(np.uint64))
        assert np.array_equal(h.view(np.uint64), hankel1(m, x).view(np.uint64))


def test_j_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(0, np.nan)


def test_j_array_shapes():
    x = np.array([[0.5, 1.0], [2.0, 40.0]])
    out = bessel_j(0, x)
    assert out.shape == x.shape
    for i in range(2):
        for k in range(2):
            # batch and scalar paths may differ in summation order only
            assert abs(out[i, k] - bessel_j(0, float(x[i, k]))) <= 5e-16
    assert isinstance(bessel_j(0, 1.0), float)


# ---------------------------------------------------------------- bessel_y

def test_wronskian_at_fixed_points():
    for x in (0.5, 1.0, 10.0, 100.0):
        w = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
        assert abs(w - 2.0 / (np.pi * x)) <= 1e-12


def test_y0_against_quadrature_oracle():
    # Y_0(1) = -(2/pi) int_0^inf cos(cosh t) dt; substitute s = cosh t on the
    # tail so the oscillatory part can be integrated with a cosine weight.
    from scipy.integrate import quad

    x = 1.0
    t0 = float(np.arccosh(2.0))
    i1, _ = quad(lambda t: np.cos(x * np.cosh(t)), 0.0, t0,
                 epsabs=1e-14, epsrel=1e-14)
    i2, _ = quad(lambda s: 1.0 / np.sqrt(s * s - 1.0), 2.0, np.inf,
                 weight="cos", wvar=x, limit=400)
    oracle = -(2.0 / np.pi) * (i1 + i2)
    assert abs(bessel_y(0, 1.0) - oracle) <= 1e-10


def test_y1_small_argument_singularity():
    x = 1e-6
    lead = -2.0 / (np.pi * x)
    assert abs(bessel_y(1, x) - lead) <= 0.01 * abs(lead)


def test_y_domain_errors():
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(0, -2.0)
    with pytest.raises(ValueError):
        bessel_y(-3, 1.0)


# ----------------------------------------------------------------- hankel1

def test_hankel_is_j_plus_iy():
    rng = np.random.default_rng(7)
    for x in 10 ** rng.uniform(-2, 3, 25):
        h = hankel1(0, x)
        assert h == complex(bessel_j(0, x), bessel_y(0, x))


def test_hankel_leading_asymptotic_at_100():
    lead = np.sqrt(2.0 / (np.pi * 100.0)) * np.exp(1j * (100.0 - np.pi / 4))
    h = hankel1(0, 100.0)
    assert abs(h - lead) <= 2e-3 * abs(lead)


def test_hankel_three_term_recurrence():
    x = 5.0
    lhs = hankel1(2, x)
    rhs = (2.0 / x) * hankel1(1, x) - hankel1(0, x)
    assert abs(lhs - rhs) <= 1e-12


def test_hankel_domain_errors():
    with pytest.raises(ValueError):
        hankel1(0, 0.0)
    with pytest.raises(ValueError):
        hankel1(0, -5.0)


# ---------------------------------------------------------------- j0_roots

def test_first_root_value():
    roots = j0_roots(1)
    assert len(roots) == 1
    assert abs(roots[0] - C1) <= 1e-12


def test_root_spacing_near_pi():
    c = j0_roots(2)
    assert abs((c[1] - c[0]) - np.pi) <= 0.1


def test_roots_satisfy_defining_property():
    roots = j0_roots(5)
    assert all(np.diff(roots) > 0)
    for c in roots:
        assert abs(bessel_j(0, c)) <= 1e-11


def test_many_roots_bracketed_by_spacing():
    roots = j0_roots(40)
    gaps = np.diff(roots)
    # spacing approaches pi from above
    assert np.all(gaps > 3.0) and np.all(gaps < 3.3)
    assert np.max(np.abs([bessel_j(0, c) for c in roots])) <= 1e-11


def test_roots_rejects_bad_n():
    with pytest.raises(ValueError):
        j0_roots(0)


# ----------------------------------------------------- hankel_asym_coeffs

def test_asym_leading_coefficient():
    ac = hankel_asym_coeffs(0, 0)
    assert ac.order == 0
    assert list(ac.coeffs) == [1.0 + 0.0j]


def test_asym_a0_is_one_every_order():
    for m in (0, 1):
        for K in (0, 1, 3, 6):
            assert hankel_asym_coeffs(m, K).coeffs[0] == 1.0


def test_asym_series_pins_h0_convention():
    # The truncated series must reproduce the de-phased direct evaluation.
    z = 200.0
    target = hankel1(0, z) * np.sqrt(np.pi * z / 2.0) * np.exp(-1j * (z - np.pi / 4))
    ac = hankel_asym_coeffs(0, 2)
    approx = ac.evaluate(z)
    assert abs(approx - target) <= 1e-5 * abs(target)


def test_asym_series_pins_h1_convention():
    z = 200.0
    target = hankel1(1, z) * np.sqrt(np.pi * z / 2.0) * np.exp(
        -1j * (z - 3 * np.pi / 4)
    )
    ac = hankel_asym_coeffs(1, 1)
    approx = ac.evaluate(z)
    assert abs(approx - target) <= 1e-5 * abs(target)


def test_asym_truncation_error_bound_at_50():
    z = 50.0
    for m in (0, 1):
        for K in (1, 2, 4, 6, 8):
            ac = hankel_asym_coeffs(m, K)
            target = hankel1(m, z) * np.sqrt(np.pi * z / 2.0) * np.exp(
                -1j * (z - m * np.pi / 2 - np.pi / 4)
            )
            err = abs(ac.evaluate(z) - target) / abs(target)
            bound = 10.0 * abs(ac.coeffs[K]) * z ** (-K)
            assert err <= bound


def test_asym_pq_rebuild_series_coefficients():
    # a_k = i^k r_k with r_k real: the even coefficients are p_j, the odd
    # ones i q_j, exactly
    from imfield.specfun import _ASYM_ORDER, _ASYM_PQ

    for m in (0, 1):
        p, q = _ASYM_PQ[m]
        assert len(p) == len(q) == (_ASYM_ORDER + 1) // 2
        rebuilt = [None] * (_ASYM_ORDER + 1)
        rebuilt[0::2] = [complex(c) for c in p]
        rebuilt[1::2] = [1j * c for c in q]
        assert rebuilt == list(hankel_asym_coeffs(m, _ASYM_ORDER).coeffs)


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_asym_branch_matches_scipy_sweep(m):
    # H_0 and H_1 take one real-split series each; higher orders recur up
    # from the pair
    x = np.concatenate([[17.5 - 1e-9, 17.5, 17.5 + 1e-9],
                        np.geomspace(17.5, 1e5, 3001)[1:]])
    scale = np.abs(special.hankel1(m, x))
    assert np.all(np.abs(hankel1(m, x) - special.hankel1(m, x))
                  <= 1e-14 * scale)
    assert np.all(np.abs(bessel_j(m, x) - special.jv(m, x)) <= 1e-14 * scale)
    assert np.all(np.abs(bessel_y(m, x) - special.yv(m, x)) <= 1e-14 * scale)


def test_asym_coeffs_validation():
    with pytest.raises(ValueError):
        hankel_asym_coeffs(-1, 3)
    with pytest.raises(ValueError):
        hankel_asym_coeffs(0, -1)
    with pytest.raises(ValueError):
        AsymptoticCoeffs(order=0, coeffs=[2.0])


# ----------------------------------------------------- global invariants

def test_wronskian_invariant_random():
    rng = np.random.default_rng(42)
    x = 10 ** rng.uniform(-1, 3, 1000)
    w = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
    resid = np.abs(w - 2.0 / (np.pi * x))
    assert np.all(resid <= 1e-12 * (1.0 + 1.0 / x))


def test_recurrence_residual_invariant():
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 100.0, 50)
    for m in range(1, 21):
        for fn in (bessel_j, bessel_y):
            lo, mid, hi = fn(m - 1, x), fn(m, x), fn(m + 1, x)
            resid = np.abs(lo + hi - (2.0 * m / x) * mid)
            scale = np.maximum.reduce([np.abs(lo), np.abs(mid), np.abs(hi)])
            assert np.all(resid <= 1e-11 * scale)


def test_hankel_matches_order6_series_at_large_x():
    # The phase z - m*pi/2 - pi/4 must be reduced mod 2*pi before exp, else
    # plain double arithmetic injects ~ulp(z) phase noise that dwarfs the
    # first-omitted term; reuse the library's compensated reduction.
    from imfield.specfun import _reduce_phase

    for m in (0, 1):
        ac = hankel_asym_coeffs(m, 7)
        for z in (100.0, 317.0, 1000.0, 5000.0):
            zr = float(_reduce_phase(np.asarray(z)))
            pref = np.sqrt(2.0 / (np.pi * z)) * np.exp(
                1j * (zr - m * np.pi / 2 - np.pi / 4)
            )
            series6 = sum(ac.coeffs[k] * z ** (-k) for k in range(7))
            first_omitted = abs(ac.coeffs[7]) * z ** (-7)
            h = hankel1(m, z)
            assert abs(h - pref * series6) <= abs(pref) * (
                2.0 * first_omitted + 5e-15
            )


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 8),
       x=st.one_of(
           st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
           st.tuples(st.sampled_from([0.25, 17.5]),
                     st.floats(-1e-6, 1e-6)).map(lambda p: p[0] * (1 + p[1]))))
def test_branches_match_scipy_property(m, x):
    # J is held to |H_m| as well: below its turning point (x < m) and near
    # its zeros J is tiny, and only its error on the scale of Y is meaningful
    scale = abs(special.hankel1(m, x))
    assert abs(hankel1(m, x) - special.hankel1(m, x)) <= 1e-14 * scale
    assert abs(bessel_j(m, x) - special.jv(m, x)) <= 1e-14 * scale
    assert abs(bessel_y(m, x) - special.yv(m, x)) <= 1e-14 * scale


def test_miller_branch_memory_is_linear():
    # one downward pass keeps a few running arrays; a full order table of
    # 65,536 points would take ~40 MB per 78 orders, plus its gathers
    import tracemalloc

    x = np.random.default_rng(4).uniform(2.0, 17.0, 65536)
    tracemalloc.start()
    try:
        hankel1(0, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m_top=st.integers(1, 60))
def test_every_order_table_matches_bessel_j(seed, m_top):
    # the order tables of _jy (one pass per branch keeping every order, as
    # the exterior expansion takes J) against bessel_j and bessel_y order
    # by order, on all three branches
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], rng.uniform(0.0, 0.25, 20),
                        rng.uniform(0.25, 17.5, 20),
                        rng.uniform(17.5, 60.0, 20)])
    table = _jy(m_top, x, need_y=False, every=True)[0]
    assert table.shape == (m_top + 1, x.size)
    for m in range(m_top + 1):
        want = bessel_j(m, x)
        assert np.all(np.abs(table[m] - want) <= 5e-15 + 1e-12 * np.abs(want))
    pos = x[x > 0.0]
    ytable = _jy(m_top, pos, need_j=False, every=True)[1]
    assert ytable.shape == (m_top + 1, pos.size)
    for m in range(m_top + 1):
        # the passes differ in n_top, so the tables agree to rounding only
        assert np.allclose(ytable[m], bessel_y(m, pos), rtol=1e-12,
                           atol=5e-15)


@pytest.mark.parametrize("m", [171, 250])
def test_orders_past_factorial_range(m):
    # (x/2)^m / m! as a float quotient overflows from m = 171 on; a point
    # below the series split must not fail the call. J_m underflows to 0
    # and Y_m saturates to -inf where scipy's do.
    x = np.array([0.1, 0.3, 5.0])
    want_j, want_y = special.jv(m, x), special.yv(m, x)
    for got_j, got_y in ((bessel_j(m, x), bessel_y(m, x)),
                         (hankel1(m, x).real, hankel1(m, x).imag)):
        assert np.allclose(got_j, want_j, rtol=1e-12, atol=0.0)
        assert np.allclose(got_y, want_y, rtol=1e-12, atol=0.0)
    assert bessel_j(m, 0.1) == bessel_j(m, 0.3) == 0.0
    assert bessel_y(m, 0.1) == -np.inf
    assert hankel1(m, 0.1) == complex(0.0, -np.inf)


# ---------------------------------------------------------- H_0, H_1 pair

# the branch splits and their float neighbours
_SPLIT_POINTS = [v for e in (0.25, 17.5)
                 for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]


def _bits(h):
    return np.ascontiguousarray(np.atleast_1d(h), dtype=complex).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                             st.sampled_from(_SPLIT_POINTS)),
                   min_size=1, max_size=64))
def test_hankel01_is_the_hankel1_pair_bit_for_bit(xs):
    x = np.array(xs)
    h0, h1 = _hankel01(x)
    assert np.array_equal(_bits(h0), _bits(hankel1(0, x)))
    assert np.array_equal(_bits(h1), _bits(hankel1(1, x)))


@pytest.mark.parametrize("x", [1e-3] + _SPLIT_POINTS + [3.0, 80.0])
def test_hankel01_scalar(x):
    h0, h1 = _hankel01(x)
    assert type(h0) is complex and type(h1) is complex
    assert np.array_equal(_bits(h0), _bits(hankel1(0, x)))
    assert np.array_equal(_bits(h1), _bits(hankel1(1, x)))


def test_hankel01_keeps_the_shape():
    rng = np.random.default_rng(11)
    x = np.concatenate([_SPLIT_POINTS, rng.uniform(0.01, 0.25, 18),
                        rng.uniform(0.25, 17.5, 18),
                        rng.uniform(17.5, 90.0, 18)]).reshape(3, 4, 5)
    h0, h1 = _hankel01(x)
    assert h0.shape == h1.shape == x.shape
    assert np.array_equal(_bits(h0), _bits(hankel1(0, x)))
    assert np.array_equal(_bits(h1), _bits(hankel1(1, x)))


@pytest.mark.parametrize("x", [0.0, -1.0, np.nan, np.inf, -np.inf,
                               [1.0, 0.0], [2.0, np.nan], [[3.0], [-2.0]]])
def test_hankel01_domain_errors_match_hankel1(x):
    with pytest.raises(ValueError) as want:
        hankel1(0, x)
    with pytest.raises(ValueError) as got:
        _hankel01(x)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("modes", [5, 57])
def test_outgoing_design_matches_scipy_hankel(modes):
    # kappa r drawn from each branch: power series, Miller, asymptotic
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.uniform(0.01, 0.25, 40),
                        rng.uniform(0.25, 17.5, 40),
                        rng.uniform(17.5, 400.0, 40)])
    kappa, center = 2.5, (0.3, -0.7)
    phi = rng.uniform(-np.pi, np.pi, z.size)
    pts = np.array(center) \
        + (z / kappa)[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    got = _outgoing_design(pts, center, kappa, modes)
    assert got.shape == (z.size, 2 * modes + 1)
    dx, dy = pts[:, 0] - center[0], pts[:, 1] - center[1]
    zr, ph = kappa * np.hypot(dx, dy), np.arctan2(dy, dx)
    for j, m in enumerate(range(-modes, modes + 1)):
        ref = special.hankel1(abs(m), zr) * np.exp(1j * m * ph)
        assert np.max(np.abs(got[:, j] - ref) / np.abs(ref)) <= 1e-12
