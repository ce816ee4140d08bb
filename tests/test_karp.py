"""Tests for the Karp-expansion bridge.

Oracles: exact Lommel polynomials (integer three-term recurrence, verified
numerically against hankel1), farfield_oracle for multipole and point-source
fields, and direct field evaluation for the convergent series.
"""

import json

import numpy as np
import pytest

from imfield import (
    FarFieldCoeffs,
    Multipole,
    PointSource,
    RadiationField,
    RayGeometry,
    eval_field,
    extract_all,
    farfield_oracle,
    hankel1,
    hankel_asym_coeffs,
    make_schedule,
    sample_im_on_ray,
    schedule_abscissas,
)
from imfield.karp import (
    KarpCoeffs,
    _karp_sum,
    eval_karp,
    farfield_from_karp,
    karp_from_dict,
    karp_from_farfield,
    karp_to_dict,
    lommel_karp_oracle,
)
from imfield.specfun import _hankel01

KAPPA = 5.0


def _multipole_karp_truth(m, c, phi, n):
    """Karp lists of c H_m(kappa r) e^{im angle} from the Lommel oracle."""
    P, Q = lommel_karp_oracle(m, n)
    amp = c * np.exp(1j * m * phi)
    F = [amp * (P[l] if l < len(P) else 0) * KAPPA ** -float(l)
         for l in range(n + 1)]
    G = [amp * (Q[l] if l < len(Q) else 0) * KAPPA ** -float(l)
         for l in range(n + 1)]
    return F, G


def _karp_of(field, phi, n):
    fp = farfield_oracle(field, phi, n)
    fm = farfield_oracle(field, phi + np.pi, n)
    return karp_from_farfield(
        FarFieldCoeffs(kappa=field.kappa, phi=phi, f_plus=fp, f_minus=fm))


# ---------------------------------------------------------------------------
# lommel_karp_oracle


def test_lommel_base_cases():
    assert lommel_karp_oracle(0, 5) == ([1], [0])
    assert lommel_karp_oracle(1, 5) == ([0], [1])
    assert lommel_karp_oracle(2, 5) == ([-1], [0, 2])
    assert lommel_karp_oracle(3, 5) == ([0, -4], [-1, 0, 8])


def test_lommel_numeric_identity():
    # H_m(z) = P_m(1/z) H_0(z) + Q_m(1/z) H_1(z) at z = 10
    z = 10.0
    for m in range(9):
        P, Q = lommel_karp_oracle(m, 12)
        pv = sum(c * z ** -float(j) for j, c in enumerate(P))
        qv = sum(c * z ** -float(j) for j, c in enumerate(Q))
        lhs = hankel1(m, z)
        rhs = pv * hankel1(0, z) + qv * hankel1(1, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_lommel_parity_structure():
    # P_m holds only powers of parity m, Q_m only parity m + 1
    for m in range(9):
        P, Q = lommel_karp_oracle(m, 12)
        for l, c in enumerate(P):
            if (l - m) % 2 != 0:
                assert c == 0
        for l, c in enumerate(Q):
            if (l - m - 1) % 2 != 0:
                assert c == 0


def test_lommel_truncation_and_validation():
    P, Q = lommel_karp_oracle(3, 0)
    assert P == [0] and Q == [-1]
    with pytest.raises(ValueError):
        lommel_karp_oracle(-1, 3)
    with pytest.raises(ValueError):
        lommel_karp_oracle(2, -1)


# ---------------------------------------------------------------------------
# karp_from_farfield


def test_karp_of_h0_field():
    ff = FarFieldCoeffs(kappa=KAPPA, phi=0.0, f_plus=[1.0], f_minus=[1.0])
    kc = karp_from_farfield(ff)
    assert kc.F == [1.0] and kc.G == [0.0]


def test_karp_of_h1_field():
    phi = 0.6
    amp = np.exp(1j * phi)
    ff = FarFieldCoeffs(kappa=KAPPA, phi=phi,
                        f_plus=[-1j * amp], f_minus=[1j * amp])
    kc = karp_from_farfield(ff)
    assert abs(kc.F[0]) <= 1e-15
    assert abs(kc.G[0] - amp) <= 1e-15


def test_karp_order0_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f0p, f0m = rng.normal(size=2) + 1j * rng.normal(size=2)
        ff = FarFieldCoeffs(kappa=KAPPA, phi=0.1, f_plus=[f0p], f_minus=[f0m])
        kc = karp_from_farfield(ff)
        assert abs(kc.F[0] - 0.5 * (f0p + f0m)) <= 1e-14
        assert abs(kc.G[0] - 0.5j * (f0p - f0m)) <= 1e-14


def test_karp_multipoles_match_lommel():
    # central self-validation: asymptotic matching vs exact Lommel recurrence
    phi = 0.7
    c = 0.8 - 0.3j
    n = 6
    for m in range(9):
        field = RadiationField(terms=(Multipole(m, c),), kappa=KAPPA)
        kc = _karp_of(field, phi, n)
        F_true, G_true = _multipole_karp_truth(m, c, phi, n)
        for l in range(n + 1):
            assert abs(kc.F[l] - F_true[l]) <= 1e-10
            assert abs(kc.G[l] - G_true[l]) <= 1e-10


def test_karp_parity_invariant():
    # re-extracting with the angles swapped must land on the parity images
    field = RadiationField(
        terms=(Multipole(0, 1.0), Multipole(1, 0.5j), Multipole(2, 0.2),
               Multipole(3, -0.1j)),
        kappa=KAPPA,
    )
    phi = 0.7
    fp = farfield_oracle(field, phi, 5)
    fm = farfield_oracle(field, phi + np.pi, 5)
    kc = karp_from_farfield(
        FarFieldCoeffs(kappa=KAPPA, phi=phi, f_plus=fp, f_minus=fm))
    kc_swapped = karp_from_farfield(
        FarFieldCoeffs(kappa=KAPPA, phi=phi + np.pi, f_plus=fm, f_minus=fp))
    F_anti, G_anti = kc.antipodal()
    for a, b in zip(kc_swapped.F, F_anti):
        assert abs(a - b) <= 1e-10
    for a, b in zip(kc_swapped.G, G_anti):
        assert abs(a - b) <= 1e-10


# ---------------------------------------------------------------------------
# farfield_from_karp


def test_round_trip_random_coefficients():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(0, 6))
        fp = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)).tolist()
        fm = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)).tolist()
        ff = FarFieldCoeffs(kappa=KAPPA, phi=0.3, f_plus=fp, f_minus=fm)
        back = farfield_from_karp(karp_from_farfield(ff), n)
        for a, b in zip(back.f_plus, fp):
            assert abs(a - b) <= 1e-12
        for a, b in zip(back.f_minus, fm):
            assert abs(a - b) <= 1e-12


def test_farfield_of_h0_karp():
    kc = KarpCoeffs(kappa=KAPPA, phi=0.0, F=[1, 0, 0, 0], G=[0, 0, 0, 0])
    ff = farfield_from_karp(kc, 3)
    a0 = hankel_asym_coeffs(0, 3).coeffs
    for j in range(4):
        want = a0[j] * KAPPA ** -float(j)
        assert abs(ff.f_plus[j] - want) <= 1e-15
        assert abs(ff.f_minus[j] - want) <= 1e-15


def test_farfield_from_karp_zero_and_errors():
    kc = KarpCoeffs(kappa=KAPPA, phi=0.0, F=[0, 0], G=[0, 0])
    ff = farfield_from_karp(kc, 1)
    assert ff.f_plus == [0, 0] and ff.f_minus == [0, 0]
    with pytest.raises(ValueError):
        farfield_from_karp(kc, 2)
    with pytest.raises(ValueError):
        farfield_from_karp(kc, -1)


# ---------------------------------------------------------------------------
# eval_karp


def test_eval_karp_h0():
    kc = KarpCoeffs(kappa=KAPPA, phi=0.0, F=[1.0], G=[0.0])
    for r in (0.5, 2.0, 17.0):
        assert abs(eval_karp(kc, r, "+") - hankel1(0, KAPPA * r)) <= 1e-15


def test_eval_karp_multipole2_close_in():
    field = RadiationField(terms=(Multipole(2, 1.0),), kappa=KAPPA)
    phi = 0.7
    r = 3.0 / KAPPA
    x = np.array([r * np.cos(phi), r * np.sin(phi)])
    true = eval_field(field, x)
    err0 = abs(eval_karp(_karp_of(field, phi, 0), r, "+") - true)
    err4 = abs(eval_karp(_karp_of(field, phi, 4), r, "+") - true)
    assert err4 <= 1e-3
    assert err4 < err0


def test_eval_karp_even_field_side_symmetric():
    field = RadiationField(terms=(Multipole(0, 1.0), Multipole(2, 0.4j)),
                           kappa=KAPPA)
    kc = _karp_of(field, 0.7, 4)
    for r in (2.0, 5.0):
        assert abs(eval_karp(kc, r, "+") - eval_karp(kc, r, "-")) <= 1e-14


def test_eval_karp_sides_match_field():
    field = RadiationField(
        terms=(Multipole(1, 0.5j), PointSource((0.3, 0.2), 1.0)), kappa=KAPPA)
    phi = 0.7
    kc = _karp_of(field, phi, 6)
    theta = np.array([np.cos(phi), np.sin(phi)])
    for r in (5.0, 20.0):
        vp = eval_karp(kc, r, "+")
        vm = eval_karp(kc, r, "-")
        assert abs(vp - eval_field(field, r * theta)) <= 1e-5 * abs(vp)
        assert abs(vm - eval_field(field, -r * theta)) <= 1e-5 * abs(vm)


def test_eval_karp_convergence_monotone():
    # |truncated - exact| decreasing in the order at r = 3 rho
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    phi = 0.7
    r = 3.0 * field.source_radius
    x = np.array([r * np.cos(phi), r * np.sin(phi)])
    true_p = eval_field(field, x)
    true_m = eval_field(field, -x)
    errs = []
    for n in range(7):
        kc = _karp_of(field, phi, n)
        errs.append(max(abs(eval_karp(kc, r, "+") - true_p),
                        abs(eval_karp(kc, r, "-") - true_m)))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_eval_karp_truncation_decay():
    # fixed order n: error falls at least like r^{-(n+1)} times the Hankel decay
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    phi = 0.7
    rr = np.array([4.0, 8.0, 16.0, 32.0])
    for n in (0, 1, 2):
        kc = _karp_of(field, phi, n)
        errs = []
        for r in rr:
            x = np.array([r * np.cos(phi), r * np.sin(phi)])
            errs.append(abs(eval_karp(kc, r, "+") - eval_field(field, x)))
        slope = np.polyfit(np.log(rr), np.log(errs), 1)[0]
        assert slope <= -(n + 1.5) + 0.3


def test_eval_karp_array_and_errors():
    kc = KarpCoeffs(kappa=KAPPA, phi=0.0, F=[1.0, 0.5], G=[0.0, 2.0])
    rr = np.array([1.0, 2.0, 4.0])
    vals = eval_karp(kc, rr, "+")
    assert vals.shape == (3,)
    # batch evaluation may round differently from scalar by an ulp
    assert abs(vals[1] - eval_karp(kc, 2.0, "+")) <= 1e-14
    with pytest.raises(ValueError):
        eval_karp(kc, 0.0, "+")
    with pytest.raises(ValueError):
        eval_karp(kc, 1.0, "up")


def _karp_sum_per_side(kc, r, side):
    """Horner sums of one side's coefficient lists, the antipodal ones
    from the parity rules (the reference for _karp_sum's signed sums)."""
    F, G = (kc.F, kc.G) if side > 0 else kc.antipodal()
    u = 1.0 / r
    sum_f = np.zeros(r.shape, dtype=complex)
    sum_g = np.zeros(r.shape, dtype=complex)
    for j in range(kc.order, -1, -1):
        sum_f = sum_f * u + F[j]
        sum_g = sum_g * u + G[j]
    h0, h1 = _hankel01(kc.kappa * r)
    return h0 * sum_f + h1 * sum_g


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_karp_sum_columns_match_per_side_sums(order):
    rng = np.random.default_rng(order)
    kcs = [KarpCoeffs(kappa=KAPPA, phi=0.7, F=rng.standard_normal(order + 1)
                      + 1j * rng.standard_normal(order + 1),
                      G=rng.standard_normal(order + 1)
                      + 1j * rng.standard_normal(order + 1))
           for _ in range(4)]
    xi = rng.uniform(0.2, 400.0, 101) * rng.choice([-1.0, 1.0], 101)
    got = _karp_sum(kcs, xi)
    assert got.shape == (101, 4)
    for k, kc in enumerate(kcs):
        for side in (+1, -1):
            on = side * xi > 0
            r = np.abs(xi[on])
            want = _karp_sum_per_side(kc, r, side)
            assert np.array_equal(got[on, k], want)
            assert np.array_equal(eval_karp(kc, r, side), want)


# ---------------------------------------------------------------------------
# frame covariance (closes the loop with the extraction stage)


def test_frame_covariance_of_extraction():
    # two admissible shift points on the same line must describe one field
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sched = make_schedule(KAPPA, s0=1e5 / 2 ** 10, growth=2.0, count=11,
                          depth=3)
    need = schedule_abscissas(sched)

    def extract_with_origins(o_plus, o_minus):
        q = 0.5 * (np.asarray(o_plus) + np.asarray(o_minus))
        xi_p = float((np.asarray(o_plus) - q)[0])  # line along x
        sp = sample_im_on_ray(
            field, RayGeometry(origin=o_plus, direction=(1.0, 0.0)),
            need - xi_p)
        sm = sample_im_on_ray(
            field, RayGeometry(origin=o_minus, direction=(-1.0, 0.0)),
            need - xi_p)
        return extract_all(sp, sm, 2, sched)

    kc_a = karp_from_farfield(extract_with_origins((1.0, 2.0), (-1.0, 2.0)))
    kc_b = karp_from_farfield(extract_with_origins((4.0, 2.0), (0.0, 2.0)))
    assert kc_a.origin_shift == (0.0, 2.0)
    assert kc_b.origin_shift == (2.0, 2.0)
    for X in (1200.0, 2400.0):
        # physical point (X, 2): distance X from q_a, X - 2 from q_b
        va = eval_karp(kc_a, X, "+")
        vb = eval_karp(kc_b, X - 2.0, "+")
        true = eval_field(field, np.array([X, 2.0]))
        assert abs(va - vb) <= 1e-6 * abs(va)
        assert abs(va - true) <= 1e-6 * abs(true)
        # physical point (-X, 2): distance X from q_a, X + 2 from q_b
        va_m = eval_karp(kc_a, X, "-")
        vb_m = eval_karp(kc_b, X + 2.0, "-")
        true_m = eval_field(field, np.array([-X, 2.0]))
        assert abs(va_m - vb_m) <= 1e-6 * abs(va_m)
        assert abs(va_m - true_m) <= 1e-6 * abs(true_m)


# ---------------------------------------------------------------------------
# container and serialization


def test_karp_json_round_trip():
    kc = KarpCoeffs(kappa=KAPPA, phi=0.25, F=[1 + 2j, 0.5j],
                    G=[0.0, 1 - 1j], origin_shift=(0.0, 2.0))
    d = karp_to_dict(kc)
    json.dumps(d)
    back = karp_from_dict(d)
    assert back.kappa == kc.kappa
    assert back.phi == kc.phi
    assert back.F == kc.F
    assert back.G == kc.G
    assert back.origin_shift == kc.origin_shift


def test_karp_validation():
    with pytest.raises(ValueError):
        KarpCoeffs(kappa=-1.0, phi=0.0, F=[1.0], G=[0.0])
    with pytest.raises(ValueError):
        KarpCoeffs(kappa=1.0, phi=0.0, F=[1.0], G=[0.0, 1.0])
    with pytest.raises(ValueError):
        KarpCoeffs(kappa=1.0, phi=0.0, F=[], G=[])
    with pytest.raises(ValueError):
        KarpCoeffs(kappa=1.0, phi=0.0, F=[1.0], G=[0.0],
                   origin_shift=(1.0,))
