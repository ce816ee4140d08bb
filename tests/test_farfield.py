"""Tests for far-field coefficient recovery from weighted imaginary parts.

Oracles: farfield_oracle (validated in test_fields.py against independent
asymptotics), hankel_asym_coeffs for single-multipole coefficients, and exact
closed forms where available (monopole f_1 = -i/(8 kappa)).
"""

import warnings

import numpy as np
import pytest

from imfield import (
    HalfPlaneSpec,
    ImSamples,
    LineSpec,
    Multipole,
    PointSource,
    PotentialGrid,
    RadiationField,
    RayGeometry,
    eval_field,
    farfield_oracle,
    gkl_reduce,
    reconstruct_from_im,
    sample_im_on_ray,
)
from imfield.farfield import (
    ExtractionSchedule,
    FarFieldCoeffs,
    _extract_orders,
    _pair_abscissas,
    extract_all,
    extract_f0_two_point,
    extract_least_squares,
    extract_next_coeff,
    extract_sequence_extrapolated,
    farfield_from_dict,
    farfield_to_dict,
    make_schedule,
    schedule_abscissas,
    schedule_for,
    weighted_im,
)

KAPPA = 5.0
TAU = np.pi / (2.0 * KAPPA)

# monopole H_0: f_1 = a_1(0) / kappa = (i(0 - 1)/8) / kappa
MONO_F1 = -0.025j


def _ray_x():
    return RayGeometry(origin=(0.0, 0.0), direction=(1.0, 0.0))


def _I_on_x(field, r):
    """Weighted Im along the positive x-axis, distance r from the origin."""
    return float(np.sqrt(r) * eval_field(field, np.array([r, 0.0])).imag)


def _mix_field():
    return RadiationField(
        terms=(Multipole(0, 1.0), Multipole(1, 0.5j), Multipole(2, 0.2)),
        kappa=KAPPA,
    )


def _samples_on_x(field, abscissas, sign=+1):
    ray = RayGeometry(origin=(0.0, 0.0), direction=(float(sign), 0.0))
    return sample_im_on_ray(field, ray, abscissas)


# ---------------------------------------------------------------------------
# weighted_im


def test_weighted_im_values():
    assert weighted_im(0.0, 5.0) == 0.0
    assert weighted_im(1.0, 4.0) == 2.0


def test_weighted_im_point_source_at_origin():
    # Im of (i/4)H_0(kappa r) is J_0(kappa r)/4
    from imfield import bessel_j

    field = RadiationField(terms=(PointSource((0.0, 0.0), 1.0),), kappa=KAPPA)
    for r in (1.0, 3.7, 20.0):
        got = weighted_im(eval_field(field, np.array([r, 0.0])).imag, r)
        want = np.sqrt(r) * bessel_j(0, KAPPA * r) / 4.0
        assert abs(got - want) <= 1e-14


def test_weighted_im_domain_error():
    with pytest.raises(ValueError):
        weighted_im(1.0, 0.0)
    with pytest.raises(ValueError):
        weighted_im(1.0, -2.0)


# ---------------------------------------------------------------------------
# extract_f0_two_point


def test_two_point_zero_data():
    assert extract_f0_two_point(0.0, 0.0, 100.0, TAU, KAPPA) == 0.0


def test_two_point_monopole_at_1e4():
    field = RadiationField(terms=(Multipole(0, 1.0),), kappa=KAPPA)
    r = 1e4
    est = extract_f0_two_point(_I_on_x(field, r), _I_on_x(field, r + TAU),
                               r, TAU, KAPPA)
    assert abs(est - 1.0) <= 1e-3


def test_two_point_point_source_decay():
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    f0_true = farfield_oracle(field, 0.0, 0)[0]
    errs = []
    for r in (2000.0, 4000.0, 8000.0):
        est = extract_f0_two_point(_I_on_x(field, r), _I_on_x(field, r + TAU),
                                   r, TAU, KAPPA)
        errs.append(abs(est - f0_true))
    assert 0.35 <= errs[1] / errs[0] <= 0.65
    assert 0.35 <= errs[2] / errs[1] <= 0.65


def test_two_point_conditioning_error():
    # kappa*tau = pi makes the two rows parallel
    with pytest.raises(ValueError):
        extract_f0_two_point(0.1, 0.2, 100.0, np.pi / KAPPA, KAPPA)


def test_two_point_validation():
    with pytest.raises(ValueError):
        extract_f0_two_point(0.1, 0.2, -1.0, TAU, KAPPA)
    with pytest.raises(ValueError):
        extract_f0_two_point(0.1, 0.2, 100.0, 0.0, KAPPA)


def test_two_point_linear_in_data():
    field = _mix_field()
    r = 500.0
    a = extract_f0_two_point(_I_on_x(field, r), _I_on_x(field, r + TAU),
                             r, TAU, KAPPA)
    b = extract_f0_two_point(3.7 * _I_on_x(field, r),
                             3.7 * _I_on_x(field, r + TAU), r, TAU, KAPPA)
    assert abs(b - 3.7 * a) <= 1e-12 * abs(b)


# ---------------------------------------------------------------------------
# extract_next_coeff


def _schedule_samples(field, sched, sign=+1):
    return _samples_on_x(field, schedule_abscissas(sched), sign)


def test_next_coeff_monopole_f1():
    field = RadiationField(terms=(Multipole(0, 1.0),), kappa=KAPPA)
    sched = make_schedule(KAPPA, s0=100.0, growth=2.0, count=8)
    samples = _schedule_samples(field, sched)
    ests = [(r, extract_next_coeff(samples, [1.0 + 0j], r, sched.tau))
            for r in sched.radii]
    est = extract_sequence_extrapolated(ests, 1)
    assert abs(est - MONO_F1) <= 1e-9
    # raw estimates already converge to f_1 as r grows
    raw_errs = [abs(v - MONO_F1) for _, v in ests]
    assert raw_errs[-1] < raw_errs[0]


def test_next_coeff_zero_field():
    absc = np.array([100.0, 100.0 + TAU, 200.0, 200.0 + TAU])
    samples = ImSamples(ray=_ray_x(), abscissas=absc,
                        values=np.zeros(4), kappa=KAPPA)
    assert extract_next_coeff(samples, [0.0], 100.0, TAU) == 0.0


def test_next_coeff_multipole2_f1():
    field = RadiationField(terms=(Multipole(2, 1.0),), kappa=KAPPA)
    sched = make_schedule(KAPPA, s0=1e5 / 2 ** 7, growth=2.0, count=8, depth=3)
    samples = _schedule_samples(field, sched)
    ests0 = [(r, extract_f0_two_point(
        samples.values[np.searchsorted(samples.abscissas, r)],
        samples.values[np.searchsorted(samples.abscissas, r + sched.tau)],
        r, sched.tau, KAPPA)) for r in sched.radii]
    f0_ext = extract_sequence_extrapolated(ests0, 3)
    oracle = farfield_oracle(field, 0.0, 1)
    assert abs(f0_ext - oracle[0]) <= 1e-8
    r_top = sched.radii[-1]
    f1_est = extract_next_coeff(samples, [f0_ext], r_top, sched.tau)
    assert abs(f1_est - oracle[1]) <= 1e-3


def test_next_coeff_amplification_warning():
    # r^(n+1) = 1e15 amplifies double rounding past the 0.1 threshold
    r = 1000.0
    absc = np.array([r, r + TAU])
    samples = ImSamples(ray=_ray_x(), abscissas=absc,
                        values=np.zeros(2), kappa=KAPPA)
    with pytest.warns(RuntimeWarning):
        extract_next_coeff(samples, [0.0] * 5, r, TAU)


def test_next_coeff_missing_abscissa():
    absc = np.array([100.0, 100.0 + TAU])
    samples = ImSamples(ray=_ray_x(), abscissas=absc,
                        values=np.zeros(2), kappa=KAPPA)
    with pytest.raises(ValueError):
        extract_next_coeff(samples, [0.0], 150.0, TAU)


def test_next_coeff_requires_known():
    absc = np.array([100.0, 100.0 + TAU])
    samples = ImSamples(ray=_ray_x(), abscissas=absc,
                        values=np.zeros(2), kappa=KAPPA)
    with pytest.raises(ValueError):
        extract_next_coeff(samples, [], 100.0, TAU)


# ---------------------------------------------------------------------------
# extract_sequence_extrapolated


def test_extrapolated_constant():
    ests = [(100.0 * 2 ** k, 2.5 - 1.5j) for k in range(5)]
    for depth in range(5):
        assert extract_sequence_extrapolated(ests, depth) == 2.5 - 1.5j


def test_extrapolated_first_order_model():
    ests = [(100.0 * 2 ** k, 1.0 + 1.0 / (100.0 * 2 ** k)) for k in range(6)]
    est = extract_sequence_extrapolated(ests, 1)
    assert abs(est - 1.0) <= 1e-12


def test_extrapolated_depth2_point_source():
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    f0_true = farfield_oracle(field, 0.0, 0)[0]
    sched = make_schedule(KAPPA, s0=1e4 / 2 ** 6, growth=2.0, count=7, depth=2)
    ests = [(r, extract_f0_two_point(_I_on_x(field, r),
                                     _I_on_x(field, r + TAU), r, TAU, KAPPA))
            for r in sched.radii]
    err_raw = abs(extract_sequence_extrapolated(ests, 0) - f0_true)
    err_d2 = abs(extract_sequence_extrapolated(ests, 2) - f0_true)
    assert err_raw >= 10.0 * err_d2


def test_extrapolated_depth0_is_last():
    ests = [(100.0, 1.0 + 2j), (200.0, 3.0 - 1j)]
    assert extract_sequence_extrapolated(ests, 0) == 3.0 - 1j


def test_extrapolated_validation():
    with pytest.raises(ValueError):
        extract_sequence_extrapolated([], 0)
    with pytest.raises(ValueError):
        extract_sequence_extrapolated([(100.0, 1.0)], 1)
    with pytest.raises(ValueError):
        extract_sequence_extrapolated([(-1.0, 1.0), (2.0, 1.0)], 0)
    with pytest.raises(ValueError):
        extract_sequence_extrapolated([(100.0, 1.0), (100.0, 2.0)], 1)
    with pytest.raises(ValueError):
        extract_sequence_extrapolated([(100.0, 1.0), (200.0, 2.0)], -1)


# ---------------------------------------------------------------------------
# schedules


def test_make_schedule_defaults():
    sched = make_schedule(KAPPA)
    lam = 2.0 * np.pi / KAPPA
    assert sched.tau == pytest.approx(np.pi / (2.0 * KAPPA))
    assert sched.extrapolation_depth == 3
    assert len(sched.radii) == 11
    # snapped onto the wavelength lattice
    n = sched.radii / lam
    assert np.all(np.abs(n - np.round(n)) <= 1e-9)
    assert np.all(np.diff(sched.radii) > 0)
    assert sched.radii[0] == pytest.approx(1e3 / KAPPA, rel=0.01)


def test_make_schedule_no_snap():
    sched = make_schedule(KAPPA, s0=50.0, growth=3.0, count=4, snap=False)
    assert np.allclose(sched.radii, [50.0, 150.0, 450.0, 1350.0])


@pytest.mark.parametrize("kappa, multiples", [
    (2.0, [3, 4, 5, 6, 7, 8, 9, 10]),
    (4.0, [3, 4, 5, 6, 7, 9, 11, 13, 16, 20]),
])
def test_schedule_for_solver_grade_radii(kappa, multiples):
    # the radii gkl_reduce has always used at its default data_tol, in
    # wavelengths: r_max = (0.03 / 1e-6)^(1/3) = 31.1, from 3 wavelengths up
    lam = 2.0 * np.pi / kappa
    sched = schedule_for(kappa, 3, 1e-6)
    assert np.array_equal(sched.radii, np.array(multiples, dtype=float) * lam)
    assert sched.tau == np.pi / (2.0 * kappa)
    assert sched.extrapolation_depth == 3


def test_schedule_for_floor_and_low_order_cap():
    # exact data counts as 1e-10: top radius (3e8)^(1/3) = 669 at order 3
    exact = schedule_for(KAPPA, 3, 0.0)
    assert np.array_equal(exact.radii, schedule_for(KAPPA, 3, 1e-12).radii)
    assert np.array_equal(exact.radii, schedule_for(KAPPA, 3, 1e-10).radii)
    assert abs(exact.radii[-1] - 669.0) <= 2.0 * np.pi / KAPPA
    # below order 3 the radii stop at 3e4 / kappa, order 0 included
    for order in (0, 1, 2):
        top = schedule_for(KAPPA, order, 0.0).radii[-1]
        assert abs(top - 3e4 / KAPPA) <= 2.0 * np.pi / KAPPA


def test_schedule_for_window_collapse():
    # (0.03 / 1e-6)^(1/9) = 3.1 is below 6 wavelengths (9.4) at kappa 4
    with pytest.raises(ValueError, match="usable radius window collapses"):
        schedule_for(4.0, 9, 1e-6)
    with pytest.raises(ValueError, match="usable radius window collapses"):
        schedule_for(4.0, 3, 1e-2)
    for bad in ((-1.0, 3, 0.0), (KAPPA, -1, 0.0), (KAPPA, 3, -1e-9)):
        with pytest.raises(ValueError):
            schedule_for(*bad)


def test_schedule_abscissas_pairing():
    sched = make_schedule(KAPPA, s0=100.0, count=3)
    absc = schedule_abscissas(sched)
    for r in sched.radii:
        assert np.any(np.abs(absc - r) < 1e-12)
        assert np.any(np.abs(absc - (r + sched.tau)) < 1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(-1.0)
    with pytest.raises(ValueError):
        make_schedule(KAPPA, growth=1.0)
    with pytest.raises(ValueError):
        make_schedule(KAPPA, count=0)
    with pytest.raises(ValueError):
        ExtractionSchedule(radii=np.array([2.0, 1.0]), tau=0.1)
    with pytest.raises(ValueError):
        ExtractionSchedule(radii=np.array([1.0, 2.0]), tau=-0.1)
    with pytest.raises(ValueError):
        ExtractionSchedule(radii=np.array([1.0, 2.0]), tau=0.1,
                           extrapolation_depth=-1)


# ---------------------------------------------------------------------------
# extract_all


def test_extract_all_zero_samples():
    sched = make_schedule(KAPPA, s0=100.0, count=5)
    absc = schedule_abscissas(sched)
    zp = ImSamples(ray=RayGeometry(origin=(0.0, 0.0), direction=(1.0, 0.0)),
                   abscissas=absc, values=np.zeros(absc.size), kappa=KAPPA)
    zm = ImSamples(ray=RayGeometry(origin=(0.0, 0.0), direction=(-1.0, 0.0)),
                   abscissas=absc, values=np.zeros(absc.size), kappa=KAPPA)
    out = extract_all(zp, zm, 2, sched)
    assert out.f_plus == [0, 0, 0]
    assert out.f_minus == [0, 0, 0]


def test_extract_all_point_source_shifted_line():
    # line {x = (s, 2)}; ray origins (±1, 2), so q = (0, 2)
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sched = make_schedule(KAPPA, s0=1e5 / 2 ** 10, growth=2.0, count=11, depth=3)
    s_absc = schedule_abscissas(sched) - 1.0
    sp = sample_im_on_ray(field, RayGeometry(origin=(1.0, 2.0),
                                             direction=(1.0, 0.0)), s_absc)
    sm = sample_im_on_ray(field, RayGeometry(origin=(-1.0, 2.0),
                                             direction=(-1.0, 0.0)), s_absc)
    out = extract_all(sp, sm, 0, sched)
    assert out.origin_shift == (0.0, 2.0)
    assert out.phi == pytest.approx(0.0)
    shifted = RadiationField(terms=(PointSource((0.3, -1.8), 1.0),), kappa=KAPPA)
    f0p = farfield_oracle(shifted, 0.0, 0)[0]
    f0m = farfield_oracle(shifted, np.pi, 0)[0]
    assert abs(out.f_plus[0] - f0p) <= 1e-6
    assert abs(out.f_minus[0] - f0m) <= 1e-6


def test_extract_all_multipole_mix():
    field = _mix_field()
    sched = make_schedule(KAPPA, s0=40.0, growth=1.7, count=10, depth=3)
    absc = schedule_abscissas(sched)
    sp = _samples_on_x(field, absc, +1)
    sm = _samples_on_x(field, absc, -1)
    out = extract_all(sp, sm, 2, sched)
    oracle_p = farfield_oracle(field, 0.0, 2)
    oracle_m = farfield_oracle(field, np.pi, 2)
    for j in range(3):
        assert abs(out.f_plus[j] - oracle_p[j]) <= 1e-4 * abs(oracle_p[j])
        assert abs(out.f_minus[j] - oracle_m[j]) <= 1e-4 * abs(oracle_m[j])


def test_extract_all_lambda_scaling():
    # scaling every I value by a real factor scales every f_j by it
    field = _mix_field()
    sched = make_schedule(KAPPA, s0=40.0, growth=1.7, count=10, depth=3)
    absc = schedule_abscissas(sched)
    sp = _samples_on_x(field, absc, +1)
    sm = _samples_on_x(field, absc, -1)
    lam = 3.7
    sp_s = ImSamples(ray=sp.ray, abscissas=sp.abscissas,
                     values=lam * sp.values, kappa=KAPPA)
    sm_s = ImSamples(ray=sm.ray, abscissas=sm.abscissas,
                     values=lam * sm.values, kappa=KAPPA)
    base = extract_all(sp, sm, 2, sched)
    scaled = extract_all(sp_s, sm_s, 2, sched)
    # later coefficients carry r^{n+1}-amplified rounding, hence looser bounds
    for tol, j in ((1e-12, 0), (1e-8, 1), (1e-4, 2)):
        num = abs(scaled.f_plus[j] - lam * base.f_plus[j])
        assert num <= tol * abs(lam * base.f_plus[j])


def test_extract_all_interval_independence():
    # two non-nested schedule windows on the same line give the same answer
    field = _mix_field()
    sched_a = make_schedule(KAPPA, s0=100.0, growth=2.0, count=7, depth=3)
    sched_b = make_schedule(KAPPA, s0=300.0, growth=1.9, count=5, depth=3)
    absc = np.unique(np.concatenate([schedule_abscissas(sched_a),
                                     schedule_abscissas(sched_b)]))
    sp = _samples_on_x(field, absc, +1)
    sm = _samples_on_x(field, absc, -1)
    out_a = extract_all(sp, sm, 1, sched_a)
    out_b = extract_all(sp, sm, 1, sched_b)
    for j in range(2):
        assert abs(out_a.f_plus[j] - out_b.f_plus[j]) <= 1e-8
        assert abs(out_a.f_minus[j] - out_b.f_minus[j]) <= 1e-8


def test_extract_all_geometry_errors():
    sched = make_schedule(KAPPA, s0=100.0, count=3)
    absc = schedule_abscissas(sched)
    field = _mix_field()
    sp = _samples_on_x(field, absc, +1)
    sm = _samples_on_x(field, absc, -1)
    # same direction instead of opposite
    with pytest.raises(ValueError):
        extract_all(sp, sp, 0, sched)
    # parallel but not collinear
    off = sample_im_on_ray(field, RayGeometry(origin=(0.0, 5.0),
                                              direction=(-1.0, 0.0)), absc)
    with pytest.raises(ValueError):
        extract_all(sp, off, 0, sched)
    # kappa mismatch
    sm2 = ImSamples(ray=sm.ray, abscissas=sm.abscissas, values=sm.values,
                    kappa=KAPPA + 1.0)
    with pytest.raises(ValueError):
        extract_all(sp, sm2, 0, sched)
    # resonant tau violates |sin(kappa tau)| >= 0.5
    bad = ExtractionSchedule(radii=sched.radii, tau=np.pi / KAPPA)
    with pytest.raises(ValueError):
        extract_all(sp, sm, 0, bad)


def test_slope_invariants():
    # raw error slope -1 +- 0.2; depth-d slope <= -(d+1) + 0.3
    field = RadiationField(terms=(Multipole(3, 1.0),), kappa=KAPPA)
    f0_true = farfield_oracle(field, 0.0, 0)[0]
    sched = make_schedule(KAPPA, s0=25.0, growth=2.0, count=8, depth=3)
    ests = [(r, extract_f0_two_point(_I_on_x(field, r),
                                     _I_on_x(field, r + TAU), r, TAU, KAPPA))
            for r in sched.radii]
    errs = np.array([abs(v - f0_true) for _, v in ests])
    slope = np.polyfit(np.log(sched.radii), np.log(errs), 1)[0]
    assert -1.2 <= slope <= -0.8
    for depth in (1, 2, 3):
        errs_d, rr = [], []
        for k in range(depth, len(ests)):
            v = extract_sequence_extrapolated(ests[:k + 1], depth)
            errs_d.append(abs(v - f0_true))
            rr.append(sched.radii[k])
        slope_d = np.polyfit(np.log(rr), np.log(errs_d), 1)[0]
        assert slope_d <= -(depth + 1) + 0.3


def _scalar_recursion(samples, n, sched):
    """The induction one radius at a time through the public one-step calls."""
    known = []
    for j in range(n + 1):
        ests = []
        for r in sched.radii:
            if j == 0:
                pair = samples.values[np.searchsorted(samples.abscissas,
                                                      [r, r + sched.tau])]
                v = extract_f0_two_point(pair[0], pair[1], r, sched.tau,
                                         samples.kappa)
            else:
                v = extract_next_coeff(samples, known, r, sched.tau)
            ests.append((r, v))
        d = min(max(sched.extrapolation_depth, n - j + 1), len(ests) - 1)
        known.append(extract_sequence_extrapolated(ests, d))
    return known


@pytest.mark.parametrize("n", range(6))
def test_extract_all_matches_scalar_recursion(n):
    # both rays start at the origin, so the frame shift leaves the samples
    # unchanged and each ray's recursion sees the same data as extract_all
    field = _mix_field()
    sched = schedule_for(KAPPA, max(n, 3), 0.0)
    absc = schedule_abscissas(sched)
    sp = _samples_on_x(field, absc, +1)
    sm = _samples_on_x(field, absc, -1)
    out = extract_all(sp, sm, n, sched)
    for got, samples in ((out.f_plus, sp), (out.f_minus, sm)):
        want = _scalar_recursion(samples, n, sched)
        scale = max(1.0, max(abs(f) for f in want))
        for j in range(n + 1):
            # the rounding r^j amplifies, as the RuntimeWarning bounds it
            tol = 100.0 * 2.22e-16 * scale * sched.radii[-1] ** j
            assert abs(got[j] - want[j]) <= tol


def test_extract_orders_batched_rows_match_single_rows():
    # gkl_reduce extracts every source at once from (k, 2, 2, R) data; each
    # row of the batch gets the bits it gets when extracted alone
    sched = schedule_for(KAPPA, 3, 1e-6)
    s = _pair_abscissas(sched.radii, sched.tau)
    fields = [_mix_field(),
              RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA),
              RadiationField(terms=(PointSource((-0.2, 0.1), 0.5 - 0.7j),
                                    Multipole(1, 0.3)), kappa=KAPPA)]
    data = np.stack([[np.sqrt(s) * eval_field(
        f, np.stack([sign * s, np.zeros(s.shape)], axis=-1)).imag
        for sign in (+1, -1)] for f in fields])
    assert data.shape == (3, 2, 2, sched.radii.size)
    batched = _extract_orders(data, 3, sched, KAPPA)
    assert batched.shape == (3, 2, 4)
    for row, got in zip(data, batched):
        one = _extract_orders(row, 3, sched, KAPPA)
        assert np.array_equal(got.view(np.uint64), one.view(np.uint64))


def _zero_pair(sched):
    absc = schedule_abscissas(sched)
    return [ImSamples(ray=RayGeometry(origin=(0.0, 0.0), direction=(d, 0.0)),
                      abscissas=absc, values=np.zeros(absc.size), kappa=KAPPA)
            for d in (1.0, -1.0)]


def test_extract_all_warns_once_per_crossing_step():
    # top radius ~1e4: 2.22e-16 r^j passes 0.1 from j = 4 on, for the
    # steps that compute f_4 and f_5, whatever the number of radii
    sched = make_schedule(KAPPA, s0=1e4 / 2 ** 5, growth=2.0, count=6)
    assert 2.22e-16 * sched.radii[-1] ** 3 < 0.1 < 2.22e-16 * sched.radii[-1] ** 4
    zp, zm = _zero_pair(sched)
    for n, expected in ((3, 0), (5, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            extract_all(zp, zm, n, sched)
        hits = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(hits) == expected


def test_extract_all_names_missing_abscissa():
    sched = make_schedule(KAPPA, s0=100.0, count=4)
    zp, zm = _zero_pair(sched)
    missing = sched.radii[2] + sched.tau
    keep = np.abs(zm.abscissas - missing) > 1e-6
    holed = ImSamples(ray=zm.ray, abscissas=zm.abscissas[keep],
                      values=zm.values[keep], kappa=KAPPA)
    with pytest.raises(ValueError,
                       match=rf"required abscissa {float(missing)!r} not present"):
        extract_all(zp, holed, 2, sched)


# Values of the same computations before the extraction was batched over
# radii and rays; the batched two-point solves change only the last bits,
# which the r^j weights amplify. FROZEN_RECON is taken on schedule_for's
# exact-data radii (top radius 669); its errors against eval_field are
# 6.0e-4, 5.9e-5 and 3.4e-4.
FROZEN_RECON = [0.03065296429901254 + 0.039048391594143576j,
                -0.051823953370332417 + 0.05787332151012893j,
                0.033092211368360124 - 0.0016862103335365973j]
FROZEN_GKL = [[np.nan, -0.05654663033936316 - 0.01066371353480365j,
               -0.03864293882578211 + 0.01541074081696819j],
              [-0.05654675077995832 - 0.010663710288305216j, np.nan,
               -0.05611556177165326 - 0.01062452170790015j],
              [-0.03864293900389154 + 0.015410739175914855j,
               -0.05611546204287373 - 0.01062452776466703j, np.nan]]


def test_reconstruct_and_gkl_match_frozen_values():
    lam = 2.0 * np.pi / KAPPA
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),
                                  Multipole(2, 0.4 - 0.2j)), kappa=KAPPA)
    sched = schedule_for(KAPPA, 3, 0.0)
    absc = np.unique(np.concatenate([np.arange(lam / 24, 80.0, lam / 12),
                                     schedule_abscissas(sched)]))
    sp, sm = (sample_im_on_ray(field, RayGeometry(origin=(0.0, -2.0),
                                                  direction=(d, 0.0)), absc)
              for d in (1.0, -1.0))
    line = LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0))
    spec = HalfPlaneSpec(line=line, normal=(0.0, 1.0))
    targets = [np.array([0.5, -4.0]), np.array([3.0, -6.0]),
               np.array([-2.0, -9.0])]
    got = reconstruct_from_im(sp, sm, 3, spec, targets)
    np.testing.assert_allclose(got, FROZEN_RECON, rtol=1e-6, atol=0)

    xs = -0.5 + (np.arange(8) + 0.5) / 8
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    v = 4.0 * np.exp(-((gx - 0.05) ** 2 + (gy + 0.08) ** 2) / (2 * 0.16 ** 2))
    grid = PotentialGrid(bbox=(-0.5, -0.5, 0.5, 0.5), n=8, v=v, kappa=4.0)
    rep = gkl_reduce(grid, line, (-3.0, 3.0), order=3, n_points=3)
    np.testing.assert_allclose(rep.recovered, FROZEN_GKL, rtol=1e-6, atol=0)


# ---------------------------------------------------------------------------
# extract_least_squares


def test_least_squares_zero():
    s = np.linspace(100.0, 200.0, 40)
    samples = ImSamples(ray=_ray_x(), abscissas=s, values=np.zeros(40),
                        kappa=KAPPA)
    out = extract_least_squares(samples, 1)
    assert all(abs(f) <= 1e-14 for f in out)


def test_least_squares_matches_extract_all():
    field = _mix_field()
    sched = make_schedule(KAPPA, s0=40.0, growth=1.7, count=10, depth=3)
    absc = schedule_abscissas(sched)
    out = extract_all(_samples_on_x(field, absc, +1),
                      _samples_on_x(field, absc, -1), 2, sched)
    dense = _samples_on_x(field, np.linspace(1e3, 1e4, 400), +1)
    ls = extract_least_squares(dense, 2)
    for j in range(3):
        assert abs(ls[j] - out.f_plus[j]) <= 1e-4


def test_least_squares_noise():
    field = RadiationField(terms=(Multipole(0, 1.0),), kappa=KAPPA)
    s = np.linspace(1e3, 1e4, 200)
    samples = sample_im_on_ray(field, _ray_x(), s, noise_sigma=1e-6, seed=0)
    out = extract_least_squares(samples, 0)
    assert abs(out[0] - 1.0) <= 1e-4


def test_least_squares_validation():
    s_few = np.linspace(100.0, 200.0, 5)
    few = ImSamples(ray=_ray_x(), abscissas=s_few, values=np.zeros(5),
                    kappa=KAPPA)
    with pytest.raises(ValueError):
        extract_least_squares(few, 1)
    s_short = np.linspace(100.0, 100.5, 40)  # span < one wavelength
    short = ImSamples(ray=_ray_x(), abscissas=s_short, values=np.zeros(40),
                      kappa=KAPPA)
    with pytest.raises(ValueError):
        extract_least_squares(short, 1)
    s_ok = np.linspace(1e3, 1e4, 60)
    ok = ImSamples(ray=_ray_x(), abscissas=s_ok, values=np.zeros(60),
                   kappa=KAPPA)
    with pytest.raises(ValueError):
        extract_least_squares(ok, 0, model_order=14)  # rank-deficient design


# ---------------------------------------------------------------------------
# serialization and container validation


def test_farfield_json_round_trip():
    c = FarFieldCoeffs(kappa=KAPPA, phi=0.25, f_plus=[1 + 2j, 0.5j],
                       f_minus=[1 - 2j, -0.5j], origin_shift=(0.0, 2.0))
    d = farfield_to_dict(c)
    back = farfield_from_dict(d)
    assert back.kappa == c.kappa
    assert back.phi == c.phi
    assert back.f_plus == c.f_plus
    assert back.f_minus == c.f_minus
    assert back.origin_shift == c.origin_shift
    import json

    json.dumps(d)  # must be JSON-ready as-is


def test_farfield_defaults_and_validation():
    c = FarFieldCoeffs(kappa=1.0, phi=0.0, f_plus=[1.0], f_minus=[2.0])
    assert c.origin_shift == (0.0, 0.0)
    assert c.order == 0
    with pytest.raises(ValueError):
        FarFieldCoeffs(kappa=1.0, phi=0.0, f_plus=[1.0], f_minus=[1.0, 2.0])
    with pytest.raises(ValueError):
        FarFieldCoeffs(kappa=-1.0, phi=0.0, f_plus=[1.0], f_minus=[1.0])
    with pytest.raises(ValueError):
        FarFieldCoeffs(kappa=1.0, phi=0.0, f_plus=[1.0], f_minus=[1.0],
                       origin_shift=(1.0, 2.0, 3.0))
