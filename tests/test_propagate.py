"""Tests for half-plane propagation and the end-to-end reconstruction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imfield.farfield as farfield_mod
import imfield.karp as karp_mod
import imfield.propagate as propagate_mod
import imfield.specfun as specfun
from imfield import (
    HalfPlaneSpec,
    ImSamples,
    KarpCoeffs,
    LineSpec,
    LineTrace,
    Multipole,
    PointSource,
    RadiationField,
    RayGeometry,
    eval_field,
    extract_all,
    green_kernel_normal,
    hankel1,
    karp_from_farfield,
    karp_line_trace,
    propagate_halfplane,
    reconstruct_from_im,
    sample_im_on_ray,
    schedule_abscissas,
    schedule_for,
)
from imfield.propagate import _karp_line_traces, _trusted_radius
from imfield.specfun import _hankel01, _outgoing_design

KAPPA = 5.0
LAM = 2.0 * np.pi / KAPPA

SPEC = HalfPlaneSpec(line=LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0)),
                     normal=(0.0, 1.0))


def _line_trace_fn(field):
    def fn(s):
        s = np.asarray(s, dtype=float)
        pts = np.stack([s, np.full(s.shape, -2.0)], axis=-1)
        return eval_field(field, pts)
    return fn


def _gap_data(field, bound=80.0):
    """Dense Im(psi) data on the line y = -2 for the completion fit."""
    xs = np.arange(-bound, bound + LAM / 24, LAM / 12)
    pts = np.stack([xs, np.full(xs.shape, -2.0)], axis=-1)
    return pts, eval_field(field, pts).imag


def _scenario_samples(field, order):
    """Two-ray samples from (0,-2): extraction radii plus dense gap coverage."""
    sched = schedule_for(KAPPA, order, 0.0)
    dense = np.arange(LAM / 24, 80.0, LAM / 12)
    s_absc = np.unique(np.concatenate([dense, schedule_abscissas(sched)]))
    out = []
    for d in ((1.0, 0.0), (-1.0, 0.0)):
        ray = RayGeometry(origin=(0.0, -2.0), direction=d)
        pts = np.array([0.0, -2.0]) + s_absc[:, None] * np.asarray(d)
        vals = np.sqrt(np.hypot(pts[:, 0], pts[:, 1])) * eval_field(field, pts).imag
        out.append(ImSamples(ray=ray, abscissas=s_absc, values=vals, kappa=KAPPA))
    return out[0], out[1], sched


# ---------------------------------------------------------------- geometry


def test_linespec_validation():
    with pytest.raises(ValueError):
        LineSpec(point=(0.0, 0.0), theta=(1.0, 1.0))  # not unit
    with pytest.raises(ValueError):
        LineSpec(point=(0.0, 0.0, 0.0), theta=(1.0, 0.0))


def test_halfplane_validation_and_offset():
    line = LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0))
    with pytest.raises(ValueError):
        HalfPlaneSpec(line=line, normal=(1.0, 0.0))  # parallel to theta
    with pytest.raises(ValueError):
        HalfPlaneSpec(line=line, normal=(0.0, 2.0))  # not unit
    spec = HalfPlaneSpec(line=line, normal=(0.0, 1.0))
    assert spec.signed_offset((7.0, -2.0)) == 0.0
    assert spec.signed_offset((0.0, 0.0)) == pytest.approx(2.0)
    assert spec.signed_offset((0.0, -5.0)) == pytest.approx(-3.0)  # inside V_L


def test_linetrace_validation():
    fn = lambda s: np.zeros(np.shape(s), dtype=complex)
    with pytest.raises(ValueError):
        LineTrace(S=-1.0, func=fn)
    with pytest.raises(TypeError):
        LineTrace(S=1.0)  # no provider


# ------------------------------------------------------------------ kernel


def test_kernel_orthogonal_is_zero():
    x = np.array([1.0, 3.0])
    y = np.array([1.0, 0.0])  # x - y along +e2
    assert green_kernel_normal(x, y, (1.0, 0.0), KAPPA) == 0.0


def test_kernel_asymptotic_amplitude():
    # |kernel| ~ (kappa/4) sqrt(2/(pi kappa d)) |cos angle| for large kappa*d
    d = 100.0 / KAPPA
    for ang in (0.0, 0.4, 1.1):
        x = np.array([d * np.cos(ang), d * np.sin(ang)])
        got = abs(green_kernel_normal(x, np.zeros(2), (1.0, 0.0), KAPPA))
        ref = (KAPPA / 4.0) * np.sqrt(2.0 / (np.pi * 100.0)) * abs(np.cos(ang))
        assert abs(got - ref) <= 0.01 * ref


def test_kernel_finite_difference():
    # central difference of G(x - y) = (i/4) H_0(kappa |x - y|) in y along nu
    from imfield import hankel1

    def G(v):
        return 0.25j * hankel1(0, KAPPA * np.hypot(v[0], v[1]))

    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-3, 3, 2)
        y = rng.uniform(-3, 3, 2)
        if np.hypot(*(x - y)) < 0.5:
            y = y - 2.0
        ang = rng.uniform(0, 2 * np.pi)
        nu = np.array([np.cos(ang), np.sin(ang)])
        fd = (G(x - (y + h * nu)) - G(x - (y - h * nu))) / (2 * h)
        got = green_kernel_normal(x, y, nu, KAPPA)
        assert abs(got - fd) <= 1e-6 * max(abs(got), 1e-3)


def test_kernel_batch_and_errors():
    x = np.array([0.0, 1.0])
    ys = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, -1.0]])
    out = green_kernel_normal(x, ys, (0.0, 1.0), KAPPA)
    assert out.shape == (3,)
    single = green_kernel_normal(x, ys[1], (0.0, 1.0), KAPPA)
    assert out[1] == single
    with pytest.raises(ValueError):
        green_kernel_normal(x, x, (0.0, 1.0), KAPPA)
    with pytest.raises(ValueError):
        green_kernel_normal(x, ys[0], (0.0, 1.0), 0.0)


# ------------------------------------------------------------- propagation


def test_propagate_zero_trace():
    tr = LineTrace(S=50 * LAM, func=lambda s: np.zeros(np.shape(s), dtype=complex))
    x = np.array([0.3, -2.0 - 2 * LAM])
    assert propagate_halfplane(tr, SPEC, x, KAPPA) == 0.0


def test_propagate_point_source_reproduction():
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    tr = LineTrace(S=200 * LAM, panels_per_wavelength=10, func=_line_trace_fn(ps))
    x = np.array([0.5, -2.0 - 2 * LAM])
    got = propagate_halfplane(tr, SPEC, x, KAPPA)
    ref = complex(eval_field(ps, x))
    assert abs(got - ref) <= 1e-3 * abs(ref)


def test_propagate_converges_in_S_and_density():
    # the window makes the truncation error fall super-algebraically in S
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    fn = _line_trace_fn(ps)
    x = np.array([0.5, -2.0 - 2 * LAM])
    ref = complex(eval_field(ps, x))
    errs_S = []
    for S in (25 * LAM, 50 * LAM):
        tr = LineTrace(S=S, panels_per_wavelength=10, func=fn)
        errs_S.append(abs(propagate_halfplane(tr, SPEC, x, KAPPA) - ref))
    assert errs_S[1] <= 1e-12 * abs(ref)
    assert errs_S[1] < errs_S[0]
    errs_p = []
    for ppw in (1, 10):
        tr = LineTrace(S=50 * LAM, panels_per_wavelength=ppw, func=fn)
        errs_p.append(abs(propagate_halfplane(tr, SPEC, x, KAPPA) - ref))
    assert errs_p[1] < errs_p[0] / 3
    assert errs_p[1] <= 1e-12 * abs(ref)


def _random_mix(rng, kappa):
    """One to three point sources and multipoles about the origin."""
    terms = []
    for _ in range(rng.integers(1, 4)):
        if rng.random() < 0.5:
            y0 = rng.uniform(-0.5, 0.5, 2)
            terms.append(PointSource((y0[0], y0[1]),
                                     complex(*rng.normal(0, 1, 2))))
        else:
            terms.append(Multipole(int(rng.integers(0, 4)),
                                   complex(*rng.normal(0, 1, 2))))
    return RadiationField(terms=tuple(terms), kappa=kappa)


@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(3.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
def test_windowed_propagation_reproduces_random_fields(kappa, seed):
    rng = np.random.default_rng(seed)
    lam = 2.0 * np.pi / kappa
    fld = _random_mix(rng, kappa)

    def fn(s):
        s = np.asarray(s, dtype=float)
        return eval_field(fld, np.stack([s, np.full(s.shape, -2.0)], axis=-1))

    tr = LineTrace(S=50 * lam, func=fn)
    xs = np.stack([rng.uniform(-8.0, 8.0, 4),
                   -2.0 - rng.uniform(0.3 * lam + 0.2, 6.0, 4)], axis=-1)
    ref = eval_field(fld, xs)
    got = np.array([propagate_halfplane(tr, SPEC, x, kappa) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_propagate_linearity_in_trace():
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    fn = _line_trace_fn(ps)
    lam_c = 2.0 - 3.0j
    tr1 = LineTrace(S=50 * LAM, func=fn)
    tr2 = LineTrace(S=50 * LAM, func=lambda s: lam_c * fn(s))
    x = np.array([-1.0, -2.0 - 3 * LAM])
    v1 = propagate_halfplane(tr1, SPEC, x, KAPPA)
    v2 = propagate_halfplane(tr2, SPEC, x, KAPPA)
    assert abs(v2 - lam_c * v1) <= 1e-14 * abs(v2)


def test_propagate_window_estimate_tracks_true_error():
    # the window-difference estimate bounds the true error without being
    # vacuous, at half-lengths where the window error is and is not at
    # rounding level
    rng = np.random.default_rng(7)
    held = 0
    n_tot = 0
    for _ in range(20):
        fld = _random_mix(rng, KAPPA)
        fn = _line_trace_fn(fld)
        x = np.array([rng.uniform(-8, 8), -2.0 - rng.uniform(0.5 * LAM, 8 * LAM)])
        ref = complex(eval_field(fld, x))
        for S in (25 * LAM, 35 * LAM, 50 * LAM):
            tr = LineTrace(S=S, panels_per_wavelength=10, func=fn)
            v, info = propagate_halfplane(tr, SPEC, x, KAPPA, full_output=True)
            err = abs(v - ref)
            est = info["quad_error_estimate"]
            assert info["tail_bound"] <= est
            assert est <= 1e3 * max(err, 1e-15 * abs(ref))
            held += err <= est
            n_tot += 1
    assert held >= 0.95 * n_tot


@pytest.mark.parametrize("kappa", [3.0, 8.0])
def test_propagate_window_estimate_floors_at_rounding(kappa):
    # at S = 100 wavelengths both windows sit at rounding level and their
    # difference alone reads far below the error; the dot product's own
    # rounding floors the estimate, for full_output and for tol alike
    lam = 2.0 * np.pi / kappa
    fld = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),
                                Multipole(2, 0.5 + 0.3j)), kappa=kappa)
    tr = LineTrace(S=100 * lam, func=_line_trace_fn(fld))
    for along in (25.0, 26.0, 27.0):
        for depth in (0.5, 2.0):
            x = np.array([along * lam, -2.0 - depth * lam])
            v, info = propagate_halfplane(tr, SPEC, x, kappa, full_output=True)
            err = abs(v - complex(eval_field(fld, x)))
            assert info["tail_bound"] == info["quad_error_estimate"] >= err
            with pytest.raises(ValueError, match="window error estimate"):
                propagate_halfplane(tr, SPEC, x, kappa,
                                    tol=0.5 * info["tail_bound"])


def test_propagate_estimate_only_for_full_output_or_tol(monkeypatch):
    # the check-window dot product runs only when an estimate is asked for
    calls = []
    quad = propagate_mod._quadrature

    def counting(*args):
        calls.append(args[-1])
        return quad(*args)

    monkeypatch.setattr(propagate_mod, "_quadrature", counting)
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    tr = LineTrace(S=50 * LAM, func=_line_trace_fn(ps))
    x = np.array([0.5, -4.0])
    v = propagate_halfplane(tr, SPEC, x, KAPPA)
    assert calls == [False]
    v_full, info = propagate_halfplane(tr, SPEC, x, KAPPA, full_output=True)
    assert calls == [False, True]
    assert v_full == v and info["quad_error_estimate"] > 0
    assert propagate_halfplane(tr, SPEC, x, KAPPA, tol=1e-10) == v
    assert calls == [False, True, True]


def test_propagate_proximity_and_coverage_errors():
    tr = LineTrace(S=50 * LAM, func=lambda s: np.ones(np.shape(s), dtype=complex))
    with pytest.raises(ValueError):
        propagate_halfplane(tr, SPEC, np.array([0.0, -2.05]), KAPPA)
    with pytest.raises(ValueError):  # wrong side of the line
        propagate_halfplane(tr, SPEC, np.array([0.0, 0.0]), KAPPA)
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    short = LineTrace(S=5 * LAM, func=_line_trace_fn(ps))
    with pytest.raises(ValueError):
        propagate_halfplane(short, SPEC, np.array([0.5, -2.0 - 2 * LAM]),
                            KAPPA, tol=1e-10)


# -------------------------------------------------------------- karp trace


def test_karp_line_trace_accuracy():
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sp, sm, sched = _scenario_samples(ps, 3)
    kc = karp_from_farfield(extract_all(sp, sm, 3, sched))
    pts, imv = _gap_data(ps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = karp_line_trace(kc, SPEC, 200 * LAM, im_points=pts, im_values=imv)
    s = np.linspace(-150.0, 150.0, 4001)
    got = trace.psi(s)
    ref = _line_trace_fn(ps)(s)
    assert np.max(np.abs(got - ref)) <= 3e-3 * np.max(np.abs(ref))


@pytest.mark.parametrize("kappa", [2.0, 3.0, 8.0])
def test_gap_design_columns_match_per_order_hankel(kappa):
    s = np.linspace(-400.0, 400.0, 2001)
    pts = np.stack([s, np.full(s.shape, -1.55)], axis=-1)
    got = _outgoing_design(pts, (0.0, 0.0), kappa, 5)
    r = np.hypot(pts[:, 0], pts[:, 1])
    ph = np.arctan2(pts[:, 1], pts[:, 0])
    for j, m in enumerate(range(-5, 6)):
        ref = hankel1(abs(m), kappa * r) * np.exp(1j * m * ph)
        assert np.max(np.abs(got[:, j] - ref) / np.abs(ref)) <= 1e-13


def test_gap_design_evaluates_one_hankel_pair(monkeypatch):
    # one _hankel01 call gives H_0 and H_1; no per-order hankel1 call
    calls = []

    def counting(m, x):
        calls.append(m)
        return hankel1(m, x)

    def counting_pair(x):
        calls.append("pair")
        return _hankel01(x)

    monkeypatch.setattr(specfun, "hankel1", counting)
    monkeypatch.setattr(specfun, "_hankel01", counting_pair)
    pts = np.array([[-3.0, -1.55], [0.5, -1.55], [40.0, -1.55]])
    _outgoing_design(pts, (0.0, 0.0), 2.0, 5)
    assert calls == ["pair"]


def test_multi_series_traces_share_the_widest_gap(monkeypatch):
    # three sources seen through one ray pair, trusted beyond 68.4, 62.5
    # and 41.9, plus a zero series: every series takes the widest gap and
    # one gap fit completes them all, the widest series as its own
    # karp_line_trace does; the series must share one frame
    fields = [RadiationField(terms=(PointSource(y0, c),), kappa=KAPPA)
              for y0, c in (((0.3, 0.2), 1.0), ((-0.2, 0.1), 0.5 - 0.7j),
                            ((0.0, -0.3), 2.0j))]
    kcs = []
    for f in fields:
        sp, sm, sched = _scenario_samples(f, 3)
        kcs.append(karp_from_farfield(extract_all(sp, sm, 3, sched)))
    assert np.argmax([_trusted_radius(kc) for kc in kcs]) == 0
    kcs.append(KarpCoeffs(kappa=KAPPA, phi=kcs[0].phi, F=[0.0] * 4,
                          G=[0.0] * 4, origin_shift=kcs[0].origin_shift))
    pts, _ = _gap_data(fields[0])
    vals = np.stack([_gap_data(f)[1] for f in fields]
                    + [np.zeros(pts.shape[0])], axis=1)
    s = np.linspace(-150.0, 150.0, 4001)
    fits, pairs = [], []
    real = propagate_mod._im_fit

    def counting(*args):
        fits.append(args[1].shape)
        return real(*args)

    def counting_pair(x):
        pairs.append(np.shape(x))
        return _hankel01(x)

    monkeypatch.setattr(propagate_mod, "_im_fit", counting)
    monkeypatch.setattr(karp_mod, "_hankel01", counting_pair)
    # the frame sits at the line point with phi = 0: the gap data's
    # Karp-frame abscissas are the points' x coordinates
    xi = pts[:, 0]
    got = _karp_line_traces(kcs, SPEC, xi, vals)(s)
    # one fit over the Im rows in the gap (1,307 here), one column per series
    gap_rows = np.count_nonzero(np.abs(xi) <= _trusted_radius(kcs[0]))
    assert fits == [(gap_rows, 4)]
    # the Karp sums of all four series take one H_0, H_1 pass per point
    # set: the flank bands, then the evaluation points outside the gap
    outside = np.abs(s) >= _trusted_radius(kcs[0])  # q = line.point
    assert pairs == [(160, 1), (np.count_nonzero(outside), 1)]
    assert got.shape == (s.size, 4)
    one = karp_line_trace(kcs[0], SPEC, 200 * LAM, im_points=pts,
                          im_values=vals[:, 0]).psi(s)
    assert np.max(np.abs(got[:, 0] - one)) <= 1e-13 * np.max(np.abs(one))
    for j, f in enumerate(fields):
        ref = _line_trace_fn(f)(s)
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-3 * np.max(np.abs(ref))
    assert np.all(got[:, 3] == 0.0)
    bad = vals.copy()
    bad[:, 1] *= 3.0
    with pytest.raises(RuntimeError, match="inconsistent"):
        _karp_line_traces(kcs, SPEC, xi, bad)
    other = KarpCoeffs(kappa=KAPPA, phi=kcs[0].phi, F=kcs[0].F[:3],
                       G=kcs[0].G[:3], origin_shift=kcs[0].origin_shift)
    with pytest.raises(ValueError):  # series of another order
        _karp_line_traces([kcs[0], other], SPEC, xi, vals[:, :2])
    with pytest.raises(ValueError, match="does not run along"):
        _karp_line_traces(kcs, HalfPlaneSpec(
            line=LineSpec(point=(0.0, -2.0), theta=(0.6, -0.8)),
            normal=(0.8, 0.6)), xi, vals)


def test_karp_line_trace_zero_field():
    kc = KarpCoeffs(kappa=KAPPA, phi=0.0, F=[0.0, 0.0], G=[0.0, 0.0],
                    origin_shift=(0.0, -2.0))
    trace = karp_line_trace(kc, SPEC, 50 * LAM)
    assert np.all(trace.psi(np.linspace(-40, 40, 17)) == 0.0)


def test_karp_line_trace_flags_inconsistent_data():
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sp, sm, sched = _scenario_samples(ps, 3)
    kc = karp_from_farfield(extract_all(sp, sm, 3, sched))
    pts, imv = _gap_data(ps)
    with pytest.raises(RuntimeError):
        karp_line_trace(kc, SPEC, 200 * LAM, im_points=pts, im_values=3.0 * imv)


def test_karp_line_trace_validation():
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sp, sm, sched = _scenario_samples(ps, 3)
    kc = karp_from_farfield(extract_all(sp, sm, 3, sched))
    pts, imv = _gap_data(ps)
    off = KarpCoeffs(kappa=KAPPA, phi=kc.phi, F=kc.F, G=kc.G,
                     origin_shift=(0.0, 0.0))
    with pytest.raises(ValueError):
        karp_line_trace(off, SPEC, 200 * LAM, im_points=pts, im_values=imv)
    with pytest.raises(ValueError):  # gap data is mandatory
        karp_line_trace(kc, SPEC, 200 * LAM)
    with pytest.raises(ValueError, match="lie on spec.line"):
        karp_line_trace(kc, SPEC, 200 * LAM, im_points=pts + [0.0, 0.1],
                        im_values=imv)
    with pytest.raises(ValueError):  # too sparse for the gap
        karp_line_trace(kc, SPEC, 200 * LAM, im_points=pts[::4],
                        im_values=imv[::4])
    with pytest.raises(ValueError):  # multipole center on the line
        karp_line_trace(kc, SPEC, 200 * LAM, im_points=pts, im_values=imv,
                        gap_center=(1.0, -2.0))
    with pytest.raises(RuntimeError):  # trusted band beyond the half-length
        karp_line_trace(kc, SPEC, 30 * LAM, im_points=pts, im_values=imv)
    lead0 = KarpCoeffs(kappa=KAPPA, phi=0.0, F=[1.0 + 0j], G=[0.0],
                       origin_shift=(0.0, -2.0))
    with pytest.raises(ValueError):  # order 0 cannot bound its truncation
        karp_line_trace(lead0, SPEC, 200 * LAM, im_points=pts, im_values=imv)


# ------------------------------------------------------------ end to end


def test_reconstruct_zero_samples():
    s_absc = np.unique(np.concatenate(
        [np.arange(LAM / 24, 80.0, LAM / 12),
         schedule_abscissas(schedule_for(KAPPA, 2, 0.0))]))
    zeros = np.zeros(s_absc.size)
    sp = ImSamples(ray=RayGeometry(origin=(0.0, -2.0), direction=(1.0, 0.0)),
                   abscissas=s_absc, values=zeros, kappa=KAPPA)
    sm = ImSamples(ray=RayGeometry(origin=(0.0, -2.0), direction=(-1.0, 0.0)),
                   abscissas=s_absc, values=zeros, kappa=KAPPA)
    targets = [np.array([0.5, -4.0]), np.array([-3.0, -9.0])]
    got = reconstruct_from_im(sp, sm, 2, SPEC, targets)
    assert got == [0.0, 0.0]


def test_reconstruct_point_source_scenario():
    # kappa = 5, source at (0.3, 0.2), data on y = -2, targets in y < -2
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sp, sm, _ = _scenario_samples(ps, 3)
    targets = [np.array([0.5, -4.0]), np.array([3.0, -6.0]),
               np.array([-5.0, -8.0]), np.array([10.0, -4.0]),
               np.array([0.0, -12.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reconstruct_from_im(sp, sm, 3, SPEC, targets)
    for x, g in zip(targets, got):
        ref = complex(eval_field(ps, x))
        assert abs(g - ref) <= 1e-2 * abs(ref), f"target {x}"


def test_reconstruct_default_schedule_follows_noise():
    # the samples hold only the sigma = 1e-9 schedule (top radius 311) next
    # to the dense 80 units, so the exact-data schedule (top radius 669)
    # would miss its abscissas: the default must come from noise_sigma
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    s_absc = np.unique(np.concatenate(
        [np.arange(LAM / 24, 80.0, LAM / 12),
         schedule_abscissas(schedule_for(KAPPA, 3, 1e-9))]))
    sp, sm = (sample_im_on_ray(ps, RayGeometry(origin=(0.0, -2.0),
                                               direction=(d, 0.0)),
                               s_absc, 1e-9 if d > 0 else 1e-12, 3)
              for d in (1.0, -1.0))
    target = np.array([0.5, -4.0])
    got, = reconstruct_from_im(sp, sm, 3, SPEC, [target])
    ref = complex(eval_field(ps, target))
    assert abs(got - ref) <= 1e-2 * abs(ref)


def test_reconstruct_two_multipole_scenario():
    mix = RadiationField(terms=(Multipole(0, 1.0), Multipole(1, 0.5j)),
                         kappa=KAPPA)
    sp, sm, _ = _scenario_samples(mix, 3)
    targets = [np.array([0.5, -4.0]), np.array([3.0, -6.0]),
               np.array([-5.0, -8.0]), np.array([10.0, -4.0]),
               np.array([0.0, -12.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reconstruct_from_im(sp, sm, 3, SPEC, targets)
    for x, g in zip(targets, got):
        ref = complex(eval_field(mix, x))
        assert abs(g - ref) <= 1e-2 * abs(ref), f"target {x}"


def _reconstruct_keeping_trace(monkeypatch, targets):
    """reconstruct_from_im on the point-source scenario, plus its trace."""
    traces = []
    propagate = propagate_mod.propagate_halfplane

    def keeping(trace, *args, **kwargs):
        traces.append(trace)
        return propagate(trace, *args, **kwargs)

    monkeypatch.setattr(propagate_mod, "propagate_halfplane", keeping)
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sp, sm, _ = _scenario_samples(ps, 3)
    got = reconstruct_from_im(sp, sm, 3, SPEC, targets)
    return got, traces[0]


TRACE_TARGETS = [np.array([0.5, -4.0]), np.array([3.0, -6.0]),
                 np.array([-5.0, -8.0]), np.array([10.0, -4.0])]


def test_reconstruct_evaluates_trace_once(monkeypatch):
    sizes = []
    psi = LineTrace.psi

    def counting(self, s):
        sizes.append(np.size(s))
        return psi(self, s)

    monkeypatch.setattr(LineTrace, "psi", counting)
    _, trace = _reconstruct_keeping_trace(monkeypatch, TRACE_TARGETS)
    # S: the trusted radius plus 12 wavelengths past the Karp origin, which
    # sits at the line point here, at least 50 wavelengths, and wide enough
    # that the farthest target foot (10) sits 5 wavelengths inside the
    # window's flat part |s| <= 0.3 S
    sp, sm, sched = _scenario_samples(
        RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA), 3)
    kc = karp_from_farfield(extract_all(sp, sm, 3, sched))
    assert trace.S == max(50 * LAM, _trusted_radius(kc) + 12 * LAM,
                          (10.0 + 5 * LAM) / 0.3)
    # 10 panels of 6 nodes per wavelength over [-S, S]
    assert sizes == [6 * int(np.ceil(20 * trace.S / LAM))]


def test_reconstruct_widens_trace_for_far_targets(monkeypatch):
    # a target 40 wavelengths along the line lies outside the flat part of
    # a 50-wavelength window; S grows so that it is reconstructed as well
    # as the near ones
    far = np.array([40 * LAM, -4.0])
    got, trace = _reconstruct_keeping_trace(monkeypatch, [TRACE_TARGETS[0], far])
    assert trace.S == pytest.approx((40 * LAM + 5 * LAM) / 0.3)
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    ref = eval_field(ps, np.array([TRACE_TARGETS[0], far]))
    assert abs(got[1] - ref[1]) <= 1e-2 * abs(ref[1])
    _, info = propagate_halfplane(trace, SPEC, far, KAPPA, full_output=True)
    assert info["tail_bound"] <= 1e-10 * abs(ref[1])


def test_memoised_trace_matches_fresh_traces(monkeypatch):
    got, trace = _reconstruct_keeping_trace(monkeypatch, TRACE_TARGETS)
    for x, g in zip(TRACE_TARGETS, got):
        fresh = LineTrace(S=trace.S, func=trace.func)
        assert propagate_halfplane(fresh, SPEC, x, KAPPA) == g
        v, info = propagate_halfplane(trace, SPEC, x, KAPPA, full_output=True)
        assert v == g and info["quad_error_estimate"] > 0


def test_reconstruct_converts_and_extracts_once(monkeypatch):
    # the ray pair becomes line data once, which feeds both the extraction
    # (one batched pass over both sides) and the gap fit
    calls = []
    line_data = propagate_mod._line_data
    orders = farfield_mod._extract_orders

    def counting_line_data(*args):
        calls.append("line_data")
        return line_data(*args)

    def counting_orders(data, *args):
        calls.append(("orders", data.shape))
        return orders(data, *args)

    monkeypatch.setattr(propagate_mod, "_line_data", counting_line_data)
    monkeypatch.setattr(farfield_mod, "_extract_orders", counting_orders)
    got, _ = _reconstruct_keeping_trace(monkeypatch, TRACE_TARGETS)
    radii = schedule_for(KAPPA, 3, 0.0).radii.size
    assert calls == ["line_data", ("orders", (1, 2, 2, radii))]
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    ref = eval_field(ps, np.array(TRACE_TARGETS))
    assert np.max(np.abs(np.array(got) - ref)) <= 1e-2 * np.max(np.abs(ref))


def test_reconstruct_ray_relabeling_reciprocity():
    mix = RadiationField(terms=(Multipole(0, 1.0), Multipole(1, 0.5j)),
                         kappa=KAPPA)
    sp, sm, _ = _scenario_samples(mix, 3)
    targets = [np.array([0.5, -4.0]), np.array([0.0, -12.0])]
    got = reconstruct_from_im(sp, sm, 3, SPEC, targets)
    flipped = HalfPlaneSpec(line=LineSpec(point=(0.0, -2.0), theta=(-1.0, 0.0)),
                            normal=(0.0, 1.0))
    got2 = reconstruct_from_im(sm, sp, 3, flipped, targets)
    for a, b in zip(got2, got):
        assert abs(a - b) <= 1e-8 * abs(b)


def _moved_reconstruction(field, order, move, targets):
    """reconstruct_from_im after the linear isometry move acts on everything.

    Returns the reconstruction at the moved targets.
    """
    terms = tuple(PointSource(tuple(move @ np.asarray(t.y0)), t.c)
                  for t in field.terms)
    moved = RadiationField(terms=terms, kappa=field.kappa)
    p0, theta = move @ np.array([0.0, -2.0]), move @ np.array([1.0, 0.0])
    spec = HalfPlaneSpec(line=LineSpec(point=tuple(p0), theta=tuple(theta)),
                         normal=tuple(move @ np.array([0.0, 1.0])))
    sched = schedule_for(KAPPA, order, 0.0)
    dense = np.arange(LAM / 24, 80.0, LAM / 12)
    absc = np.unique(np.concatenate([dense, schedule_abscissas(sched)]))
    sp, sm = (sample_im_on_ray(moved, RayGeometry(origin=tuple(p0),
                                                  direction=tuple(sgn * theta)),
                               absc)
              for sgn in (1.0, -1.0))
    xs = [move @ x for x in targets]
    return np.array(reconstruct_from_im(sp, sm, order, spec, xs))


@settings(max_examples=8, deadline=None)
@given(angle=st.floats(0.0, 2.0 * np.pi), reflect=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reconstruct_rigid_motion_equivariance(angle, reflect, seed):
    # rotating (or reflecting) field, line and targets about the origin
    # moves the reconstruction with them. The samples of the two frames
    # differ by rounding, which the extraction amplifies by r^j to the
    # level of the reconstruction error itself, so the two can differ by
    # more than the larger of their errors (1.9x at worst over 240
    # measured cases) and either error can be the lucky small one; they
    # agree far inside the 1e-2 advertised bound (9e-5 of the field at
    # worst), while a frame-dependent step would move them by O(1)
    rng = np.random.default_rng(seed)
    terms = [PointSource(tuple(rng.uniform(-0.3, 0.3, 2)), 1.0),
             PointSource(tuple(rng.uniform(-0.3, 0.3, 2)),
                         complex(*rng.uniform(-0.3, 0.3, 2)))]
    field = RadiationField(terms=tuple(terms), kappa=KAPPA)
    targets = [np.array([rng.uniform(-4, 4), -2.0 - rng.uniform(0.5, 6.0)])
               for _ in range(3)]
    c, s = np.cos(angle), np.sin(angle)
    move = (np.array([[c, s], [s, -c]]) if reflect
            else np.array([[c, -s], [s, c]]))
    base = _moved_reconstruction(field, 3, np.eye(2), targets)
    got = _moved_reconstruction(field, 3, move, targets)
    assert np.max(np.abs(got - base)) <= 1e-3 * np.max(np.abs(base))


def test_reconstruct_validates_ray_geometry():
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    sp, sm, _ = _scenario_samples(ps, 3)
    bad_origin = ImSamples(ray=RayGeometry(origin=(0.0, 0.0), direction=(1.0, 0.0)),
                           abscissas=sp.abscissas, values=sp.values, kappa=KAPPA)
    with pytest.raises(ValueError):
        reconstruct_from_im(bad_origin, sm, 3, SPEC, [np.array([0.5, -4.0])])
    tilted = ImSamples(ray=RayGeometry(origin=(0.0, -2.0), direction=(0.8, 0.6)),
                       abscissas=sp.abscissas, values=sp.values, kappa=KAPPA)
    with pytest.raises(ValueError):
        reconstruct_from_im(tilted, sm, 3, SPEC, [np.array([0.5, -4.0])])


def test_reconstruct_stage_labels():
    # samples without the extraction radii fail inside the extract stage
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=KAPPA)
    s_absc = np.arange(LAM / 24, 80.0, LAM / 12)
    out = []
    for d in ((1.0, 0.0), (-1.0, 0.0)):
        ray = RayGeometry(origin=(0.0, -2.0), direction=d)
        pts = np.array([0.0, -2.0]) + s_absc[:, None] * np.asarray(d)
        vals = np.sqrt(np.hypot(pts[:, 0], pts[:, 1])) * eval_field(ps, pts).imag
        out.append(ImSamples(ray=ray, abscissas=s_absc, values=vals, kappa=KAPPA))
    with pytest.raises(ValueError, match=r"^\[extract\]"):
        reconstruct_from_im(out[0], out[1], 3, SPEC, [np.array([0.5, -4.0])])
