"""Acceptance gate: one test per advertised capability, tolerances pinned.

Each test re-demonstrates one headline property end to end and finishes by
printing a single PASS line with the measured quantities (visible under
pytest -s, or in the captured output when a criterion fails). The
constructions mirror the per-module suites so a failure here points at a
capability, not a fixture.
"""

import numpy as np
import pytest

from imfield import (
    FarFieldCoeffs,
    HalfPlaneSpec,
    ImSamples,
    LineSpec,
    LineTrace,
    Multipole,
    PointSource,
    PotentialGrid,
    RadiationField,
    RayGeometry,
    bessel_j,
    bessel_y,
    check_reciprocity,
    counterexample_report,
    eval_field,
    eval_karp,
    extract_all,
    extract_f0_two_point,
    extract_least_squares,
    extract_sequence_extrapolated,
    farfield_oracle,
    gkl_reduce,
    j0_roots,
    karp_from_farfield,
    lommel_karp_oracle,
    make_schedule,
    plane_wave_solution,
    propagate_halfplane,
    psi_plus_farfield,
    reconstruct_from_im,
    sample_im_on_ray,
    scattering_amplitude,
    schedule_abscissas,
    schedule_for,
    solve_lippmann_schwinger,
)


def _karp_of(field, phi, n):
    fp = farfield_oracle(field, phi, n)
    fm = farfield_oracle(field, phi + np.pi, n)
    return karp_from_farfield(
        FarFieldCoeffs(kappa=field.kappa, phi=phi, f_plus=fp, f_minus=fm))


def _point_source_trace(field, line_y):
    def fn(s):
        s = np.asarray(s, dtype=float)
        pts = np.stack([s, np.full(s.shape, line_y)], axis=-1)
        return eval_field(field, pts)
    return fn


def _two_ray_samples(field, order):
    """Schedule radii plus dense near-line coverage on y = -2, both rays."""
    kappa = field.kappa
    lam = 2.0 * np.pi / kappa
    sched = schedule_for(kappa, order, 0.0)
    dense = np.arange(lam / 24.0, 80.0, lam / 12.0)
    s_absc = np.unique(np.concatenate([dense, schedule_abscissas(sched)]))
    out = []
    for d in ((1.0, 0.0), (-1.0, 0.0)):
        ray = RayGeometry(origin=(0.0, -2.0), direction=d)
        pts = np.array([0.0, -2.0]) + s_absc[:, None] * np.asarray(d)
        vals = np.sqrt(np.hypot(pts[:, 0], pts[:, 1])) * \
            eval_field(field, pts).imag
        out.append(ImSamples(ray=ray, abscissas=s_absc, values=vals,
                             kappa=kappa))
    return out[0], out[1], sched


def _gauss_grid(n, kappa, amp=4.0, cx=0.05, cy=-0.08, width=0.16, phase=0.0):
    box = (-0.5, -0.5, 0.5, 0.5)
    h = 1.0 / n
    xs = box[0] + (np.arange(n) + 0.5) * h
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    v = amp * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / width ** 2)
    return PotentialGrid(bbox=box, n=n, v=v * np.exp(1j * phase), kappa=kappa)


def test_criterion_1_special_functions():
    x = np.geomspace(0.1, 1e3, 1000)
    wronskian = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
    err = np.abs(wronskian - 2.0 / (np.pi * x))
    bound = 1e-12 * (1.0 + 1.0 / x)
    assert np.all(err <= bound)
    roots = j0_roots(10)
    residual = np.max(np.abs(bessel_j(0, roots)))
    assert residual <= 1e-11
    print(f"criterion 1 PASS: Wronskian margin {np.max(err / bound):.2e} "
          f"of bound, max |J0(c_j)| = {residual:.2e}")


def test_criterion_2_counterexample_circles():
    worst_im, worst_psi = 0.0, np.inf
    for kappa in (1.0, 2.5):
        rep = counterexample_report(kappa, 1, 720)
        assert rep.max_abs_im <= 1e-11
        assert rep.max_abs_psi >= 0.05
        worst_im = max(worst_im, rep.max_abs_im)
        worst_psi = min(worst_psi, rep.max_abs_psi)
    print(f"criterion 2 PASS: max |Im psi| on the circles {worst_im:.2e}, "
          f"min of max |psi| {worst_psi:.3f}")


def test_criterion_3_two_point_extraction():
    kappa = 2.0
    field = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=kappa)
    r_max = 1e5 / kappa
    sched = make_schedule(kappa, s0=r_max / 2.0 ** 10, growth=2.0, count=11)
    f0_true = farfield_oracle(field, 0.0, 0)[0]

    def weighted(r):
        pts = np.stack([r, np.zeros_like(r)], axis=-1)
        return np.sqrt(r) * eval_field(field, pts).imag

    i_r = weighted(sched.radii)
    i_rt = weighted(sched.radii + sched.tau)
    raws = [extract_f0_two_point(i_r[k], i_rt[k], sched.radii[k], sched.tau,
                                 kappa) for k in range(sched.radii.size)]
    errs = np.abs(np.asarray(raws) - f0_true)
    slope = np.polyfit(np.log(sched.radii), np.log(errs), 1)[0]
    assert abs(slope - (-1.0)) <= 0.2
    extrap = extract_sequence_extrapolated(list(zip(sched.radii, raws)), 3)
    err_extrap = abs(extrap - f0_true)
    assert err_extrap <= 1e-6
    print(f"criterion 3 PASS: raw slope {slope:.3f}, "
          f"depth-3 extrapolated error {err_extrap:.2e}")


def test_criterion_4_recursive_recovery():
    kappa = 3.0
    field = RadiationField(
        terms=(Multipole(0, 1.0), Multipole(1, 0.5j), Multipole(2, 0.2)),
        kappa=kappa)
    sched = make_schedule(kappa, s0=40.0, growth=1.7, count=10, depth=3)
    absc = schedule_abscissas(sched)
    sp = sample_im_on_ray(field, RayGeometry(origin=(0.0, 0.0),
                                             direction=(1.0, 0.0)), absc)
    sm = sample_im_on_ray(field, RayGeometry(origin=(0.0, 0.0),
                                             direction=(-1.0, 0.0)), absc)
    ff = extract_all(sp, sm, 2, sched)
    want_p = farfield_oracle(field, 0.0, 2)
    want_m = farfield_oracle(field, np.pi, 2)
    worst = 0.0
    for j in (1, 2):
        for got, want in ((ff.f_plus[j], want_p[j]), (ff.f_minus[j], want_m[j])):
            rel = abs(got - want) / abs(want)
            assert rel <= 1e-4
            worst = max(worst, rel)
    dense = sample_im_on_ray(field, RayGeometry(origin=(0.0, 0.0),
                                                direction=(1.0, 0.0)),
                             np.linspace(1e3, 1e4, 400))
    ls = extract_least_squares(dense, 2)
    gap = max(abs(ls[j] - ff.f_plus[j]) for j in range(3))
    assert gap <= 1e-4
    print(f"criterion 4 PASS: f_1, f_2 worst rel err {worst:.2e}, "
          f"least-squares cross-method gap {gap:.2e}")


def test_criterion_5_karp_conversion():
    kappa = 3.0
    phi = 0.7
    c = 0.8 - 0.3j
    # recurrent solve vs the Lommel-polynomial oracle for every m <= 8
    worst_lommel = 0.0
    for m in range(9):
        field = RadiationField(terms=(Multipole(m, c),), kappa=kappa)
        kc = _karp_of(field, phi, 6)
        P, Q = lommel_karp_oracle(m, 6)
        amp = c * np.exp(1j * m * phi)
        for l in range(7):
            F_true = amp * (P[l] if l < len(P) else 0) * kappa ** -float(l)
            G_true = amp * (Q[l] if l < len(Q) else 0) * kappa ** -float(l)
            worst_lommel = max(worst_lommel, abs(kc.F[l] - F_true),
                               abs(kc.G[l] - G_true))
    assert worst_lommel <= 1e-10
    # order-0 closed form
    rng = np.random.default_rng(3)
    worst_closed = 0.0
    for _ in range(8):
        f0p, f0m = rng.normal(size=2) + 1j * rng.normal(size=2)
        kc0 = karp_from_farfield(FarFieldCoeffs(kappa=kappa, phi=phi,
                                                f_plus=[f0p], f_minus=[f0m]))
        worst_closed = max(worst_closed,
                           abs(kc0.F[0] - 0.5 * (f0p + f0m)),
                           abs(kc0.G[0] - 0.5j * (f0p - f0m)))
    assert worst_closed <= 1e-10
    # parity: swapped-angle extraction lands on the antipodal images
    mix = RadiationField(
        terms=(Multipole(0, 1.0), Multipole(1, 0.5j), Multipole(2, 0.2),
               Multipole(3, -0.1j)), kappa=kappa)
    fp = farfield_oracle(mix, phi, 5)
    fm = farfield_oracle(mix, phi + np.pi, 5)
    kc = karp_from_farfield(FarFieldCoeffs(kappa=kappa, phi=phi,
                                           f_plus=fp, f_minus=fm))
    kc_sw = karp_from_farfield(FarFieldCoeffs(kappa=kappa, phi=phi + np.pi,
                                              f_plus=fm, f_minus=fp))
    F_anti, G_anti = kc.antipodal()
    worst_parity = max(max(abs(a - b) for a, b in zip(kc_sw.F, F_anti)),
                       max(abs(a - b) for a, b in zip(kc_sw.G, G_anti)))
    assert worst_parity <= 1e-10
    # truncation error monotone in the order at r = 3 rho
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=kappa)
    r = 3.0 * ps.source_radius
    x = np.array([r * np.cos(phi), r * np.sin(phi)])
    true_p = eval_field(ps, x)
    true_m = eval_field(ps, -x)
    errs = []
    for n in range(7):
        kc_n = _karp_of(ps, phi, n)
        errs.append(max(abs(eval_karp(kc_n, r, "+") - true_p),
                        abs(eval_karp(kc_n, r, "-") - true_m)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    print(f"criterion 5 PASS: Lommel gap {worst_lommel:.2e}, order-0 closed "
          f"form {worst_closed:.2e}, parity {worst_parity:.2e}, "
          f"truncation errors fell {errs[0]:.1e} -> {errs[-1]:.1e}")


def test_criterion_6_green_propagation():
    kappa = 5.0
    lam = 2.0 * np.pi / kappa
    spec = HalfPlaneSpec(line=LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0)),
                         normal=(0.0, 1.0))
    ps = RadiationField(terms=(PointSource((0.3, 0.2), 1.0),), kappa=kappa)
    fn = _point_source_trace(ps, -2.0)
    trace = LineTrace(S=200.0 * lam, panels_per_wavelength=10, func=fn)
    targets = [np.array(t) for t in ((0.5, -4.0), (3.0, -6.0), (-5.0, -8.0),
                                     (10.0, -4.0), (0.0, -12.0))]
    worst = 0.0
    for x in targets:
        ref = complex(eval_field(ps, x))
        got = propagate_halfplane(trace, spec, x, kappa)
        rel = abs(got - ref) / abs(ref)
        assert rel <= 1e-3
        worst = max(worst, rel)
    # self-convergence: doubling the panel count collapses the change
    x = np.array([0.5, -2.0 - 2.0 * lam])
    vals = {p: propagate_halfplane(
        LineTrace(S=200.0 * lam, panels_per_wavelength=p, func=fn),
        spec, x, kappa) for p in (1, 2, 4, 8)}
    d1 = abs(vals[2] - vals[1])
    d2 = abs(vals[4] - vals[2])
    d3 = abs(vals[8] - vals[4])
    assert d2 <= d1 / 10 and d3 <= d2 / 10
    print(f"criterion 6 PASS: 5-target worst rel err {worst:.2e}, panel "
          f"doubling self-differences {d1:.1e} -> {d2:.1e} -> {d3:.1e}")


def test_criterion_7_end_to_end_pipeline():
    kappa = 5.0
    spec = HalfPlaneSpec(line=LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0)),
                         normal=(0.0, 1.0))
    targets = [np.array(t) for t in ((0.5, -4.0), (3.0, -6.0), (-5.0, -8.0),
                                     (10.0, -4.0), (0.0, -12.0))]
    scenarios = {
        "point source": RadiationField(
            terms=(PointSource((0.3, 0.2), 1.0),), kappa=kappa),
        "multipole mix": RadiationField(
            terms=(Multipole(0, 1.0), Multipole(1, 0.5j)), kappa=kappa),
    }
    report = []
    for name, field in scenarios.items():
        sp, sm, _ = _two_ray_samples(field, 3)
        got = reconstruct_from_im(sp, sm, 3, spec, targets)
        worst = 0.0
        for x, g in zip(targets, got):
            ref = complex(eval_field(field, x))
            rel = abs(g - ref) / abs(ref)
            assert rel <= 1e-2, f"{name} target {x}"
            worst = max(worst, rel)
        report.append(f"{name} {worst:.2e}")
    print(f"criterion 7 PASS: worst rel target err {', '.join(report)}")


def test_criterion_8_scattering():
    kappa = 4.0
    # reciprocity defect against a grid-refinement discretization estimate
    x = np.array([1.2, 0.4])
    y = np.array([-0.8, -1.0])
    grid16 = _gauss_grid(16, kappa, amp=3.0)
    grid32 = _gauss_grid(32, kappa, amp=3.0)
    defect = check_reciprocity(grid16, x, y)
    r_c = solve_lippmann_schwinger(grid16, y)(x)
    r_f = solve_lippmann_schwinger(grid32, y)(x)
    estimate = abs(r_c - r_f) / abs(r_c)
    assert defect <= 5.0 * estimate
    # Born residual slope: after removing the first-order term the
    # remainder scales like the square of the coupling
    grid0 = _gauss_grid(12, kappa, amp=1.0, cx=0.0, cy=0.0, width=0.18)
    box = grid0.bbox
    yb = np.array([0.0, -1.3])
    xb = np.array([0.9, 1.1])
    r_free = solve_lippmann_schwinger(
        PotentialGrid(bbox=box, n=12, v=np.zeros((12, 12), complex),
                      kappa=kappa), yb)(xb)
    lam0 = 1e-5
    scaled = PotentialGrid(bbox=box, n=12, v=lam0 * grid0.v, kappa=kappa)
    born1 = (solve_lippmann_schwinger(scaled, yb)(xb) - r_free) / lam0
    couplings = np.array([1e-1, 1e-2, 1e-3])
    res = []
    for c in couplings:
        g = PotentialGrid(bbox=box, n=12, v=c * grid0.v, kappa=kappa)
        res.append(abs(solve_lippmann_schwinger(g, yb)(xb) - r_free
                       - c * born1))
    slope = np.polyfit(np.log(couplings), np.log(res), 1)[0]
    assert abs(slope - 2.0) <= 0.2
    # resolvent far field vs a direct scattered-plane-wave solve
    grid24 = _gauss_grid(24, kappa, amp=0.5)
    direction = np.array([np.cos(0.4), np.sin(0.4)])
    yf = np.array([0.3, 0.2])
    got = psi_plus_farfield(grid24, yf, direction)
    want = plane_wave_solution(grid24, -kappa * direction)(yf)
    cross = abs(got - want) / abs(want)
    assert cross <= 1e-3
    # rotational symmetry of the amplitude for a lattice-radial potential
    n = 24
    idx = np.arange(n) - (n - 1) / 2.0
    d2 = idx[:, None] ** 2 + idx[None, :] ** 2
    v = 3.0 * np.exp(-d2 / (n * n * 2.0 * 0.18 ** 2))
    radial = PotentialGrid(bbox=(-0.5, -0.5, 0.5, 0.5), n=n, v=v, kappa=kappa)
    k0 = kappa * np.array([np.cos(0.35), np.sin(0.35)])
    x0 = np.array([np.cos(1.6), np.sin(1.6)])

    def rot90(t):
        return np.array([-t[1], t[0]])

    pairs = [(k0, x0)]
    for _ in range(3):
        pairs.append((rot90(pairs[-1][0]), rot90(pairs[-1][1])))
    for refl in (lambda t: np.array([t[0], -t[1]]),
                 lambda t: np.array([t[1], t[0]])):
        pairs.append((refl(k0), refl(x0)))
        pairs.append((rot90(refl(k0)), rot90(refl(x0))))
    vals = np.array([scattering_amplitude(radial, k, [xh])[0]
                     for k, xh in pairs])
    spread = np.max(np.abs(vals - vals[0]))
    assert spread <= 1e-6
    print(f"criterion 8 PASS: reciprocity defect {defect:.2e} vs estimate "
          f"{estimate:.2e}, Born slope {slope:.3f}, far-field cross-check "
          f"{cross:.2e}, symmetry spread {spread:.2e}")


def test_criterion_9_gkl_reduction():
    kappa = 4.0
    grid = _gauss_grid(32, kappa, amp=4.0)
    line = LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0))
    report = gkl_reduce(grid, line, (-3.0, 3.0), order=3)
    assert report.max_rel_err <= 1e-2
    print(f"criterion 9 PASS: 32x32 potential at kappa 4, recovered-table "
          f"max rel err {report.max_rel_err:.2e}")
