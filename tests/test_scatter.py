"""Tests for the volume-potential solver and the line data-reduction demo."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.sparse import linalg as sparse_linalg

from imfield import (
    LineSpec,
    PotentialGrid,
    check_reciprocity,
    extract_sequence_extrapolated,
    gkl_reduce,
    green_operator_matrix,
    hankel1,
    plane_wave_solution,
    potential_from_dict,
    potential_to_dict,
    psi_plus_farfield,
    scattering_amplitude,
    solve_lippmann_schwinger,
)
from imfield import farfield, propagate, scatter
from imfield.farfield import schedule_for
from imfield.scatter import _SolverCore, _log_rect_integral, _weight_rows
from imfield.specfun import _reduce_phase

KAPPA = 4.0
LAM = 2.0 * np.pi / KAPPA
BOX = (-0.5, -0.5, 0.5, 0.5)

# cell integrals of ln|z| and of (i/4) H_0(kappa |z|), adaptive-quadrature
# oracle values (polar coordinates around the singular point)
LOG_SELF_CELL = -4.420811845392822e-03           # centered, sides 0.03125
LOG_OFFSET_RECT = -8.083013358335996e-03         # center (.05,-.02), .04 x .07
W_SELF = 5.057453426430e-04 + 2.439817154944e-04j    # kappa=4, h=0.03125
W_NEIGHBOR = 3.384333853504694e-04 + 2.430295922307401e-04j   # offset (h, 0)
W_DIAGONAL = 2.838771707881083e-04 + 2.420793279775371e-04j   # offset (h, h)


def gauss_grid(n, amp=4.0, cx=0.0, cy=0.0, width=0.18, kappa=KAPPA,
               phase=0.0):
    x0, y0, x1, y1 = BOX
    hx = (x1 - x0) / n
    xs = x0 + (np.arange(n) + 0.5) * hx
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    v = amp * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * width ** 2))
    if phase:
        v = v * np.exp(1j * phase)
    return PotentialGrid(bbox=BOX, n=n, v=v, kappa=kappa)


def free_grid(n=8):
    return PotentialGrid(bbox=BOX, n=n, v=np.zeros((n, n)), kappa=KAPPA)


def free_kernel(x, y):
    d = np.hypot(x[0] - y[0], x[1] - y[1])
    return 0.25j * complex(hankel1(0, KAPPA * d))


def test_potential_grid_validation():
    with pytest.raises(ValueError):
        PotentialGrid(bbox=(0.0, 0.0, -1.0, 1.0), n=4, v=np.zeros((4, 4)),
                      kappa=KAPPA)
    with pytest.raises(ValueError):
        PotentialGrid(bbox=BOX, n=4, v=np.zeros((3, 4)), kappa=KAPPA)
    with pytest.raises(ValueError):
        PotentialGrid(bbox=BOX, n=4, v=np.full((4, 4), np.nan), kappa=KAPPA)
    with pytest.raises(ValueError):
        PotentialGrid(bbox=BOX, n=4, v=np.zeros((4, 4)), kappa=0.0)
    with pytest.raises(ValueError):
        PotentialGrid(bbox=BOX, n=0, v=np.zeros((0, 0)), kappa=KAPPA)


def test_potential_json_round_trip():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    grid = PotentialGrid(bbox=(-0.3, 0.1, 0.9, 0.7), n=5, v=v, kappa=2.5)
    data = potential_to_dict(grid)
    assert set(data) == {"bbox", "n", "kappa", "v"}
    assert len(data["v"]) == 25
    back = potential_from_dict(data)
    assert back.bbox == grid.bbox
    assert back.n == grid.n and back.kappa == grid.kappa
    assert np.array_equal(back.v, grid.v)


def test_log_rect_integral_oracle():
    got = _log_rect_integral(0.0, 0.0, 0.03125, 0.03125)
    assert abs(got - LOG_SELF_CELL) <= 1e-15
    got = _log_rect_integral(0.05, -0.02, 0.04, 0.07)
    assert abs(got - LOG_OFFSET_RECT) <= 1e-15


def test_cell_weights_match_quadrature_oracle():
    h = 0.03125
    cells = np.array([[0.0, 0.0], [h, 0.0], [h, h]])
    rows = _weight_rows(np.zeros((1, 2)), cells, h, h, KAPPA)[0]
    for got, exact in zip(rows, (W_SELF, W_NEIGHBOR, W_DIAGONAL)):
        assert abs(got - exact) <= 2e-3 * abs(exact)


def test_green_operator_symmetric():
    grid = gauss_grid(10, amp=2.0, cx=0.07)
    gom = green_operator_matrix(grid)
    w = gom.weights
    assert np.all(np.isfinite(w))
    scale = np.max(np.abs(w))
    assert np.max(np.abs(w - w.T)) <= 1e-14 * scale
    # operator matrix is the weight matrix with columns scaled by v
    assert np.allclose(gom.matrix, w * grid.v_flat[None, :], rtol=0, atol=0)


def test_green_operator_stencil_matches_direct_rows():
    # rectangular cells, an off-centre box and odd n: every offset class
    n = 9
    rng = np.random.default_rng(5)
    grid = PotentialGrid(bbox=(0.3, -0.9, 1.2, -0.2), n=n,
                         v=rng.standard_normal((n, n)), kappa=KAPPA)
    hx, hy = grid.cell_size
    assert hx != hy
    w = green_operator_matrix(grid).weights
    direct = _weight_rows(grid.centers(), grid.centers(), hx, hy, KAPPA)
    assert np.max(np.abs(w - direct)) <= 1e-13 * np.max(np.abs(direct))
    assert np.array_equal(w, w.T)


def test_operator_apply_matches_dense_matrix():
    # odd n, an off-centre box, hx != hy and complex v; 1-d and batched input
    n = 9
    rng = np.random.default_rng(11)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    grid = PotentialGrid(bbox=(0.3, -0.9, 1.2, -0.2), n=n, v=v, kappa=KAPPA)
    assert grid.cell_size[0] != grid.cell_size[1]
    op = green_operator_matrix(grid)
    dense = op.matrix
    for shape in ((n * n,), (n * n, 3)):
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = dense @ u
        got = op.apply(u)
        assert got.shape == shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_weight_rows_reduce_by_coeff():
    # with coeff the rows are reduced chunk by chunk; 300 points x 400
    # centers spans several chunks
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3.0, 3.0, (300, 2))
    cen = rng.uniform(-0.5, 0.5, (400, 2))
    rows = _weight_rows(pts, cen, 0.05, 0.04, KAPPA)
    for shape in ((400,), (400, 3)):
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = rows @ coeff
        got = _weight_rows(pts, cen, 0.05, 0.04, KAPPA, coeff)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa", [2.0, 4.0])
@pytest.mark.parametrize("n", [8, 15, 32])
def test_solver_core_matches_dense_solve(kappa, n):
    # columns that converge at different steps of one batch: an eigenvector
    # of W diag v (one step), zero, one scaled by 1e-200, and random ones
    grid = gauss_grid(n, kappa=kappa)
    rng = np.random.default_rng(n)
    rand = rng.standard_normal((n * n, 4)) + 1j * rng.standard_normal((n * n, 4))
    wv = green_operator_matrix(grid).matrix
    eig = sparse_linalg.eigs(wv, k=1, v0=np.ones(n * n, dtype=complex),
                             tol=0)[1]
    rhs = np.column_stack([eig, np.zeros(n * n), 1e-200 * rand[:, 0], rand])
    dense = np.eye(n * n) - wv
    want = np.linalg.solve(dense, rhs)
    core = _SolverCore(grid)
    got = core.solve(rhs)
    assert np.all(got[:, 1] == 0.0)
    peak = np.max(np.abs(want), axis=0)
    err = np.max(np.abs(got - want), axis=0)
    assert np.all(err <= 1e-11 * peak)
    one = core.solve(rhs[:, 4])
    assert np.max(np.abs(one - want[:, 4])) <= 1e-11 * peak[4]
    steps = scatter._gmres(lambda x: dense @ x, eig)[2]
    assert steps == 1


def two_bump_grid(n, kappa, axis=(0.15, 0.0)):
    # two complex Gaussian bumps 0.3 apart about the box center
    xs = BOX[0] + (np.arange(n) + 0.5) * (BOX[2] - BOX[0]) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    v = sum(3.0 * np.exp(0.25j - ((gx - cx) ** 2 + (gy - cy) ** 2) / 0.15 ** 2)
            for cx, cy in (axis, (-axis[0], -axis[1])))
    return PotentialGrid(bbox=BOX, n=n, v=v, kappa=kappa)


@pytest.mark.parametrize("kappa", [2.0, 4.0])
def test_gmres_steps_on_two_bumps(kappa):
    # point sources round the box, one column and eight at once: each
    # reaches _GMRES_TOL within a few steps (6 at n = 32)
    core = _SolverCore(two_bump_grid(32, kappa))
    angles = 2.0 * np.pi * np.arange(8) / 8
    sources = 1.6 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rhs = -0.25j * special.hankel1(
        0, kappa * np.hypot(*(core.centers[:, None] - sources[None]).T)).T
    for cols in (rhs[:, :1], rhs):
        _, rel, steps = scatter._gmres(lambda x: x - core.op.apply(x), cols)
        assert np.all(rel <= scatter._GMRES_TOL)
        assert steps <= 8


def test_non_finite_data_raise_the_solver_error():
    core = _SolverCore(gauss_grid(8))
    rhs = np.ones((64, 2), dtype=complex)
    rhs[5, 0] = np.nan
    for b in (rhs[:, 0], rhs):
        with pytest.raises(RuntimeError, match="unique-solvability"):
            core.solve(b)


def test_solver_core_holds_no_dense_array():
    # at n = 32 an N x N complex array alone would be 16 MB
    core = _SolverCore(gauss_grid(32))
    held = [core.centers] + [a for a in vars(core.op).values()
                             if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in held) <= 2 ** 20
    assert not any(a.ndim == 2 and min(a.shape) >= 32 * 32 for a in held)


def test_free_resolvent_identity():
    grid = free_grid()
    y = np.array([0.3, -2.0])
    field = solve_lippmann_schwinger(grid, y)
    for x in ([1.4, 0.7], [-0.2, 0.1], [12.0, -3.0]):
        assert field(np.asarray(x)) == -free_kernel(x, y)
    assert field.correction(np.array([1.0, 1.0])) == 0.0


def test_resolvent_singularity_and_center_hit():
    grid = gauss_grid(8)
    y = np.array([0.0, -1.3])
    field = solve_lippmann_schwinger(grid, y)
    with pytest.raises(ValueError):
        field(y)
    # a source exactly on a cell center leaves the right-hand side undefined
    center0 = grid.centers()[0]
    with pytest.raises(ValueError):
        solve_lippmann_schwinger(grid, center0)


def test_born_first_order_small_v():
    # fine-grid quadrature of G (x-z) v(z) (-G(z-y)) as independent oracle
    amp = 1e-3
    grid = gauss_grid(20, amp=amp)
    y = np.array([0.0, -1.3])
    x = np.array([0.9, 1.1])
    r_val = solve_lippmann_schwinger(grid, y)(x)
    nf = 80
    hf = 1.0 / nf
    xs = -0.5 + (np.arange(nf) + 0.5) * hf
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    zz = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vz = amp * np.exp(-(zz[:, 0] ** 2 + zz[:, 1] ** 2) / (2.0 * 0.18 ** 2))
    g_x = 0.25j * special.hankel1(0, KAPPA * np.hypot(*(zz - x).T))
    g_y = 0.25j * special.hankel1(0, KAPPA * np.hypot(*(zz - y).T))
    born1 = np.sum(g_x * vz * (-g_y)) * hf * hf
    assert abs((r_val + free_kernel(x, y)) - born1) <= 1e-3 * abs(born1)


def test_born_order_slope():
    # residual after removing the first Born term scales like ||v||^2
    grid0 = gauss_grid(12, amp=1.0)
    y = np.array([0.0, -1.3])
    x = np.array([0.9, 1.1])
    r_free = -free_kernel(x, y)
    lam0 = 1e-5
    scaled = PotentialGrid(bbox=BOX, n=12, v=lam0 * grid0.v, kappa=KAPPA)
    born1 = (solve_lippmann_schwinger(scaled, y)(x) - r_free) / lam0
    lams = np.array([1e-1, 1e-2, 1e-3])
    res = []
    for lam in lams:
        g = PotentialGrid(bbox=BOX, n=12, v=lam * grid0.v, kappa=KAPPA)
        r = solve_lippmann_schwinger(g, y)(x)
        res.append(abs(r - r_free - lam * born1))
    slope = np.polyfit(np.log(lams), np.log(res), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_grid_refinement_second_order():
    y = np.array([0.0, -1.3])
    pts = np.array([[0.9, 1.1], [-1.4, 0.3]])
    vals = {n: solve_lippmann_schwinger(gauss_grid(n), y)(pts)
            for n in (8, 16, 32)}
    e_coarse = np.max(np.abs(vals[8] - vals[32]))
    e_fine = np.max(np.abs(vals[16] - vals[32]))
    assert e_fine <= 5e-6
    assert e_coarse >= 3.5 * e_fine


def test_reciprocity_free_exact():
    assert check_reciprocity(free_grid(), (1.2, 0.4), (-0.8, -1.0)) == 0.0


def test_reciprocity_within_discretization():
    rng = np.random.default_rng(17)
    x = np.array([1.2, 0.4])
    y = np.array([-0.8, -1.0])
    for trial in range(3):
        amp = rng.uniform(2.0, 5.0)
        cx, cy = rng.uniform(-0.1, 0.1, size=2)
        phase = 0.0 if trial < 2 else rng.uniform(0.2, 0.6)
        grid = gauss_grid(16, amp=amp, cx=cx, cy=cy, phase=phase)
        fine = gauss_grid(32, amp=amp, cx=cx, cy=cy, phase=phase)
        defect = check_reciprocity(grid, x, y)
        r_c = solve_lippmann_schwinger(grid, y)(x)
        r_f = solve_lippmann_schwinger(fine, y)(x)
        estimate = abs(r_c - r_f) / abs(r_c)
        assert defect <= 5.0 * estimate


def test_singular_system_reported():
    # scale v by a reciprocal eigenvalue so the interior system is singular
    grid = gauss_grid(8, amp=1.0)
    w = green_operator_matrix(grid).weights
    mu = np.linalg.eigvals(w * grid.v_flat[None, :])
    mu0 = mu[np.argmax(np.abs(mu))]
    bad = PotentialGrid(bbox=BOX, n=8, v=grid.v / mu0, kappa=KAPPA)
    with pytest.raises(RuntimeError, match="unique-solvability"):
        solve_lippmann_schwinger(bad, (0.0, -2.0))


def test_near_singular_system_reported():
    # one part in 1e13 off singular: cond ~ 1e13, never solved to 1e-12
    grid = gauss_grid(8, amp=1.0)
    w = green_operator_matrix(grid).weights
    mu = np.linalg.eigvals(w * grid.v_flat[None, :])
    mu0 = mu[np.argmax(np.abs(mu))]
    bad = PotentialGrid(bbox=BOX, n=8, v=grid.v / mu0 * (1.0 + 1e-13),
                        kappa=KAPPA)
    with pytest.raises(RuntimeError, match="unique-solvability"):
        solve_lippmann_schwinger(bad, (0.0, -2.0))


def test_plane_wave_free_and_validation():
    grid = free_grid()
    k = KAPPA * np.array([0.6, 0.8])
    psi = plane_wave_solution(grid, k)
    pts = np.array([[0.3, 0.2], [-1.0, 2.0]])
    assert np.array_equal(psi(pts), np.exp(1j * (pts @ k)))
    with pytest.raises(ValueError):
        plane_wave_solution(grid, 1.01 * k)


def test_psi_plus_farfield_free_plane_wave():
    direction = np.array([np.cos(0.4), np.sin(0.4)])
    y = (0.3, 0.2)
    got = psi_plus_farfield(free_grid(), y, direction)
    want = np.exp(1j * (-KAPPA * direction) @ np.asarray(y))
    assert abs(got - want) <= 1e-9


def test_psi_plus_farfield_matches_plane_wave_solve():
    grid = gauss_grid(24, amp=0.5)
    direction = np.array([np.cos(0.4), np.sin(0.4)])
    y = np.array([0.3, 0.2])
    got = psi_plus_farfield(grid, y, direction)
    want = plane_wave_solution(grid, -KAPPA * direction)(y)
    assert abs(got - want) <= 1e-3 * abs(want)


def test_psi_plus_farfield_residual_slope():
    # raw per-radius estimates approach the exact limit like 1/r
    grid = gauss_grid(24, amp=0.5)
    direction = np.array([np.cos(0.4), np.sin(0.4)])
    radii = 100.0 * LAM * 2.0 ** np.arange(4)
    y = np.array([0.3, 0.2])
    final = psi_plus_farfield(grid, y, direction)
    field = solve_lippmann_schwinger(grid, y)
    resid = []
    for r in radii:
        pref = -0.5 * np.sqrt(1.0 / (2.0 * np.pi * KAPPA * r)) \
            * np.exp(1j * (_reduce_phase(KAPPA * r) + 0.25 * np.pi))
        resid.append(abs(field(r * direction) / pref - final))
    slope = np.polyfit(np.log(radii), np.log(resid), 1)[0]
    assert slope <= -0.9


def test_psi_plus_farfield_validation():
    grid = free_grid()
    with pytest.raises(ValueError):
        psi_plus_farfield(grid, (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        psi_plus_farfield(grid, (0.0, 0.0, 1.0), (1.0, 0.0))


def test_amplitude_free_zero():
    k = KAPPA * np.array([1.0, 0.0])
    a = scattering_amplitude(free_grid(), k, [(1.0, 0.0), (0.0, 1.0)])
    assert np.array_equal(a, np.zeros(2, dtype=complex))


@pytest.mark.parametrize("kappa", [2.0, 4.0])
def test_amplitude_matches_midpoint_ladder(kappa):
    # reference: rows hx hy G(x - z_c) (no log-integral cancellation) times
    # the plane-wave coefficients on a 200-1600 wavelength ladder,
    # extrapolated in 1/r; the amplitude is the limit of that ladder
    grid = gauss_grid(24, kappa=kappa)
    k = kappa * np.array([np.cos(0.2), np.sin(0.2)])
    ths = np.array([0.3, 1.1, 2.5, 4.0, 5.6])
    dirs = np.stack([np.cos(ths), np.sin(ths)], axis=1)
    got = scattering_amplitude(grid, k, dirs)
    psi = plane_wave_solution(grid, k)
    cells = grid.centers()
    area = grid.cell_size[0] * grid.cell_size[1]
    radii = 200.0 * (2.0 * np.pi / kappa) * 2.0 ** np.arange(4)
    for xhat, a_val in zip(dirs, got):
        ests = []
        for r in radii:
            dist = np.hypot(*(r * xhat - cells).T)
            row = area * 0.25j * hankel1(0, kappa * dist)
            ests.append((r, (row @ psi.coeff) * np.sqrt(r)
                         * np.exp(-1j * _reduce_phase(kappa * r))))
        want = extract_sequence_extrapolated(ests, 3)
        assert abs(a_val - want) <= 1e-10 * abs(want)


def test_amplitude_evaluates_no_weight_rows(monkeypatch):
    grid = gauss_grid(12)
    k = KAPPA * np.array([1.0, 0.0])
    plane_wave_solution(grid, k)  # builds the cached interior factor
    calls = []
    real = scatter._weight_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scatter, "_weight_rows", counting)
    ths = 2.0 * np.pi * np.arange(72) / 72
    amps = scattering_amplitude(
        grid, k, np.stack([np.cos(ths), np.sin(ths)], axis=1))
    assert amps.shape == (72,) and np.all(np.isfinite(amps))
    assert calls == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 16),
       kappa=st.floats(1.0, 6.0),
       corner=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       sides=st.tuples(st.floats(0.3, 1.2), st.floats(0.3, 1.2)),
       k_angle=st.floats(0.0, 2.0 * np.pi),
       x_angle=st.floats(0.0, 2.0 * np.pi))
def test_amplitude_reciprocity_property(seed, n, kappa, corner, sides,
                                        k_angle, x_angle):
    # A(kappa k_hat, x_hat) = A(-kappa x_hat, -k_hat) holds exactly in the
    # discrete scheme because the weight matrix is symmetric
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 2.0, (n, n)) \
        * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    bbox = (corner[0], corner[1], corner[0] + sides[0], corner[1] + sides[1])
    grid = PotentialGrid(bbox=bbox, n=n, v=v, kappa=kappa)
    k_hat = np.array([np.cos(k_angle), np.sin(k_angle)])
    x_hat = np.array([np.cos(x_angle), np.sin(x_angle)])
    a = scattering_amplitude(grid, kappa * k_hat, [x_hat])[0]
    b = scattering_amplitude(grid, -kappa * x_hat, [-k_hat])[0]
    assert abs(a - b) <= 1e-10 * abs(a)


def test_amplitude_rotational_symmetry():
    # exactly lattice-symmetric radial v; the 8 symmetry images of one
    # (incident, observation) pair must give one amplitude
    n = 24
    idx = np.arange(n) - (n - 1) / 2.0
    d2 = idx[:, None] ** 2 + idx[None, :] ** 2
    v = 3.0 * np.exp(-d2 / (n * n * 2.0 * 0.18 ** 2))
    grid = PotentialGrid(bbox=BOX, n=n, v=v, kappa=KAPPA)
    k0 = KAPPA * np.array([np.cos(0.35), np.sin(0.35)])
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
    vals = np.array([scattering_amplitude(grid, k, [xh])[0]
                     for k, xh in pairs])
    assert np.max(np.abs(vals - vals[0])) <= 1e-6


def test_amplitude_born_fourier():
    # A ~ c_B vhat(k - kappa x_hat), error shrinking like ||v||^2
    c_born = 0.25 * np.sqrt(2.0 / (np.pi * KAPPA)) * np.exp(0.25j * np.pi)
    k = KAPPA * np.array([1.0, 0.0])
    xhat = np.array([np.cos(1.1), np.sin(1.1)])
    xi = k - KAPPA * xhat
    gaps = {}
    for amp in (0.2, 0.05):
        grid = gauss_grid(32, amp=amp)
        a_val = scattering_amplitude(grid, k, [xhat])[0]
        cells = grid.centers()
        area = grid.cell_size[0] * grid.cell_size[1]
        vhat = np.sum(grid.v_flat * np.exp(1j * (cells @ xi))) * area
        gaps[amp] = abs(a_val - c_born * vhat)
        if amp == 0.05:
            assert gaps[amp] <= 5e-3 * abs(a_val)
    ratio = gaps[0.2] / gaps[0.05]
    assert 10.0 <= ratio <= 24.0


def _expansion_case(seed, kappa, n, r_lo_frac, cols=2, count=160,
                    top=None):
    """A random potential's core, complex coefficient columns and points
    at radii r in [r_lo, 2 r_lo] about the support centre, where r_lo runs
    log-uniformly from 2 rho_max (frac 0) to top (frac 1), by default 2000
    wavelengths."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    grid = PotentialGrid(bbox=(-0.3, 0.2, 0.8, 1.3), n=n, v=v, kappa=kappa)
    core = _SolverCore(grid)
    c, rho_max, _ = core.expansion()
    lo = 2.0 * rho_max * (1.0 + 1e-12)
    hi = 2000.0 * 2.0 * np.pi / kappa if top is None else top * rho_max
    r_lo = lo * (hi / lo) ** r_lo_frac
    r = r_lo * (1.0 + rng.random(count))
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    pts = c + r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    coeff = rng.standard_normal((n * n, cols)) \
        + 1j * rng.standard_normal((n * n, cols))
    return grid, core, coeff, pts, r


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.floats(0.25, 16.0),
       n=st.sampled_from([8, 16, 32]), r_lo_frac=st.floats(0.0, 1.0))
def test_exterior_expansion_matches_midpoint_sum(seed, kappa, n, r_lo_frac):
    # the expansion is the midpoint sum hx hy G(x - z) coeff to rounding;
    # both sums carry the phase rounding kappa r eps of their distances
    grid, core, coeff, pts, r = _expansion_case(seed, kappa, n, r_lo_frac)
    hx, hy = grid.cell_size
    field = scatter.VolumeField(kappa, None, coeff, core, grid.cell_size)
    got = field.correction(pts)
    assert field._moments is not None  # the call took the expansion
    dist = np.hypot(pts[:, None, 0] - core.centers[None, :, 0],
                    pts[:, None, 1] - core.centers[None, :, 1])
    want = (hx * hy * 0.25j * hankel1(0, kappa * dist)) @ coeff
    tol = 1e-12 + 8.0 * np.finfo(float).eps * kappa * r.max()
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    # a single point keeps the weight rows exactly, moments held or not
    one = scatter.VolumeField(kappa, None, coeff[:, 0], core, grid.cell_size)
    one.correction(pts)
    assert one._moments is not None
    row = _weight_rows(pts[:1], core.centers, hx, hy, kappa, coeff[:, 0])
    assert one.correction(pts[0]) == row[0]
    # two far points are a call like any other: the expansion serves them
    two = scatter.VolumeField(kappa, None, coeff, core, grid.cell_size)
    assert np.max(np.abs(two.correction(pts[:2]) - want[:2])) \
        <= tol * np.max(np.abs(want))
    assert two._moments is not None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.floats(0.25, 16.0),
       n=st.sampled_from([8, 16, 32]), r_lo_frac=st.floats(0.0, 1.0))
def test_exterior_expansion_matches_weight_rows(seed, kappa, n, r_lo_frac):
    # out to 10 rho_max the rows and the expansion differ by the rows' log
    # correction, cell average minus midpoint of ln|x - z|: by Taylor's
    # theorem at most |hx^2 - hy^2| / (24 r^2) + h^4 / (60 r^4), as
    # |d^2 ln| <= 1/r^2 and |d^4 ln| <= 6/r^4 (the first term vanishes on
    # square cells)
    grid, core, coeff, pts, _ = _expansion_case(seed, kappa, n, r_lo_frac,
                                                cols=1, top=5.0)
    coeff = coeff[:, 0]
    hx, hy = grid.cell_size
    field = scatter.VolumeField(kappa, None, coeff, core, grid.cell_size)
    got = field.correction(pts)
    assert field._moments is not None  # the call took the expansion
    rows = _weight_rows(pts, core.centers, hx, hy, kappa, coeff)
    dist = np.hypot(pts[:, None, 0] - core.centers[None, :, 0],
                    pts[:, None, 1] - core.centers[None, :, 1])
    h = max(hx, hy)
    cell = abs(hx * hx - hy * hy) / (24.0 * dist ** 2) \
        + h ** 4 / (60.0 * dist ** 4)
    bound = hx * hy / (2.0 * np.pi) * cell @ np.abs(coeff)
    scale = np.max(np.abs(rows))
    assert np.all(np.abs(got - rows) <= 2.0 * bound + 1e-12 * scale)
    if n == 32:
        assert np.max(np.abs(got - rows)) <= 1e-7 * scale


def test_exterior_expansion_falls_back_to_rows_when_not_finite():
    # at kappa 1e-6 the H_m of the high orders overflow just outside
    # 2 rho_max; the call then keeps the weight rows for every point
    grid, core, coeff, pts, _ = _expansion_case(7, 1e-6, 8, 0.0, cols=1)
    hx, hy = grid.cell_size
    field = scatter.VolumeField(1e-6, None, coeff[:, 0], core,
                                grid.cell_size)
    got = field.correction(pts)
    want = _weight_rows(pts, core.centers, hx, hy, 1e-6, coeff[:, 0])
    assert field._moments is not None  # formed before the H_m overflow
    assert np.array_equal(got, want)


LINE = LineSpec(point=(0.0, -2.0), theta=(1.0, 0.0))


def test_gkl_free_case_exact():
    report = gkl_reduce(free_grid(), LINE, (-3.0, 3.0), order=3)
    assert report.max_rel_err == 0.0
    assert report.defect_recovered == 0.0 and report.defect_direct == 0.0
    assert np.all(np.isnan(report.recovered.real[np.eye(5, dtype=bool)]))
    y = np.array([LINE.point[0] - 3.0, LINE.point[1]])
    x = np.array([LINE.point[0] + 3.0, LINE.point[1]])
    assert report.recovered[4, 0] == -free_kernel(x, y)


def test_gkl_small_real_v():
    grid = gauss_grid(24, amp=4.0, cx=0.05, cy=-0.08, width=0.16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gkl_reduce(grid, LINE, (-3.0, 3.0), order=3)
    assert report.max_rel_err <= 1e-2
    assert report.defect_direct <= 1e-8
    # triangle inequality ties the recovered defect to the recovery error
    assert report.defect_recovered <= 2.0 * report.max_rel_err \
        + report.defect_direct
    assert report.s_points.shape == (5,)


def test_gkl_complex_v_tilted_line():
    theta = np.array([2.0, 1.0]) / np.sqrt(5.0)
    line = LineSpec(point=(1.0, -1.8), theta=tuple(theta))
    grid = gauss_grid(24, amp=4.0, cx=0.05, cy=-0.08, width=0.16, phase=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gkl_reduce(grid, line, (-3.0, 3.0), order=3)
    assert report.max_rel_err <= 1e-2


def test_gkl_two_bumps_accuracy():
    # the benchmark's potential (two bumps, n = 32, kappa 2) seen from four
    # orientations at line offsets 1.55-1.85 from the box center: the
    # recovered table matches the direct one to 1e-5 of its peak
    grid = two_bump_grid(32, 2.0)
    for angle, offset in zip((0.3, 1.1, 2.0, 2.8), (1.55, 1.65, 1.75, 1.85)):
        nu = np.array([np.cos(angle), np.sin(angle)])
        line = LineSpec(point=tuple(offset * nu), theta=(-nu[1], nu[0]))
        report = gkl_reduce(grid, line, (-2.5, 2.0), order=3, n_points=6)
        assert report.max_rel_err <= 1e-5


def test_gkl_gap_rows_built_once(monkeypatch):
    # later sources on this line need a wider Karp gap than earlier ones;
    # the volume term is still evaluated in three calls, each for every
    # source at once: the line points, the schedule pairs on both sides,
    # then one gap lattice covering every source. The pair readings are
    # line data with a column per source, extracted in one batched
    # _extract_orders pass, with no per-source extract_all, and one gap
    # fit completes every source's trace
    grid = gauss_grid(8, amp=4.0, cx=0.05, cy=-0.08, width=0.16)
    solve_lippmann_schwinger(grid, (0.0, -2.0))  # factor the core up front
    calls, extractions, fits = [], [], []
    real = scatter.VolumeField.correction
    real_orders = farfield._extract_orders
    real_all = farfield.extract_all
    real_fit = propagate._im_fit

    def counting(self, x):
        calls.append(np.shape(x))
        return real(self, x)

    def counting_orders(data, *args):
        extractions.append(("orders", data.shape))
        return real_orders(data, *args)

    def counting_all(*args):
        extractions.append("extract_all")
        return real_all(*args)

    def counting_fit(*args):
        fits.append(np.shape(args[1]))
        return real_fit(*args)

    monkeypatch.setattr(scatter.VolumeField, "correction", counting)
    # _line_farfield reaches _extract_orders through farfield's own name
    monkeypatch.setattr(farfield, "_extract_orders", counting_orders)
    monkeypatch.setattr(farfield, "extract_all", counting_all)
    monkeypatch.setattr(propagate, "_im_fit", counting_fit)
    for n_points in (3, 5):
        calls.clear()
        extractions.clear()
        fits.clear()
        report = gkl_reduce(grid, LINE, (-1.0, 4.0), order=3,
                            n_points=n_points)
        assert report.max_rel_err <= 1e-2
        n_ray = 2 * schedule_for(grid.kappa, 3, 1e-6).radii.size
        assert len(calls) == 3
        assert calls[:2] == [(n_points, 2), (2 * n_ray, 2)]
        assert calls[2][0] % 2 == 0 and calls[2][1:] == (2,)
        assert extractions == [("orders", (n_points, 2, 2, n_ray // 2))]
        # the fit reads the lattice inside the gap: all but the 12 or 13
        # points per side in the wavelength past it
        assert len(fits) == 1 and fits[0][1] == n_points
        assert calls[2][0] - 26 <= fits[0][0] <= calls[2][0] - 24


def test_gkl_free_table_is_one_hankel_call(monkeypatch):
    # every off-diagonal G(x_i - x_j) comes from one batched hankel1 call,
    # and matches G evaluated pair by pair
    calls = []

    def counting(m, x):
        calls.append(np.shape(x))
        return hankel1(m, x)

    monkeypatch.setattr(scatter, "hankel1", counting)
    report = gkl_reduce(free_grid(), LINE, (-3.0, 2.0), order=3, n_points=6)
    assert calls == [(30,)]
    pts = np.asarray(LINE.point) + np.multiply.outer(report.s_points,
                                                     LINE.theta)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            g = free_kernel(pts[i], pts[j])
            assert abs(report.recovered[i, j] + g) <= 1e-14 * abs(g)
            assert abs(report.direct[i, j] + g) <= 1e-14 * abs(g)


@pytest.mark.parametrize("point, theta", [
    ((0.0, 0.0), (1.0, 0.0)),  # crosses the box
    ((0.0, -0.55), (1.0, 0.0)),  # 0.05 below it, within lambda / 4 = 0.39
    ((-0.8, 0.6), (0.6, 0.8)),  # tilted, 0.3 from the nearest corner
])
def test_gkl_line_must_clear_support(point, theta):
    with pytest.raises(ValueError, match="keep clear of the potential"):
        gkl_reduce(gauss_grid(8), LineSpec(point=point, theta=theta),
                   (-2.0, 2.0), order=3)


def test_gkl_validation():
    grid = gauss_grid(8)
    with pytest.raises(ValueError):
        gkl_reduce(grid, LINE, (2.0, -2.0), order=3)
    with pytest.raises(ValueError):
        gkl_reduce(grid, LINE, (-2.0, 2.0), order=3, n_points=1)
    with pytest.raises(ValueError):
        gkl_reduce(grid, LINE, (-2.0, 2.0), order=9)
