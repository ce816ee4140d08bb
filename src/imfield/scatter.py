"""Volume-potential scattering generator and a data-reduction demo.

The outgoing resolvent kernel R(x, y) of the perturbed Helmholtz operator
satisfies the volume integral equation

    R(x, y) = -G(x - y) + integral_Omega G(x - z) v(z) R(z, y) dz,

with G(x) = (i/4) H_0(kappa |x|) the free outgoing kernel and v a bounded
complex potential supported on a rectangle Omega. The equation is
discretized by a Nystrom method on the cell centers of an n x n grid with
product integration of the logarithmic part of G: the cell weight is the
exact integral of -(1/2 pi) ln|x - z| over the cell (closed form) plus the
midpoint value of the smooth remainder. That keeps the weight matrix
symmetric and the scheme second order, where plain midpoint stalls at
O(n^-1 log n) on the diagonal. The weight between two cells depends only
on their index offset, so the operator is a block-Toeplitz convolution with
an n x n stencil: n^2 kernel evaluations build it, and a 2n x 2n FFT applies
it (Vainikko, "Fast solvers of the Lippmann-Schwinger equation", 2000). The
interior system (I - W diag v) u = b is solved matrix-free by restarted
GMRES (Saad and Schultz, 1986), batched over right-hand sides; no n^2 x n^2
array is formed. Each step solves the small least-squares problems of all
columns together: one batched QR gives their residuals, and one batched
minimum-norm solve per restart cycle their Krylov coefficients.

Far-field links implemented here: for |x| large,

    R(x, y)          ~ -(1/2) sqrt(1/(2 pi kappa |x|)) e^{i(kappa|x| + pi/4)}
                       psi(y, -kappa x/|x|),
    psi_sc(x, k)     ~ e^{i kappa |x|} / sqrt(|x|) A(k, kappa x/|x|),

where psi(., k) = e^{i k .} + psi_sc is the total plane-wave field with
incident wavevector k, |k| = kappa, and A is the scattering amplitude.
Both limits are read off exactly, with no far point evaluated: far from
Omega each corrected weight tends to hx hy G(x - z_c), because the cell
average of the harmonic log differs from its midpoint value only by
O(h^2/|x - z|^2) (O(h^4/|x - z|^4) on square cells). So for the discrete
solution u the limit is the finite Fourier sum

    A(k, x_hat) = (1/4) sqrt(2/(pi kappa)) e^{i pi/4} hx hy
                  sum_c e^{-i kappa x_hat . z_c} v_c u_c,

and psi_plus_farfield is the plane wave plus the same sum for the
resolvent's coefficients over the first prefactor.

The volume term has two evaluators behind one method,
VolumeField.correction. Weight rows (the corrected cell weights, one
hankel1 call and four log primitives per cell and point) serve single
points and points within twice the support radius rho_max of its centre
c. The other points of a call use the exterior expansion of Graf's
addition theorem (Abramowitz and Stegun 9.1.79), H_|m|(kappa |x - c|)
e^{i m phi_x} times 2M + 1 multipole moments, M set once per grid for
the nearest such points, at 2 rho_max. Its columns come from
specfun._outgoing_design, the outgoing-multipole basis that the gap fit
of the line traces uses too. The moments are formed once per
field from a source-independent J_|m| table of the cells, built on the
solver core on first use. The expansion is the midpoint rule for G, so
it keeps full accuracy at any distance, where the corner differences of
the log primitive cancel as |x - z| / h grows.

gkl_reduce demonstrates the reduction of the data Im R(x, y) on a line to
the full complex R: the free part is removed analytically (Im G is the
smooth function (1/4) J_0(kappa |x - y|)), the remainder D = R + G radiates
from Omega only, and G is added back at the end. One field with a column
per source evaluates D at the line points, and Im D in the Karp frame at
the foot q of the support centre (propagate._foot) is the sampler that
propagate._sampled_traces reads: at +-(r, r + tau) of the schedule for
one extraction of all sources, then on the gap lattice for the one gap
fit of their traces, which share one gap, the widest of their trusted
radii, and one Karp sum per point set. Each of the three calls serves
every source at once.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .specfun import EULER_GAMMA, _jy, _outgoing_design, hankel1
from .farfield import schedule_for
from .propagate import HalfPlaneSpec, LineSpec, _foot, _sampled_traces

__all__ = [
    "PotentialGrid",
    "GreenOperatorMatrix",
    "green_operator_matrix",
    "solve_lippmann_schwinger",
    "check_reciprocity",
    "plane_wave_solution",
    "psi_plus_farfield",
    "scattering_amplitude",
    "GklReport",
    "gkl_reduce",
    "potential_to_dict",
    "potential_from_dict",
]


@dataclass(frozen=True, eq=False)
class PotentialGrid:
    """Complex potential sampled on the n x n cell centers of a rectangle.

    bbox = (x0, y0, x1, y1); cell (i, j) is centered at
    (x0 + (i + 1/2) hx, y0 + (j + 1/2) hy), i.e. the first index walks the
    x axis. v vanishes identically outside the rectangle.
    """

    bbox: tuple
    n: int
    v: np.ndarray
    kappa: float

    def __post_init__(self):
        box = tuple(float(b) for b in self.bbox)
        if len(box) != 4 or not all(np.isfinite(box)):
            raise ValueError("bbox must be (x0, y0, x1, y1), finite")
        if box[2] <= box[0] or box[3] <= box[1]:
            raise ValueError("bbox must have positive width and height")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        vv = np.asarray(self.v, dtype=complex)
        if vv.shape != (self.n, self.n):
            raise ValueError("v must have shape (n, n)")
        if not np.all(np.isfinite(vv)):
            raise ValueError("v must be finite")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "bbox", box)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "v", vv)
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def cell_size(self):
        x0, y0, x1, y1 = self.bbox
        return (x1 - x0) / self.n, (y1 - y0) / self.n

    @property
    def v_flat(self) -> np.ndarray:
        return self.v.reshape(-1)

    @property
    def is_free(self) -> bool:
        return not np.any(self.v)

    def centers(self) -> np.ndarray:
        """Cell centers, shape (n*n, 2), first index of v varying slowest."""
        x0, y0, _, _ = self.bbox
        hx, hy = self.cell_size
        xs = x0 + (np.arange(self.n) + 0.5) * hx
        ys = y0 + (np.arange(self.n) + 0.5) * hy
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)

    def center_point(self):
        x0, y0, x1, y1 = self.bbox
        return np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])


@dataclass(frozen=True, eq=False)
class GreenOperatorMatrix:
    """Discretization of u -> integral_Omega G(x - z) v(z) u(z) dz on the centers.

    stencil[a, b] is the corrected cell integral of G about a center at
    index offset (+-a, +-b) from it; the weight depends on nothing else. The
    operator is W diag(v) with the symmetric n^2 x n^2 weight matrix W
    gathered from the stencil, but apply() never forms W: it convolves with
    the stencil embedded in a 2n x 2n circulant (row n and column n zero),
    whose FFT is computed once here. weights and matrix gather the dense
    view for tests and small grids.
    """

    kappa: float
    stencil: np.ndarray
    v: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        st = np.asarray(self.stencil, dtype=complex)
        vv = np.asarray(self.v, dtype=complex)
        if st.ndim != 2 or st.shape[0] != st.shape[1] or vv.shape != st.shape:
            raise ValueError("stencil must be square and match v")
        if not np.all(np.isfinite(st)):
            raise ValueError("stencil must be finite")
        n = st.shape[0]
        # circulant row a holds offset a for a < n and 2n - a for a > n
        fold = np.r_[np.arange(n), 0, np.arange(n - 1, 0, -1)]
        circ = st[fold[:, None], fold[None, :]]
        circ[n, :] = 0.0
        circ[:, n] = 0.0
        object.__setattr__(self, "stencil", st)
        object.__setattr__(self, "v", vv)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "_spectrum", np.fft.fft2(circ))

    @property
    def n(self) -> int:
        return self.stencil.shape[0]

    def apply(self, u):
        """W (v * u) for u of shape (N,) or (N, m), N = n^2, one column each.

        One batched FFT pad-multiply-crop over all columns.
        """
        u = np.asarray(u)
        n = self.n
        if u.shape[0] != n * n or u.ndim not in (1, 2):
            raise ValueError("u must have shape (n*n,) or (n*n, m)")
        cells = u.reshape(n, n, -1) * self.v[:, :, None]
        spec = np.fft.fft2(cells, s=(2 * n, 2 * n), axes=(0, 1))
        out = np.fft.ifft2(spec * self._spectrum[:, :, None], axes=(0, 1))
        return out[:n, :n].reshape(u.shape)

    @property
    def weights(self) -> np.ndarray:
        """The dense symmetric weight matrix W, gathered from the stencil."""
        steps = np.arange(self.n)
        delta = np.abs(np.subtract.outer(steps, steps))
        w = self.stencil[delta[:, None, :, None], delta[None, :, None, :]]
        return w.reshape(self.n * self.n, -1)

    @property
    def matrix(self) -> np.ndarray:
        """The dense operator matrix W diag(v)."""
        return self.weights * self.v.reshape(-1)[None, :]


def _log_primitive(x, y):
    """F with d2F/dxdy = ln sqrt(x^2 + y^2); odd in each argument.

    Corner differences of F integrate ln|z| exactly over any axis-aligned
    rectangle, including rectangles containing the origin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * x * y * (np.log(r2) - 3.0)
        out = np.where(r2 > 0.0, out, 0.0)
        ax = np.where(x != 0.0, 0.5 * x * x * np.arctan(
            np.divide(y, x, out=np.zeros_like(y + x), where=x != 0.0)), 0.0)
        ay = np.where(y != 0.0, 0.5 * y * y * np.arctan(
            np.divide(x, y, out=np.zeros_like(y + x), where=y != 0.0)), 0.0)
    return out + ax + ay


def _log_rect_integral(u, w, hx, hy):
    """integral of ln|z| over the rectangle with center (u, w), sides hx, hy.

    The singular point is the coordinate origin; it may lie inside, on the
    boundary of, or far from the rectangle.
    """
    p, q = 0.5 * hx, 0.5 * hy
    return (_log_primitive(u + p, w + q) - _log_primitive(u - p, w + q)
            - _log_primitive(u + p, w - q) + _log_primitive(u - p, w - q))


def _weight_rows(points, centers, hx, hy, kappa, coeff=None):
    """Corrected cell weights, shape (len(points), len(centers)).

    Row i approximates cell integrals of G(x_i - z): midpoint of the smooth
    remainder G + (1/2 pi) ln plus the exact log integral. Valid for any
    x_i, on a cell center included. With coeff (shape (len(centers),) or
    (len(centers), m)) the result is rows @ coeff, each chunk of rows
    reduced as soon as it is built, so the full row matrix is never held.
    """
    pts = np.asarray(points, dtype=float)
    cen = np.asarray(centers, dtype=float)
    area = hx * hy
    c0 = 0.25j + (np.log(2.0) - EULER_GAMMA - np.log(kappa)) / (2.0 * np.pi)
    tail = (cen.shape[0],) if coeff is None else np.shape(coeff)[1:]
    out = np.empty((pts.shape[0],) + tail, dtype=complex)
    # chunk the rows to bound the temporaries at desk scale
    chunk = max(1, int(2 ** 16 // max(cen.shape[0], 1)))
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo:lo + chunk]
        dx = cen[None, :, 0] - block[:, None, 0]
        dy = cen[None, :, 1] - block[:, None, 1]
        d = np.hypot(dx, dy)
        smooth = np.full(d.shape, c0, dtype=complex)
        pos = d > 0.0
        if np.any(pos):
            dp = d[pos]
            smooth[pos] = 0.25j * hankel1(0, kappa * dp) \
                + np.log(dp) / (2.0 * np.pi)
        logint = _log_rect_integral(dx, dy, hx, hy)
        rows = area * smooth - logint / (2.0 * np.pi)
        out[lo:lo + chunk] = rows if coeff is None else rows @ coeff
    return out


def green_operator_matrix(grid: PotentialGrid) -> GreenOperatorMatrix:
    """The corrected-weight operator of the grid, built from its stencil.

    The weight between two cells depends only on their index offset and is
    even in each component, so one row over the n x n non-negative offsets
    defines it: n^2 kernel evaluations, no n^2 x n^2 array, and an exactly
    symmetric operator. Applying it costs one 2n x 2n FFT convolution.
    """
    n = grid.n
    hx, hy = grid.cell_size
    steps = np.arange(n)
    di, dj = np.meshgrid(steps * hx, steps * hy, indexing="ij")
    offsets = np.stack([di.reshape(-1), dj.reshape(-1)], axis=1)
    stencil = _weight_rows(np.zeros((1, 2)), offsets, hx, hy,
                           grid.kappa).reshape(n, n)
    return GreenOperatorMatrix(kappa=grid.kappa, stencil=stencil, v=grid.v)


# restarted GMRES: Krylov dimension per cycle, total iteration cap, and the
# relative residual every right-hand side must reach
_GMRES_RESTART = 60
_GMRES_MAX_ITER = 600
_GMRES_TOL = 1e-12


def _gmres(matvec, b):
    """Restarted GMRES for matvec(x) = b, all columns of b (N, m) at once.

    Each column runs its own Arnoldi process (classical Gram-Schmidt,
    applied twice), vectorised over the columns, so one matvec call per
    step serves every column. After step j each column has the small
    least-squares problem min |beta e_1 - H y|, H its (j + 2) x (j + 1)
    Hessenberg matrix. Its residual is beta |Q[0, -1]|, Q from the
    complete QR of H, one batched np.linalg.qr for all columns. The cycle
    ends once every residual is <= _GMRES_TOL |b|; then one batched
    minimum-norm solve (np.linalg.pinv) gives every y, finite also where
    a column converged early or broke down. Stops early when H turns
    non-finite, when a restart cycle fails to halve the largest residual
    left (a stall), or at _GMRES_MAX_ITER steps. Returns x, each column's
    relative residual (recomputed from b - matvec(x)) and the step count.
    """
    bnorm = np.linalg.norm(b, axis=0)
    scale = np.where(bnorm > 0.0, bnorm, 1.0)
    x = np.zeros_like(b)
    r = b
    rel = bnorm / scale
    steps = 0
    while True:
        active = ~(rel <= _GMRES_TOL)  # NaN counts as unconverged
        if not active.any() or steps >= _GMRES_MAX_ITER:
            return x, rel, steps
        k = min(_GMRES_RESTART, _GMRES_MAX_ITER - steps)
        beta = np.linalg.norm(r[:, active], axis=0)
        basis = np.zeros((k + 1, b.shape[0], beta.size), dtype=complex)
        basis[0] = r[:, active] / np.where(beta > 0.0, beta, 1.0)
        hess = np.zeros((beta.size, k + 1, k), dtype=complex)
        for j in range(k):
            w = matvec(basis[j])
            for _ in range(2):
                h = np.einsum("inm,nm->im", basis[:j + 1].conj(), w)
                w = w - np.einsum("inm,im->nm", basis[:j + 1], h)
                hess[:, :j + 1, j] += h.T
            hn = np.linalg.norm(w, axis=0)
            hess[:, j + 1, j] = hn
            basis[j + 1] = w / np.where(hn > 0.0, hn, 1.0)
            small = hess[:, :j + 2, :j + 1]
            if not np.all(np.isfinite(small[:, :, j])):
                return x, rel, steps + j + 1
            q = np.linalg.qr(small, mode="complete")[0]
            if np.all(beta * np.abs(q[:, 0, -1]) <= _GMRES_TOL * scale[active]):
                break
        steps += j + 1
        y = beta[:, None] * np.linalg.pinv(small)[:, :, 0]
        x[:, active] += np.einsum("inm,mi->nm", basis[:j + 1], y)
        start = rel
        r = b - matvec(x)
        rel = np.linalg.norm(r, axis=0) / scale
        if not np.all(rel[active] <= np.maximum(0.5 * start[active],
                                                 _GMRES_TOL)):
            return x, rel, steps


class _SolverCore:
    """The interior operator of one grid, shared across source points.

    It also holds the source-independent half of the exterior expansion
    (VolumeField.correction), built on first use, never here: a core built
    for a single solve never pays for it.
    """

    __slots__ = ("op", "centers", "_expansion")

    def __init__(self, grid: PotentialGrid):
        self.centers = grid.centers()
        self.op = green_operator_matrix(grid)
        self._expansion = None

    def expansion(self):
        """(c, rho_max, table): the support centre c, the largest distance
        rho_max from c to a cell center, and J_|m|(kappa rho_z) e^{-i m phi_z}
        for m = -M..M (rows) over the cells (columns), in polar coordinates
        about c. The table is None for a single cell (rho_max 0)."""
        if self._expansion is None:
            c = 0.5 * (self.centers.min(axis=0) + self.centers.max(axis=0))
            rel = self.centers - c
            rho = np.hypot(rel[:, 0], rel[:, 1])
            rho_max = float(rho.max())
            table = None
            if rho_max > 0.0:
                m_top = _expansion_order(self.op.kappa, rho_max)
                orders = np.arange(-m_top, m_top + 1)
                phi = np.arctan2(rel[:, 1], rel[:, 0])
                jm = _jy(m_top, self.op.kappa * rho, need_y=False,
                         every=True)[0]
                table = jm[np.abs(orders)] \
                    * np.exp(-1j * np.multiply.outer(orders, phi))
            self._expansion = (c, rho_max, table)
        return self._expansion

    def solve(self, b):
        """u with (I - W diag v) u = b, for b of shape (N,) or (N, m).

        Raises RuntimeError when GMRES cannot reach the relative residual
        _GMRES_TOL: the system is singular or too ill-conditioned, i.e. the
        unique-solvability condition fails (or nearly fails) at this kappa.
        """
        b = np.asarray(b, dtype=complex)
        cols = b.reshape(b.shape[0], -1)
        # an exact power-of-two scale per column keeps squared norms in range
        unit = np.ldexp(1.0, -np.frexp(np.max(np.abs(cols), axis=0))[1])
        u, rel, steps = _gmres(lambda x: x - self.op.apply(x), cols * unit)
        worst = float(np.max(rel))
        if not worst <= _GMRES_TOL:
            raise RuntimeError(
                f"interior system is singular or near-singular: GMRES "
                f"reached relative residual {worst:.3g} after {steps} "
                f"iterations (target {_GMRES_TOL:g}); the unique-solvability "
                "condition fails for this potential and kappa; it is "
                "reported rather than regularized")
        return (u / unit).reshape(b.shape)


_CORES = weakref.WeakKeyDictionary()


def _core(grid: PotentialGrid) -> _SolverCore:
    core = _CORES.get(grid)
    if core is None:
        core = _SolverCore(grid)
        _CORES[grid] = core
    return core


def _expansion_order(kappa, rho_max):
    """Order at which the exterior expansion is truncated, from the geometry.

    The m-th term of Graf's sum is J_m(kappa rho_z) H_m(kappa r). Past
    m = kappa rho_max the bound J_m(x) <= (x/2)^m / m! falls faster than
    geometrically; past m = kappa r the product falls like (rho_max / r)^m,
    at most 2^-m on the far points r >= 2 rho_max, so
    kappa rho_max + log2(1 / eps) orders reach rounding level at every far
    point even where kappa r is small. The order is the larger of the two
    counts, plus a margin.
    """
    log_eps = math.log(np.finfo(float).eps)
    x = kappa * rho_max
    m_j = math.ceil(x)
    while m_j * math.log(0.5 * x) - math.lgamma(m_j + 1) > log_eps:
        m_j += 1
    m_geo = math.ceil(x) + math.ceil(-log_eps / math.log(2.0))
    return max(m_j, m_geo) + 3


def _free_kernel(kappa, x):
    """G(x) = (i/4) H_0(kappa |x|) on points of shape (..., 2)."""
    pts = np.asarray(x, dtype=float)
    d = np.hypot(pts[..., 0], pts[..., 1])
    if np.any(d == 0.0):
        raise ValueError("free kernel is singular at zero separation")
    return 0.25j * hankel1(0, kappa * d)


class VolumeField:
    """Incident term plus the volume term integral_Omega G(x - z) v(z) u(z) dz.

    One evaluator serves the resolvent R(., y), whose incident term is
    -G(. - y), and the plane-wave total field psi(., k), whose incident term
    is e^{i k .}. coeff holds v u on the cell centers of core, one column
    per field when it is 2-d (then only correction applies, and incident
    may be None); it is None for a zero potential (built without any
    solve), and then the volume term vanishes identically. correction(x) is
    the volume term alone; it is smooth across x = y.
    """

    __slots__ = ("kappa", "incident", "coeff", "core", "cell_size",
                 "_moments")

    def __init__(self, kappa, incident, coeff=None, core=None,
                 cell_size=None):
        self.kappa = float(kappa)
        self.incident = incident
        self.coeff = coeff
        self.core = core
        self.cell_size = cell_size
        self._moments = None

    def correction(self, x):
        """The volume term at points x of shape (..., 2).

        A single point (shape (2,)) and the points near the support are
        summed over the corrected weight rows. Points outside the disk of
        radius 2 rho_max about the support centre c (rho_max the largest
        distance from c to a cell center) use the exterior expansion
        (Abramowitz and Stegun 9.1.79),

            (i/4) sum_{|m| <= M} H_|m|(kappa |x - c|) e^{i m phi_x} a_m,
            a_m = hx hy sum_z J_|m|(kappa rho_z) e^{-i m phi_z} coeff_z,

        the midpoint rule for G. It differs from the rows by their
        log-integral correction, O(h^2 / |x - z|^2) (O(h^4 / |x - z|^4) on
        square cells), and unlike them loses no digits far out. The a_m are
        formed on the first call with a far point and kept for later calls.

        A single point keeps the rows even when far: at n = 32 a fresh
        core's J table took 6.5-9.7 ms against 0.7-1.0 ms for one row sum
        (one BLAS thread, 2-core x86-64; re-measure before quoting), over
        half an ls-solve request, whose two reciprocity probes are single.
        """
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1] != 2:
            raise ValueError("x must have shape (..., 2)")
        if self.coeff is None:
            out = np.zeros(pts.shape[:-1], dtype=complex)
            return complex(out) if pts.ndim == 1 else out
        flat = pts.reshape(-1, 2)
        vals = np.empty((flat.shape[0],) + self.coeff.shape[1:], dtype=complex)
        far = self._exterior(flat, vals) if pts.ndim > 1 else None
        rows = slice(None) if far is None else ~far
        if far is None or not far.all():
            hx, hy = self.cell_size
            vals[rows] = _weight_rows(flat[rows], self.core.centers, hx, hy,
                                      self.kappa, self.coeff)
        out = vals.reshape(pts.shape[:-1] + self.coeff.shape[1:])
        return complex(out) if out.ndim == 0 else out

    def _exterior(self, flat, vals):
        """Fill vals at the points the exterior expansion serves; return
        their mask, or None when it serves none of them."""
        c, rho_max, table = self.core.expansion()
        if table is None:  # a single cell: no disk to be outside of
            return None
        rel = flat - c
        r = np.hypot(rel[:, 0], rel[:, 1])
        far = r >= 2.0 * rho_max
        if not far.any():
            return None
        if self._moments is None:
            hx, hy = self.cell_size
            self._moments = hx * hy * (table @ self.coeff)
        m_top = (table.shape[0] - 1) // 2
        where = np.flatnonzero(far)
        # chunk the points to bound the (points x orders) temporaries
        chunk = max(1, 2 ** 18 // table.shape[0])
        for lo in range(0, where.size, chunk):
            sel = where[lo:lo + chunk]
            design = _outgoing_design(flat[sel], c, self.kappa, m_top)
            if not np.all(np.isfinite(design)):  # tiny kappa r or huge M
                return None
            vals[sel] = 0.25j * (design @ self._moments)
        return far

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        return self.incident(pts) + self.correction(pts)

    def far_field(self, xhat):
        """lim sqrt(r) e^{-i kappa r} correction(r x_hat) for unit rows xhat.

        The exact limit of the discrete volume term: the Fourier sum of coeff
        over the cell centers (module docstring), one (directions x cells)
        phase matrix times coeff.
        """
        if self.coeff is None:
            return np.zeros(xhat.shape[0], dtype=complex)
        hx, hy = self.cell_size
        scale = 0.25 * np.sqrt(2.0 / (np.pi * self.kappa)) \
            * np.exp(0.25j * np.pi) * hx * hy
        phase = np.exp(-1j * self.kappa * (xhat @ self.core.centers.T))
        return scale * (phase @ self.coeff)


def solve_lippmann_schwinger(grid: PotentialGrid, y) -> VolumeField:
    """Evaluator for the outgoing resolvent kernel R(., y) of the grid.

    For a zero potential the free kernel -G(x - y) is returned without
    assembling or solving anything. Otherwise the interior values on the
    cell centers solve (I - W diag(v)) u = -G(. - y) with the corrected
    weight matrix W, and the evaluator applies one more corrected
    quadrature of G v u plus the free term. Raises RuntimeError when the
    interior system is (near-)singular, i.e. the unique-solvability
    condition fails at this kappa.
    """
    y = np.array(y, dtype=float)
    if y.shape != (2,):
        raise ValueError("y must be a point in the plane")
    kappa = grid.kappa

    def incident(x):
        return -_free_kernel(kappa, x - y)

    if grid.is_free:
        return VolumeField(kappa, incident)
    core = _core(grid)
    gap = np.hypot(core.centers[:, 0] - y[0], core.centers[:, 1] - y[1])
    if np.min(gap) < 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise ValueError("y coincides with a cell center; offset it")
    rhs = -_free_kernel(kappa, core.centers - y)
    coeff = grid.v_flat * core.solve(rhs)
    return VolumeField(kappa, incident, coeff, core, grid.cell_size)


def check_reciprocity(grid: PotentialGrid, x, y) -> float:
    """|R(x,y) - R(y,x)| / max(|R(x,y)|, tiny); zero for a free grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rxy = solve_lippmann_schwinger(grid, y)(x)
    ryx = solve_lippmann_schwinger(grid, x)(y)
    return abs(rxy - ryx) / max(abs(rxy), 1e-300)


def plane_wave_solution(grid: PotentialGrid, k) -> VolumeField:
    """Total field for an incident plane wave e^{i k x}, |k| = kappa."""
    k = np.array(k, dtype=float)
    if k.shape != (2,):
        raise ValueError("k must be a planar wavevector")
    if abs(float(np.hypot(*k)) - grid.kappa) > 1e-9 * grid.kappa:
        raise ValueError("|k| must equal kappa")

    def incident(x):
        return np.exp(1j * (x @ k))

    if grid.is_free:
        return VolumeField(grid.kappa, incident)
    core = _core(grid)
    coeff = grid.v_flat * core.solve(np.exp(1j * (core.centers @ k)))
    return VolumeField(grid.kappa, incident, coeff, core, grid.cell_size)


def _unit(vec, name):
    v = np.asarray(vec, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"{name} must be a planar vector")
    norm = float(np.hypot(*v))
    if norm == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return v / norm


def psi_plus_farfield(grid: PotentialGrid, y, direction) -> complex:
    """Total plane-wave field psi(y, k) for k = -kappa*direction, read off R.

    At large |x| the kernel behaves like
    -(1/2) sqrt(1/(2 pi kappa |x|)) e^{i(kappa|x| + pi/4)} psi(y, -kappa x/|x|),
    and the exact limit is read off: the incident term -G(x - y) gives the
    plane wave e^{i k y}, and the volume term gives its far field (the
    Fourier sum of far_field) over -(1/2) sqrt(1/(2 pi kappa)) e^{i pi/4}.
    For a zero potential the result is the plane wave alone.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ValueError("y must be a point in the plane")
    xhat = _unit(direction, "direction")
    field = solve_lippmann_schwinger(grid, y)
    pref = -0.5 * np.sqrt(1.0 / (2.0 * np.pi * grid.kappa)) \
        * np.exp(0.25j * np.pi)
    plane = np.exp(-1j * grid.kappa * (xhat @ y))
    return complex(plane + field.far_field(xhat[None])[0] / pref)


def scattering_amplitude(grid: PotentialGrid, k, directions):
    """Amplitudes A(k, kappa x_hat) for each observation direction x_hat.

    The scattered part of the plane-wave field behaves like
    e^{i kappa |x|} / sqrt(|x|) A at large |x|. A is computed as the exact
    far-field limit of the discrete solution, a Fourier sum over the cells
    (module docstring), so no far-field point is evaluated. Returns a
    complex array, one entry per direction; identically zero for a zero
    potential.
    """
    field = plane_wave_solution(grid, k)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.ndim != 2 or dirs.shape[1] != 2:
        raise ValueError("directions must have shape (m, 2)")
    norms = np.hypot(dirs[:, 0], dirs[:, 1])
    if not np.all(norms > 0.0):
        raise ValueError("directions must be nonzero")
    return field.far_field(dirs / norms[:, None])


@dataclass(frozen=True)
class GklReport:
    """Recovered vs direct resolvent table on line points Lambda x Lambda.

    Diagonal entries are NaN (R is singular at coinciding arguments). The
    defects are max |T - T^T| over off-diagonal pairs, and all three metrics
    are relative to the largest off-diagonal direct value.
    """

    s_points: np.ndarray
    recovered: np.ndarray
    direct: np.ndarray
    max_rel_err: float
    defect_recovered: float
    defect_direct: float


def _offdiag_scale(table):
    mask = ~np.eye(table.shape[0], dtype=bool)
    return float(np.max(np.abs(table[mask])))


def _table_defect(table, scale):
    mask = ~np.eye(table.shape[0], dtype=bool)
    gap = np.abs(table - table.T)[mask]
    return float(np.max(gap)) / scale


def _line_clears_support(grid: PotentialGrid, line: LineSpec) -> bool:
    """Whether the support rectangle of grid lies strictly on one side of
    line, at least a quarter wavelength away; otherwise R is not a
    radiation solution past the line."""
    x0, y0, x1, y1 = grid.bbox
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
    t = np.asarray(line.theta)
    offs = (corners - np.asarray(line.point)) @ np.array([-t[1], t[0]])
    lam = 2.0 * np.pi / grid.kappa
    return bool(offs.min() * offs.max() > 0.0
                and np.min(np.abs(offs)) >= 0.25 * lam)


def gkl_reduce(grid: PotentialGrid, line: LineSpec, interval, order: int,
               n_points: int = 5, data_tol: float = 1e-6) -> GklReport:
    """Recover complex R(x, y) on Lambda x Lambda from Im R sampled on the line.

    Lambda is n_points equally spaced points of the interval (given in the
    line's abscissa). For each source y in Lambda the free part is removed,
    D = R + G, whose imaginary part on the line is Im R + (1/4) J_0(kappa
    |x - y|); D radiates from Omega only. Im D in the Karp frame at the
    foot of the support centre, a column per source, is the sampler of
    propagate._sampled_traces: read at the signed abscissas +-(r, r + tau)
    of the schedule it gives a Karp series per source, and read on a gap
    lattice it completes the traces of all sources in one gap fit over
    their one shared gap, the widest of their trusted radii; subtracting G
    turns D into R.
    Returns the recovered and directly solved tables with relative error and
    reciprocity-defect metrics. The line must keep clear of Omega; data_tol
    is the absolute accuracy of the sampled imaginary parts (solver grade by
    default), from which schedule_for sets the extraction radii.
    """
    if not isinstance(line, LineSpec):
        raise ValueError("line must be a LineSpec")
    s_min, s_max = float(interval[0]), float(interval[1])
    if not s_max > s_min:
        raise ValueError("interval must satisfy s_min < s_max")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    if not _line_clears_support(grid, line):
        raise ValueError("line must keep clear of the potential support")
    kappa = grid.kappa
    p0 = np.asarray(line.point)
    theta = np.asarray(line.theta)
    nu = np.array([-theta[1], theta[0]])

    center = grid.center_point()
    origin = _foot(line, center)
    spec = HalfPlaneSpec(line=line, normal=tuple(nu))
    s_pts = np.linspace(s_min, s_max, n_points)
    lam_pts = p0 + np.multiply.outer(s_pts, theta)

    schedule = schedule_for(kappa, order, data_tol)

    # D = R + G on the line points, column j for source j: read directly
    # off the interior solution, and recovered from its imaginary part read
    # in the Karp frame at the foot of the support center
    d_recovered = np.zeros((n_points, n_points), dtype=complex)
    d_direct = np.zeros((n_points, n_points), dtype=complex)
    if not grid.is_free:  # else D vanishes identically
        core = _core(grid)
        rhs = -_free_kernel(kappa, core.centers[:, None] - lam_pts[None, :])
        # D(., y_j) is the volume term of R(., y_j), column j of one field
        d_field = VolumeField(kappa, None,
                              grid.v_flat[:, None] * core.solve(rhs), core,
                              grid.cell_size)
        d_direct = d_field.correction(lam_pts)
        _, traces = _sampled_traces(
            lambda xi: d_field.correction(
                origin + np.multiply.outer(xi, theta)).imag,
            kappa, order, schedule, spec, origin, gap_center=tuple(center))
        d_recovered = traces(s_pts)

    # R = D - G off the diagonal, where G(x_i - x_j) is finite
    mask = ~np.eye(n_points, dtype=bool)
    g = _free_kernel(kappa, (lam_pts[:, None] - lam_pts[None, :])[mask])
    recovered = np.full((n_points, n_points), np.nan + 0j, dtype=complex)
    direct = np.full((n_points, n_points), np.nan + 0j, dtype=complex)
    recovered[mask] = d_recovered[mask] - g
    direct[mask] = d_direct[mask] - g

    scale = _offdiag_scale(direct)
    err = float(np.max(np.abs((recovered - direct)[mask]))) / scale
    return GklReport(s_points=s_pts, recovered=recovered, direct=direct,
                     max_rel_err=err,
                     defect_recovered=_table_defect(recovered, scale),
                     defect_direct=_table_defect(direct, scale))


def potential_to_dict(grid: PotentialGrid) -> dict:
    """JSON-ready dict; v is row-major over the (n, n) cell array."""
    return {
        "bbox": list(grid.bbox),
        "n": grid.n,
        "kappa": grid.kappa,
        "v": [[val.real, val.imag] for val in grid.v_flat],
    }


def potential_from_dict(data: dict) -> PotentialGrid:
    """Inverse of potential_to_dict."""
    n = int(data["n"])
    flat = np.array([complex(re, im) for re, im in data["v"]])
    if flat.size != n * n:
        raise ValueError("v must hold n*n entries")
    return PotentialGrid(bbox=tuple(data["bbox"]), n=n,
                         v=flat.reshape(n, n), kappa=float(data["kappa"]))
