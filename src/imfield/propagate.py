"""Half-plane propagation of a radiation field from its trace on a line.

For a field radiating from sources on the +nu side of a line L, the value at
any point x of the opposite half-plane V_L is a single integral of the trace:

    psi(x) = -2 integral_L dG(x - y)/dnu_y psi(y) dy

with G(x) = (i/4) H_0(kappa |x|) and nu the unit normal of L pointing out of
V_L (toward the sources); with the normal flipped to point into V_L the
prefactor is +2. The identity follows from the Green representation of V_L
((Delta + kappa^2) G = -delta puts -psi(x) on the boundary-integral side)
plus its mirror-image counterpart, which cancels the single-layer term; the
sign and orientation are pinned by reproduction tests against directly
evaluated fields.

reconstruct_from_im chains the full pipeline: far-field extraction from
imaginary-part samples, conversion to a Karp expansion, evaluation of the
expansion back on the line, and propagation into the half-plane. The
samples become line data once (farfield._line_data: Im psi at signed
Karp-frame abscissas), which both the extraction and the gap fit read.
Callers that can evaluate Im psi anywhere on the line (the CLI and
scatter.gkl_reduce) pass _sampled_traces a sampler of it at points of the
line, and the centre the sources surround. It places the Karp frame and
reads the sampler only where the fit needs data: at the schedule pairs
+-(r, r + tau), then on a lambda/12 lattice over the Karp gap plus one
wavelength. The lattice meets the gap fit's coverage rule before it is
read, so data that stop short of the gap cost no read there.
The Karp series is trusted only where its last kept term is a small
fraction of its leading one, which leaves a gap segment around the
expansion origin q uncovered (no truncation order helps near q, where the
series cannot converge at all). The gap is completed by a short
outgoing-multipole expansion about the global origin, fitted by least
squares to the measured imaginary parts inside the gap alone: a radiating
field is determined by its imaginary part on a line. The trusted Karp
flanks only check the fit, which must match them within 5% on a band
past the gap. A trace reports its extent, |s_q| plus the gap, beyond which
it is the Karp sum, and _propagate_targets sizes the quadrature from it.

The trusted radius grows with the distance of q from the sources, so q
sits at the foot on L of the centre (_foot): of the origin for the CLI,
of the support centre for scatter.gkl_reduce.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .farfield import (ExtractionSchedule, _line_data, _line_farfield,
                       schedule_abscissas, schedule_for)
from .fields import ImSamples
from .karp import KarpCoeffs, _karp_sum, karp_from_farfield
from .specfun import _outgoing_design, hankel1

__all__ = [
    "LineSpec",
    "HalfPlaneSpec",
    "LineTrace",
    "green_kernel_normal",
    "propagate_halfplane",
    "karp_line_trace",
    "reconstruct_from_im",
]


@dataclass(frozen=True, eq=False)
class LineSpec:
    """A line given by a point on it and a unit direction."""

    point: tuple
    theta: tuple

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        t = np.asarray(self.theta, dtype=float)
        if p.shape != (2,) or t.shape != (2,):
            raise ValueError("point and theta must be planar vectors")
        norm = float(np.hypot(*t))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("theta must be a unit vector")
        object.__setattr__(self, "point", (float(p[0]), float(p[1])))
        object.__setattr__(self, "theta", (float(t[0]), float(t[1])))


@dataclass(frozen=True, eq=False)
class HalfPlaneSpec:
    """Half-plane V_L on the -normal side of the line; normal points outward."""

    line: LineSpec
    normal: tuple

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (2,):
            raise ValueError("normal must be a planar vector")
        if abs(float(np.hypot(*n)) - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector")
        t = np.asarray(self.line.theta)
        if abs(float(t @ n)) > 1e-14:
            raise ValueError("normal must be orthogonal to the line direction")
        object.__setattr__(self, "normal", (float(n[0]), float(n[1])))

    def signed_offset(self, x) -> float:
        """(x - line.point) . normal; negative inside V_L."""
        p = np.asarray(self.line.point)
        return float((np.asarray(x, dtype=float) - p) @ np.asarray(self.normal))


def _foot(line: LineSpec, point) -> np.ndarray:
    """Foot of point on line: the Karp frame origin for sources about point."""
    p0 = np.asarray(line.point)
    t = np.asarray(line.theta)
    return p0 + float((np.asarray(point, dtype=float) - p0) @ t) * t


# 6-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)

# The quadrature window is 1 on |s| <= _WINDOW_C * S and falls smoothly to 0
# at |s| = S; the steeper _WINDOW_C_CHECK window on the same nodes gives the
# error estimate.
_WINDOW_C = 0.3
_WINDOW_C_CHECK = 0.5
# Once both windows sit at rounding level their difference under-reads the
# error, so the estimate is floored at this fraction of the dot product's
# worst-case rounding n eps sum|kern_i vals_i|. Measured errors against the
# exact field (point source plus an m = 2 multipole, kappa 3-8, S = 100-800
# wavelengths, n = 12k-96k nodes) reach 0.0078 of it; the floor is 4x that.
_DOT_ROUNDING = 1.0 / 32.0
# Karp line traces run at least this many wavelengths either way, which
# puts the window error near rounding for targets near the line point.
_MIN_TRACE_WAVELENGTHS = 50.0


def _window(s, S, c):
    """Smooth cutoff exp(2 e^(-1/u) / (u - 1)), u = (|s| - cS) / ((1 - c) S).

    1 for |s| <= cS and 0 for |s| >= S, with every derivative continuous,
    so the windowed integral converges super-algebraically in S (Bruno,
    Lyon, Perez-Arancibia and Turc, SIAM J. Appl. Math. 2016).
    """
    u = (np.abs(s) - c * S) / ((1.0 - c) * S)
    out = (u <= 0.0).astype(float)
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    out[mid] = np.exp(2.0 * np.exp(-1.0 / um) / (um - 1.0))
    return out


@dataclass(frozen=True, eq=False)
class LineTrace:
    """Trace of psi on the line over [-S, S] in the line's abscissa.

    The provider func is a vectorized callable s -> psi, taken as fixed:
    the quadrature nodes and the trace values at them, folded with the
    quadrature weights and the window, are memoised per kappa, so every
    target propagated from one trace evaluates the trace once per node set.
    """

    S: float
    func: object
    panels_per_wavelength: int = 10
    _node_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.S <= 0:
            raise ValueError("S must be positive")
        if self.panels_per_wavelength < 1:
            raise ValueError("panels_per_wavelength must be >= 1")
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "panels_per_wavelength",
                           int(self.panels_per_wavelength))

    def psi(self, s):
        return np.asarray(self.func(np.asarray(s, dtype=float)), dtype=complex)

    def _nodes(self, kappa: float, c: float = _WINDOW_C):
        """Read-only nodes s and values -2 w W_c(s) psi(s), memoised.

        s and w are the composite 6-point Gauss-Legendre rule over [-S, S]
        with panels_per_wavelength panels per wavelength, W_c the window
        with flat part |s| <= cS, and -2 the Green representation's factor
        (nu points out of V_L). psi runs once per kappa, each window once.
        """
        key = float(kappa)
        if key not in self._node_cache:
            lam = 2.0 * np.pi / kappa
            n_panels = max(int(math.ceil(
                2.0 * self.S * self.panels_per_wavelength / lam)), 1)
            edges = np.linspace(-self.S, self.S, n_panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            s = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
            s.setflags(write=False)
            base = np.tile(-2.0 * half * _GL_WEIGHTS, n_panels) * self.psi(s)
            self._node_cache[key] = (s, base, {})
        s, base, windowed = self._node_cache[key]
        if c not in windowed:
            vals = _window(s, self.S, c) * base
            vals.setflags(write=False)
            windowed[c] = vals
        return s, windowed[c]


def green_kernel_normal(x, y, nu, kappa: float):
    """Normal derivative of the outgoing Green function, d/dnu_y G(x - y).

    G(x) = (i/4) H_0(kappa |x|) and dH_0/dz = -H_1 give
    (i kappa / 4) H_1(kappa d) (nu . (x - y)) / d with d = |x - y|.
    Accepts a batch of y points with shape (..., 2).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu = np.asarray(nu, dtype=float)
    diff = x - y
    d = np.hypot(diff[..., 0], diff[..., 1])
    if np.any(d == 0):
        raise ValueError("kernel is singular at x = y")
    proj = diff[..., 0] * nu[0] + diff[..., 1] * nu[1]
    out = 0.25j * kappa * hankel1(1, kappa * d) * proj / d
    return complex(out) if np.ndim(out) == 0 else out


def _quadrature(trace: LineTrace, spec: HalfPlaneSpec, x, kappa, estimate):
    """Windowed trace integral at x, and with estimate its error estimate.

    The estimate is the change from the steeper check window on the same
    nodes, one more dot product, floored at the dot's own rounding;
    otherwise it is None.
    """
    s, vals = trace._nodes(kappa)
    rel = np.asarray(x, dtype=float) - np.asarray(spec.line.point)
    a = float(rel @ np.asarray(spec.line.theta))  # foot of x on the line
    b = float(rel @ np.asarray(spec.normal))  # nu . (x - y) for every y on L
    d = np.hypot(s - a, b)
    # green_kernel_normal without its constant i/4: H_1(kappa d) kappa b / d
    kern = hankel1(1, kappa * d) * (kappa * b / d)
    value = 0.25j * np.dot(kern, vals)
    if not estimate:
        return value, None
    _, check = trace._nodes(kappa, _WINDOW_C_CHECK)
    rounding = _DOT_ROUNDING * s.size * np.finfo(float).eps \
        * 0.25 * np.sum(np.abs(kern * vals))
    return value, max(abs(value - 0.25j * np.dot(kern, check)), rounding)


def propagate_halfplane(trace: LineTrace, spec: HalfPlaneSpec, x, kappa: float,
                        tol: float = None, full_output: bool = False):
    """Field value at x in V_L from the line trace.

    Composite 6-point Gauss-Legendre quadrature over [-S, S] with
    trace.panels_per_wavelength panels per wavelength, of the integrand
    times a smooth window that is 1 on |s| <= 0.3 S and 0 at |s| = S (the
    windowed Green function method). Its error decays super-algebraically
    in S while the foot of x and the stationary point of the integrand
    stay inside the flat part: about 1e-13 relative at S = 50 wavelengths
    for targets and sources within a few wavelengths of the line point.
    The error is estimated as the change when the window's flat part is
    shrunk to |s| <= 0.5 S on the same nodes, floored at the rounding of
    the dot product (a fixed fraction of n eps sum |kern_i vals_i| over the
    n nodes); that costs one more dot product and runs only when tol is
    given (a coverage error is raised if the estimate exceeds it) or
    full_output is set, which adds a dict with the estimate as both
    "tail_bound" and "quad_error_estimate". The windowed trace values at
    the nodes are memoised on the trace per kappa, and its provider is
    taken as fixed, so calls for further targets evaluate only the kernel:
    one hankel1 call, one complex multiply and one dot.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    lam = 2.0 * np.pi / kappa
    if spec.signed_offset(x) > -0.25 * lam:
        raise ValueError(
            "x must lie inside V_L at least a quarter wavelength from L")
    value, est = _quadrature(trace, spec, x, kappa,
                             full_output or tol is not None)
    if tol is not None and est > tol:
        raise ValueError(
            f"trace half-length S={trace.S:.3g} leaves window error estimate "
            f"{est:.3g} above the requested tolerance {tol:.3g}")
    if full_output:
        return value, {"tail_bound": est, "quad_error_estimate": est}
    return value


# The Karp series is trusted where its last kept term is below this fraction
# of the leading one.
_TRUNC_TOL = 1e-3
# Singular values of the column-normalized gap fit below this fraction of
# the largest are dropped.
_SVD_CUTOFF = 1e-6


def _im_fit(A, im_values):
    """Multipole coefficients c whose imaginary parts Im(A c) fit im_values.

    Im(A c) = A.imag Re c + A.real Im c is real-linear in (Re c, Im c).
    One column-normalized np.linalg.lstsq call, which drops singular values
    below _SVD_CUTOFF of the largest, solves it for every column of
    im_values (one per series). Returns c of shape (A.shape[1], columns).
    """
    B = np.hstack([A.imag, A.real])
    nrm = np.linalg.norm(B, axis=0)
    nrm[nrm == 0] = 1.0
    u = np.linalg.lstsq(B / nrm, im_values, rcond=_SVD_CUTOFF)[0] \
        / nrm[:, None]
    return u[:A.shape[1]] + 1j * u[A.shape[1]:]


def _trusted_radius(kc: KarpCoeffs) -> float:
    """Distance from the Karp origin beyond which the truncation is trusted.

    The last kept term falls below _TRUNC_TOL of the leading one at
    (last / (lead _TRUNC_TOL))^(1/order); never less than two wavelengths.
    """
    if kc.order < 1:
        raise ValueError("need Karp order >= 1 to bound the series truncation")
    F = np.asarray(kc.F)
    G = np.asarray(kc.G)
    last = float(np.hypot(abs(F[-1]), abs(G[-1])))
    lead = float(np.hypot(abs(F[0]), abs(G[0])))
    if lead == 0.0:
        raise RuntimeError("Karp series has no usable leading term")
    lam = 2.0 * np.pi / kc.kappa
    return max((last / (lead * _TRUNC_TOL)) ** (1.0 / kc.order), 2.0 * lam)


def _shared_gap(kcs) -> float:
    """Half-width of the one Karp gap that series of one frame share.

    The widest _trusted_radius among the series with terms, so every
    series is trusted outside it; 0.0 when every series is zero, since a
    zero series has no gap and a zero trace.
    """
    return max((_trusted_radius(kc) for kc in kcs
                if np.any(kc.F) or np.any(kc.G)), default=0.0)


def _window_half_length(line: LineSpec, points, kappa: float) -> float:
    """Least trace half-length S that the windowed quadrature needs at points.

    The window's flat part |s| <= _WINDOW_C S must hold the stationary
    point of the integrand, which lies between the feet on the line of a
    target and of the sources. The sources sit near the global origin (the
    geometry of every supported scenario), so S keeps the feet of the
    origin and of every point 5 wavelengths inside that part; S is at
    least _MIN_TRACE_WAVELENGTHS wavelengths.
    """
    lam = 2.0 * np.pi / kappa
    pts = np.vstack([np.zeros((1, 2)), np.reshape(points, (-1, 2))])
    feet = np.abs((pts - np.asarray(line.point)) @ np.asarray(line.theta))
    return max(_MIN_TRACE_WAVELENGTHS * lam,
               (float(np.max(feet)) + 5.0 * lam) / _WINDOW_C)


def karp_line_trace(kc: KarpCoeffs, spec: HalfPlaneSpec, S: float,
                    im_points=None, im_values=None,
                    gap_center=None) -> LineTrace:
    """LineTrace over [-S, S] built from a Karp expansion on spec.line.

    The Karp frame origin q sits on the line; the truncated series is
    trusted at line abscissas s with |s - s_q| >= xi_gap, where xi_gap is
    the distance at which the last kept term falls below _TRUNC_TOL of the
    leading one. Inside the gap the series cannot be summed at any order,
    so the trace there comes from a fitted multipole expansion about
    gap_center (default: the global origin, which the sources surround in
    every supported scenario), fitted to measured imaginary parts:
    im_points (N x 2 points on spec.line, turned into Karp-frame abscissas
    here) with im_values = Im psi there must cover the gap at >= 10
    samples per wavelength.
    The fit uses multipole orders |m| <= kc.order + 2; a larger fixed
    count makes gkl_reduce miss its accuracy bound where kappa r is near
    3, since the high modes are unstable there.
    A RuntimeError reports a trace extent (_karp_line_traces) plus a
    10-wavelength check band past S, or a completion inconsistent with the
    Karp flanks (misfit on that band > 5% of the flank values).
    """
    xi = im = None
    if im_points is not None and im_values is not None:
        pts = np.asarray(im_points, dtype=float)
        t = np.asarray(spec.line.theta)
        if np.max(np.abs((pts - spec.line.point) @ (-t[1], t[0]))) > 1e-9:
            raise ValueError("im_points must lie on spec.line")
        xi = (pts - kc.origin_shift) @ (np.cos(kc.phi), np.sin(kc.phi))
        im = np.expand_dims(np.asarray(im_values, dtype=float), -1)
    psi, extent = _karp_line_traces([kc], spec.line, xi, im, gap_center)
    if extent and extent + 10.0 * (2.0 * np.pi / kc.kappa) > S:
        s_q = (np.asarray(kc.origin_shift) - spec.line.point) @ spec.line.theta
        raise RuntimeError(
            f"Karp series is trusted only beyond {extent - abs(s_q):.3g} from "
            f"its origin, too far out for trace half-length S={S:.3g}")
    return LineTrace(S=S, func=lambda s: psi(s)[..., 0])


class _GapCoverageError(ValueError):
    """The imaginary-part data stop short of the Karp gap."""


def _gap_coverage(xi, xi_gap, lam):
    """Mask of the abscissas xi inside the Karp gap |xi| <= xi_gap.

    The coverage rule of the gap fit: those abscissas must span the gap at
    >= 10 per wavelength, else _GapCoverageError.
    """
    inside = np.abs(xi) <= xi_gap
    xs = np.sort(xi[inside])
    step = lam / 10.0 + 1e-9
    if (xs.size < 2 or xs[0] > -xi_gap + step
            or xs[-1] < xi_gap - step or np.max(np.diff(xs)) > step):
        raise _GapCoverageError(
            f"imaginary-part data must cover |s - s_q| <= "
            f"{xi_gap:.3g} at >= 10 samples per wavelength")
    return inside


def _karp_line_traces(kcs, line: LineSpec, xi=None, im=None,
                      gap_center=None):
    """Line traces of several Karp series of one frame, one column each.

    The series must share kappa, phi, origin_shift and order (the Karp
    conversions of one ray pair, one per source) and run along line;
    the gap data are line data, Im psi (n x len(kcs)) im at the signed
    Karp-frame abscissas xi. The series share one gap, the widest of their
    trusted radii (_shared_gap), so each is trusted outside it; the gap
    data are checked once (_GapCoverageError if they stop short), and one
    least-squares fit of the Im rows (_im_fit) completes every series, one
    right-hand-side column each. The Karp values on a 10-wavelength band
    past each end of the gap then check the fit: the multipole sum must
    match them within 5% of their peak, else RuntimeError.
    Returns (psi, extent): psi(s) of shape np.atleast_1d(s).shape +
    (len(kcs),) at line abscissas s, and the extent |s_q| + gap about
    line.point beyond which psi is the trusted Karp sum (0.0 when every
    series is zero, as psi is then).
    """
    kc0 = kcs[0]
    frame = (kc0.kappa, kc0.phi, kc0.origin_shift, kc0.order)
    if any((kc.kappa, kc.phi, kc.origin_shift, kc.order) != frame
           for kc in kcs):
        raise ValueError("the Karp series must share kappa, phi, "
                         "origin_shift and order")
    kappa = kc0.kappa
    lam = 2.0 * np.pi / kappa
    q = np.asarray(kc0.origin_shift)
    p0 = np.asarray(line.point)
    t = np.asarray(line.theta)
    off = q - p0
    if abs(off[0] * t[1] - off[1] * t[0]) > 1e-9 * max(1.0, float(np.hypot(*off))):
        raise ValueError("Karp origin_shift does not lie on spec.line")
    s_q = float(off @ t)  # line abscissa of q
    theta_k = np.array([np.cos(kc0.phi), np.sin(kc0.phi)])
    if abs(abs(float(theta_k @ t)) - 1.0) > 1e-12:
        raise ValueError("the Karp frame does not run along spec.line")
    # orientation of the Karp angle along the line parameterization
    sign = 1.0 if float(theta_k @ t) > 0 else -1.0
    xi_gap = _shared_gap(kcs)

    def line_point(xi):
        return q + np.multiply.outer(xi, theta_k)

    gap_modes = kc0.order + 2
    if xi_gap:
        if xi is None or im is None:
            raise ValueError(
                "the Karp gap needs imaginary-part data covering "
                "|s - s_q| <= xi_gap on the line")
        xi, im = np.asarray(xi, dtype=float), np.asarray(im, dtype=float)
        if xi.ndim != 1 or im.shape != (xi.size, len(kcs)):
            raise ValueError("gap data must be abscissas (n,) with "
                             "imaginary parts (n, series)")
        inside = _gap_coverage(xi, xi_gap, lam)
        if gap_center is None:
            gap_center = (0.0, 0.0)
        gap_center = (float(gap_center[0]), float(gap_center[1]))
        if abs((np.asarray(gap_center) - p0) @ (-t[1], t[0])) <= 0.1 * lam:
            raise ValueError("gap_center sits on the line, where the "
                             "multipole basis is singular; pass a center "
                             "off the line")
        coeffs = _im_fit(_outgoing_design(line_point(xi[inside]), gap_center,
                                          kappa, gap_modes), im[inside])
        band = np.linspace(xi_gap, xi_gap + 10.0 * lam, 80)
        band = np.concatenate([-band[::-1], band])
        karp = _karp_sum(kcs, band)
        fit = _outgoing_design(line_point(band), gap_center, kappa,
                               gap_modes) @ coeffs
        misfit = np.abs(fit - karp).max(axis=0) \
            / np.maximum(np.abs(karp).max(axis=0), 1e-300)
        if misfit.max() > 0.05:
            raise RuntimeError(
                f"gap completion is inconsistent with the Karp flanks "
                f"(relative misfit {misfit.max():.3g})")

    def psi(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        xi = sign * (s - s_q)  # Karp-frame coordinate along theta_k
        out = np.zeros(s.shape + (len(kcs),), dtype=complex)
        if not xi_gap:
            return out
        gap = np.abs(xi) < xi_gap
        if np.any(~gap):
            out[~gap] = _karp_sum(kcs, xi[~gap])
        if np.any(gap):
            out[gap] = _outgoing_design(line_point(xi[gap]), gap_center,
                                        kappa, gap_modes) @ coeffs
        return out

    return psi, abs(s_q) + xi_gap if xi_gap else 0.0


# summed wall seconds per stage label inside the innermost _stage_timings
# block; None outside any block
_STAGE_TIMES = contextvars.ContextVar("stage_times", default=None)


@contextlib.contextmanager
def _stage_timings():
    """Yield a dict that collects {label: summed wall seconds} of _stage calls.

    A stage that raises is timed up to the raise, so after a failure the
    dict holds every stage run so far.
    """
    times = {}
    token = _STAGE_TIMES.set(times)
    try:
        yield times
    finally:
        _STAGE_TIMES.reset(token)


def _stage(label, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"[{label}] {exc}") from exc
    finally:
        times = _STAGE_TIMES.get()
        if times is not None:
            times[label] = times.get(label, 0.0) + time.perf_counter() - t0


def _read_pairs(im_at, kappa, order, schedule, line, centre):
    """Readings of im_at at the schedule pairs +-(r, r + tau), extracted.

    The Karp frame sits at q = _foot(line, centre) and runs along
    line.theta; im_at reads the points q +- (r, r + tau) theta. Returns
    their sorted signed abscissas in the frame, im_at's columns there, and
    one FarFieldCoeffs (origin_shift q) per column (stage "extract").
    """
    q = _foot(line, centre)
    a = schedule_abscissas(schedule)
    xi = np.concatenate([-a[::-1], a])
    im = im_at(q + np.multiply.outer(xi, line.theta))
    return xi, im, _stage("extract", _line_farfield, q, line.theta, xi, im,
                          order, schedule, kappa)


def _sampled_traces(im_at, kappa, order, schedule, line, centre=(0.0, 0.0),
                    reach=np.inf):
    """Line traces of a sampler of Im psi on line, for sources about centre.

    The sampling plan of line reconstruction: im_at(points) returns Im psi,
    one column per field, at points (n x 2) of the line. It is read at the
    schedule pairs of the Karp frame at the foot of centre (_read_pairs),
    which give one Karp series per column, and once more on the lattice
    (k + 1/2) lambda/12 of frame abscissas over the series' shared gap
    plus one wavelength, cut to the data reach |xi| < reach, for the one
    gap fit of _karp_line_traces about centre. The lattice meets the
    coverage rule of that fit (_gap_coverage) before im_at reads it, so a
    reach short of the gap raises _GapCoverageError without reading the
    field there. Returns (psi, extent) as _karp_line_traces does; stages
    "extract", "karp" and "trace".
    """
    *_, ffs = _read_pairs(im_at, kappa, order, schedule, line, centre)
    kcs = [_stage("karp", karp_from_farfield, ff) for ff in ffs]
    lam = 2.0 * np.pi / kappa
    gap = _stage("trace", _shared_gap, kcs)
    m = int(np.ceil((gap + lam) / (lam / 12.0)))
    xs = (np.arange(-m, m) + 0.5) * (lam / 12.0)
    xs = xs[np.abs(xs) < reach]
    if gap:
        _stage("trace", _gap_coverage, xs, gap, lam)
    pts = np.asarray(kcs[0].origin_shift) + np.multiply.outer(xs, line.theta)
    return _stage("trace", _karp_line_traces, kcs, line, xs, im_at(pts),
                  centre)


def _propagate_targets(func, extent, kappa, spec: HalfPlaneSpec, targets):
    """Field values at targets from the line trace func: s -> psi.

    extent is the half-length about spec.line.point beyond which the trace
    is the trusted Karp sum (_karp_line_traces; 0.0 for a trace known
    everywhere). The trace's half-length S is at least extent plus 12
    wavelengths, which holds the 10-wavelength check bands, and at least
    what _window_half_length asks for the targets.
    """
    S = max(_window_half_length(spec.line, targets, kappa),
            extent + 12.0 * (2.0 * np.pi / kappa))
    trace = LineTrace(S=S, func=func)
    return [_stage("propagate", propagate_halfplane, trace, spec, x, kappa)
            for x in targets]


def reconstruct_from_im(samples_plus: ImSamples, samples_minus: ImSamples,
                        order: int, spec: HalfPlaneSpec, targets,
                        schedule: ExtractionSchedule = None):
    """Field values at targets in V_L from imaginary-part samples on L.

    Pipeline: the ray pair becomes line data once (farfield._line_data),
    which feeds _line_farfield -> karp_from_farfield and the gap fit of
    _karp_line_traces; propagate_halfplane then runs per target from the
    one trace, which is evaluated once on the quadrature nodes. Stage
    labels are prefixed onto any error raised along the way. The samples
    do double duty: the schedule abscissas feed the far-field solve, and
    the samples in the Karp gap feed its completion fit, so they should
    also cover the near segment of the line at >= 10 points per
    wavelength. The rays must lie on spec.line, with the sources near the
    global origin on its non-V_L side. The Karp frame sits where the rays
    start, and its trusted radius grows with that point's distance from
    the sources, so callers should start both rays at the foot of the
    origin on the line, the frame the CLI's sampler reads in. Without a
    schedule, schedule_for builds one for the larger noise_sigma of the
    two sample sets. The trace half-length S is the Karp trusted radius
    plus the Karp origin's distance along the line plus 12 wavelengths, at
    least 50 wavelengths, and wide enough that every target's foot on the
    line (and the origin's) sits 5 wavelengths inside the window's flat
    part |s| <= 0.3 S, which keeps the windowed propagation near rounding.
    """
    kappa = samples_plus.kappa
    if schedule is None:
        schedule = schedule_for(kappa, order, max(samples_plus.noise_sigma,
                                                  samples_minus.noise_sigma))
    q, theta, xi, im = _stage("extract", _line_data, samples_plus,
                              samples_minus)
    ff, = _stage("extract", _line_farfield, q, theta, xi, im, order,
                 schedule, kappa)
    kc = _stage("karp", karp_from_farfield, ff)
    psi, extent = _stage("trace", _karp_line_traces, [kc], spec.line, xi, im)
    return _propagate_targets(lambda s: psi(s)[..., 0], extent, kappa, spec,
                              targets)
