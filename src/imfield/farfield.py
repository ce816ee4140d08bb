"""Recovery of far-field coefficients from weighted imaginary-part samples.

The field behaves like sqrt(2/(pi kappa r)) e^{i(kappa r - pi/4)}
sum_j f_j(phi) r^-j along a ray, so I(r) = sqrt(r) Im(psi) mixes Re f and
Im f through known sine/cosine weights. Two samples a quarter-period apart
give a well-conditioned 2x2 real system for f_0; higher coefficients follow
recursively by subtracting the known part of the expansion and re-weighting
the remainder, and every estimate is accelerated by polynomial extrapolation
in 1/r.

Abscissa convention: all extraction operations interpret an abscissa s as
the distance |x| from the expansion origin (the frame in which the f_j are
defined); the lower-level operations expect samples already in the frame.
Data on a line take one form, line data: Im psi at the sorted signed
abscissas xi of a frame at a point q of the line, one column per series.
_line_data builds it from a ray pair, and _line_farfield extracts every
column; extract_all chains the two. Samplers of Im psi (the CLI,
gkl_reduce) reach _line_farfield through propagate._read_pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import ImSamples
from .specfun import _reduce_phase

__all__ = [
    "FarFieldCoeffs",
    "ExtractionSchedule",
    "make_schedule",
    "schedule_for",
    "schedule_abscissas",
    "weighted_im",
    "extract_f0_two_point",
    "extract_next_coeff",
    "extract_sequence_extrapolated",
    "extract_all",
    "extract_least_squares",
    "farfield_to_dict",
    "farfield_from_dict",
]


@dataclass(frozen=True, eq=False)
class FarFieldCoeffs:
    """Far-field coefficients at an antipodal pair of angles.

    f_plus[j] = f_j(phi) and f_minus[j] = f_j(phi + pi), expressed in the
    frame centered at origin_shift (a point q in the plane).
    """

    kappa: float
    phi: float
    f_plus: list
    f_minus: list
    origin_shift: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        fp = [complex(v) for v in self.f_plus]
        fm = [complex(v) for v in self.f_minus]
        if len(fp) != len(fm):
            raise ValueError("f_plus and f_minus must have equal length")
        q = tuple(float(v) for v in self.origin_shift)
        if len(q) != 2:
            raise ValueError("origin_shift must be a point in the plane")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "f_plus", fp)
        object.__setattr__(self, "f_minus", fm)
        object.__setattr__(self, "origin_shift", q)

    @property
    def order(self) -> int:
        return len(self.f_plus) - 1


@dataclass(frozen=True, eq=False)
class ExtractionSchedule:
    """Radii (near-geometric, increasing), pair offset tau, extrapolation depth."""

    radii: np.ndarray
    tau: float
    extrapolation_depth: int = 3

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("radii must be a nonempty 1-d sequence")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("radii must be positive and strictly increasing")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.extrapolation_depth < 0:
            raise ValueError("extrapolation_depth must be >= 0")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "extrapolation_depth",
                           int(self.extrapolation_depth))


def make_schedule(kappa: float, s0: float = None, growth: float = 2.0,
                  count: int = 11, tau: float = None, depth: int = 3,
                  snap: bool = True) -> ExtractionSchedule:
    """Near-geometric radius schedule s0 * growth^k, k = 0..count-1.

    tau defaults to a quarter period pi/(2 kappa), the best-conditioned
    choice (|sin(kappa tau)| = 1). With snap=True each radius is moved to
    the nearest integer multiple of the wavelength 2 pi / kappa, which
    freezes the residual oscillation e^{2 i kappa r} of the two-point
    estimator across the schedule: the remaining error is then a smooth
    power series in 1/r, exactly what polynomial extrapolation removes.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if s0 is None:
        s0 = 1e3 / kappa
    if tau is None:
        tau = np.pi / (2.0 * kappa)
    if growth <= 1.0:
        raise ValueError("growth must exceed 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    raw = s0 * growth ** np.arange(count)
    if snap:
        lam = 2.0 * np.pi / kappa
        n = np.maximum(np.round(raw / lam), 1.0)
        radii = np.unique(n) * lam
    else:
        radii = raw
    return ExtractionSchedule(radii=radii, tau=float(tau), extrapolation_depth=depth)


def schedule_for(kappa: float, order: int, data_tol: float) -> ExtractionSchedule:
    """Extraction schedule for f_0..f_order from samples accurate to data_tol.

    Extracting f_j multiplies the absolute sample error data_tol by r^j, so
    the top radius is r_max = (0.03 / data_tol)^(1/order). Exact data still
    carry rounding and count as data_tol = 1e-10: at order 3, line
    reconstructions worked alike with floors from 1e-12 to 1e-8, lost
    accuracy at 1e-13 and failed more often from 1e-7 on. Below order 3 that
    bound is loose (absent at order 0), so r_max is also held to 3e4 / kappa,
    past which the rounding in the extrapolated f_0 and f_1 grows. Ten radii
    run from max(3 wavelengths, r_max / 8) to r_max, snapped to whole
    wavelengths, and tau is a quarter period. Raises ValueError when r_max
    falls below 6 wavelengths: the usable radius window collapses.
    """
    if kappa <= 0 or data_tol < 0:
        raise ValueError("kappa must be positive and data_tol >= 0")
    lam = 2.0 * np.pi / kappa
    tol = max(data_tol, 1e-10)
    r_max = (0.03 / tol) ** (1.0 / order) if order else np.inf
    if order <= 2:
        r_max = min(r_max, 3e4 / kappa)
    if r_max < 6.0 * lam:
        raise ValueError("order too high for the sample accuracy: the "
                         "usable radius window collapses")
    s0 = max(3.0 * lam, r_max / 8.0)
    growth = (r_max / s0) ** (1.0 / 9.0)
    return make_schedule(kappa, s0=s0, growth=growth, count=10)


def schedule_abscissas(schedule: ExtractionSchedule) -> np.ndarray:
    """Sorted unique abscissas an extraction needs: every radius and its pair."""
    r = schedule.radii
    return np.unique(np.concatenate([r, r + schedule.tau]))


def weighted_im(psi_im: float, r: float) -> float:
    """I-value sqrt(r) * Im(psi); raises for r <= 0."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("r must be positive")
    out = np.sqrt(r_arr) * np.asarray(psi_im, dtype=float)
    return float(out) if out.ndim == 0 else out


def _pair_abscissas(radii, tau) -> np.ndarray:
    """(2, R) array of the radii and their pairs r + tau."""
    radii = np.asarray(radii, dtype=float)
    return np.stack([radii, radii + tau])


def _lookup(a, values, s) -> np.ndarray:
    """values at the abscissas s (any shape) of the sorted abscissas a.

    One searchsorted serves every s. Each s takes the nearest abscissa of
    a, which must match it within 1e-9 relative; the first miss in
    schedule order (r_0, r_0 + tau, r_1, ...) is named in the error by its
    distance |s|, with the side when s < 0.
    """
    s = np.asarray(s, dtype=float)
    miss = np.ones(s.shape, dtype=bool)
    if a.size:
        hi = np.minimum(np.searchsorted(a, s), a.size - 1)
        lo = np.maximum(hi - 1, 0)
        idx = np.where(np.abs(a[hi] - s) < np.abs(a[lo] - s), hi, lo)
        miss = np.abs(a[idx] - s) > 1e-9 * np.maximum(1.0, np.abs(s))
    if np.any(miss):
        bad = float(s.T[miss.T][0])
        side = " on the minus side" if bad < 0 else ""
        raise ValueError(f"required abscissa {abs(bad)!r} not present in "
                         f"samples{side}")
    return values[idx]


def _model_I(known, s, kappa: float, sin, cos):
    """I-values at s of the truncated expansions known[..., 0..n].

    sin and cos are taken of the reduced phase kappa s - pi/4. known has
    shape (..., n + 1); the result has shape known.shape[:-1] + s.shape.
    """
    coeffs = known.reshape(known.shape[:-1] + (1,) * s.ndim + known.shape[-1:])
    poly = np.zeros(known.shape[:-1] + s.shape, dtype=complex)
    for j in range(known.shape[-1]):
        poly += coeffs[..., j] * s ** (-float(j))
    # Im(e^{i phase} poly)
    return np.sqrt(2.0 / (np.pi * kappa)) * (cos * poly.imag + sin * poly.real)


def _raw_estimates(data, s, known, kappa: float, tau: float) -> np.ndarray:
    """Two-point estimates of f_{n+1} from f_0..f_n at every radius at once.

    data holds the I-values at s = _pair_abscissas(radii, tau), shape
    (..., 2, R); known holds f_0..f_n, shape (..., n + 1), with n + 1 = 0 for
    f_0. The known part of the expansion is subtracted, the remainder
    re-weighted by s^{n+1} (which behaves like a leading-order far field
    with coefficient f_{n+1}), and the 2x2 systems
    sin(a) Re f + cos(a) Im f = b at a(r), a(r + tau) are solved in closed
    form; their determinant is -sin(kappa tau). Returns shape (..., R).
    Warns once when float rounding amplified by r^{n+1} at the largest
    radius can no longer be neglected.
    """
    if abs(np.sin(kappa * tau)) < 1e-6:
        raise ValueError("tau is too close to a resonance: |sin(kappa tau)| < 1e-6")
    known = np.asarray(known, dtype=complex)
    # reduce kappa*s mod 2 pi before subtracting pi/4: at s ~ 1e5 the naive
    # phase loses ~1e-11 rad, which the recursion amplifies by s^{n+1}
    phase = _reduce_phase(kappa * s) - 0.25 * np.pi
    sin, cos = np.sin(phase), np.cos(phase)
    m = known.shape[-1]
    if m:
        unc = 2.22e-16 * np.maximum(1.0, np.max(np.abs(known), axis=-1))
        if np.any(unc * np.max(s[0]) ** m > 0.1):
            warnings.warn(
                "coefficient uncertainty amplified by r^(n+1) exceeds 0.1; "
                "reduce the radius or the order",
                RuntimeWarning,
                stacklevel=3,
            )
        data = s ** m * (data - _model_I(known, s, kappa, sin, cos))
    b = np.sqrt(np.pi * kappa / 2.0) * data
    det = sin[0] * cos[1] - cos[0] * sin[1]
    re_f = (cos[1] * b[..., 0, :] - cos[0] * b[..., 1, :]) / det
    im_f = (sin[0] * b[..., 1, :] - sin[1] * b[..., 0, :]) / det
    return re_f + 1j * im_f


def _check_pair(r: float, tau: float):
    if r <= 0:
        raise ValueError("r must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")


def extract_f0_two_point(I_x: float, I_y: float, r: float, tau: float,
                         kappa: float) -> complex:
    """Leading far-field coefficient from one sample pair, error O(1/r).

    I_x and I_y are the weighted imaginary parts at distances r and r + tau
    from the expansion origin.
    """
    _check_pair(r, tau)
    data = np.array([[I_x], [I_y]], dtype=float)
    return complex(_raw_estimates(data, _pair_abscissas([r], tau), (),
                                  kappa, tau)[0])


def extract_next_coeff(samples: ImSamples, known, r: float, tau: float) -> complex:
    """One induction step: estimate f_{n+1} given f_0..f_n, at radius r.

    Subtracts the model I-values of the known part, re-weights the remainder
    by s^{n+1} (which behaves like a leading-order far field with
    coefficient f_{n+1}), and applies the two-point solve at (r, r + tau).
    Emits a RuntimeWarning when float rounding amplified by r^{n+1} can no
    longer be neglected.
    """
    known = np.array([complex(f) for f in known], dtype=complex)
    if known.size == 0:
        raise ValueError("known must contain at least f_0")
    _check_pair(r, tau)
    s = _pair_abscissas([r], tau)
    data = _lookup(samples.abscissas, samples.values, s)
    return complex(_raw_estimates(data, s, known, samples.kappa, tau)[0])


def _neville(t, tab, depth: int):
    """Depth-level Neville entry of the last row on nodes t, extrapolated to 0.

    tab has shape (len(t), ...): one tableau per trailing batch index.
    """
    tab = np.array(tab, dtype=complex)
    shape = (-1,) + (1,) * (tab.ndim - 1)
    # column j of the tableau, kept in place: tab[k] = P_{k-j..k}(0);
    # increment form keeps constant sequences exactly constant
    for j in range(1, depth + 1):
        tk = t[j:].reshape(shape)
        gap = (t[:-j] - t[j:]).reshape(shape)
        tab[j:] = tab[j:] + tk * (tab[j:] - tab[j - 1:-1]) / gap
    return tab[-1]


def extract_sequence_extrapolated(estimates, depth: int) -> complex:
    """Polynomial extrapolation of (r_k, v_k) to r = infinity in powers of 1/r.

    Builds the Neville tableau on nodes 1/r_k and returns the depth-level
    entry of the last row; depth 0 is the raw estimate at the largest radius.
    """
    pts = [(float(r), complex(v)) for r, v in estimates]
    if not pts:
        raise ValueError("estimates must be nonempty")
    if any(r <= 0 for r, _ in pts):
        raise ValueError("radii must be positive")
    if depth < 0 or depth > len(pts) - 1:
        raise ValueError("depth must satisfy 0 <= depth <= len(estimates) - 1")
    t = np.array([1.0 / r for r, _ in pts])
    if len(np.unique(t)) != len(t):
        raise ValueError("radii must be distinct")
    return complex(_neville(t, [v for _, v in pts], depth))


def _line_data(samples_plus: ImSamples, samples_minus: ImSamples):
    """Line data (q, theta, xi, im) of two opposite rays on one line.

    q is the midpoint of the ray origins and theta the plus ray's
    direction; xi holds the sorted signed frame abscissas (x - q) . theta
    of the samples, negative on the minus ray, and im (n, 1) their Im psi
    without the sqrt(|x|) weight about the global origin.
    """
    if samples_plus.kappa != samples_minus.kappa:
        raise ValueError("sample sets disagree on kappa")
    rp, rm = samples_plus.ray, samples_minus.ray
    dp = rp.orientation * np.asarray(rp.direction)
    dm = rm.orientation * np.asarray(rm.direction)
    if abs(dp @ dm + 1.0) > 1e-12:
        raise ValueError("rays must point in opposite directions")
    gap = np.subtract(rm.origin, rp.origin)
    if abs(gap[0] * dp[1] - gap[1] * dp[0]) > 1e-9 * max(1.0, float(np.hypot(*gap))):
        raise ValueError("rays are not collinear")
    q = 0.5 * np.add(rp.origin, rm.origin)
    pts = np.vstack([rp.point(samples_plus.abscissas),
                     rm.point(samples_minus.abscissas)])
    xi = (pts - q) @ dp
    n_plus = samples_plus.abscissas.size
    if np.any(xi[:n_plus] <= 0) or np.any(xi[n_plus:] >= 0):
        raise ValueError("a sample lies on the wrong side of the shift point")
    r_global = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(r_global == 0):
        raise ValueError("a sample sits at the global origin; cannot un-weight")
    im = np.concatenate([samples_plus.values, samples_minus.values]) \
        / np.sqrt(r_global)
    order = np.argsort(xi)
    return q, dp, xi[order], im[order, None]


def _extract_orders(data, n: int, schedule: ExtractionSchedule,
                    kappa: float) -> np.ndarray:
    """f_0..f_n from I-values data (..., 2, R) at the schedule pairs.

    The induction runs once per order, each pass covering every radius and
    every leading batch index (the rays); returns shape (..., n + 1).
    """
    radii = schedule.radii
    s = _pair_abscissas(radii, schedule.tau)
    t = 1.0 / radii
    known = np.zeros(data.shape[:-2] + (0,), dtype=complex)
    for j in range(n + 1):
        ests = _raw_estimates(data, s, known, kappa, schedule.tau)
        d = min(max(schedule.extrapolation_depth, n - j + 1), radii.size - 1)
        f_j = _neville(t, np.moveaxis(ests, -1, 0), d)
        known = np.concatenate([known, f_j[..., None]], axis=-1)
    return known


def _line_farfield(q, theta, xi, im, n: int, schedule: ExtractionSchedule,
                   kappa: float) -> list:
    """One FarFieldCoeffs (f_0..f_n, origin_shift = q) per column of line data.

    One lookup reads every column at +-(r, r + tau), weighted by sqrt(s),
    and one _extract_orders pass extracts every column on both sides.
    """
    if abs(np.sin(kappa * schedule.tau)) < 0.5:
        raise ValueError("schedule tau violates |sin(kappa tau)| >= 0.5")
    s = _pair_abscissas(schedule.radii, schedule.tau)
    data = np.moveaxis(_lookup(xi, im, np.stack([s, -s])), -1, 0) * np.sqrt(s)
    phi = float(np.arctan2(theta[1], theta[0]))
    return [FarFieldCoeffs(kappa=kappa, phi=phi, f_plus=fp, f_minus=fm,
                           origin_shift=(float(q[0]), float(q[1])))
            for fp, fm in _extract_orders(data, n, schedule, kappa)]


def extract_all(samples_plus: ImSamples, samples_minus: ImSamples, n: int,
                schedule: ExtractionSchedule) -> FarFieldCoeffs:
    """Far-field coefficients f_0..f_n at both angles of a sampled line.

    The two rays must lie on one line with opposite directions. The
    expansion origin q is the midpoint of the two ray origins; each sample
    is re-expressed as Im psi at its distance s from q and weighted by
    sqrt(s), so the returned coefficients live in the shifted frame
    (origin_shift = q). Every schedule radius r and its pair r + tau must
    be resolvable in both sample sets after the shift.
    """
    ff, = _line_farfield(*_line_data(samples_plus, samples_minus), n,
                         schedule, samples_plus.kappa)
    return ff


def extract_least_squares(samples: ImSamples, n: int, model_order: int = None):
    """All coefficients at once by linear least squares on the I-model.

    Fits I(s) = sqrt(2/(pi kappa)) Im(e^{i(kappa s - pi/4)} sum_j f_j s^-j)
    in the real unknowns (Re f_j, Im f_j). The fitted model order may exceed
    the reported order n to absorb tail bias. Raises when the sample set is
    too small, spans less than one wavelength, or yields a design matrix
    with condition number above 1e12.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    s = samples.abscissas
    kappa = samples.kappa
    if s.size < 4 * (n + 1):
        raise ValueError("need at least 4(n+1) samples")
    lam = 2.0 * np.pi / kappa
    if s[-1] - s[0] < lam:
        raise ValueError("samples must span at least one wavelength")
    if model_order is None:
        model_order = n + 2
    model_order = max(model_order, n)
    scale = np.sqrt(2.0 / (np.pi * kappa))
    phase = _reduce_phase(kappa * s) - 0.25 * np.pi
    cols = []
    smid = np.median(s)
    for j in range(model_order + 1):
        base = (smid / s) ** float(j)  # normalized to condition the fit
        cols.append(scale * np.sin(phase) * base)   # Re f_j
        cols.append(scale * np.cos(phase) * base)   # Im f_j
    design = np.stack(cols, axis=1)
    cond = np.linalg.cond(design)
    if cond > 1e12:
        raise ValueError(f"design matrix is rank deficient (cond={cond:.3g})")
    sol, *_ = np.linalg.lstsq(design, samples.values, rcond=None)
    out = []
    for j in range(n + 1):
        re_f, im_f = sol[2 * j], sol[2 * j + 1]
        out.append(complex(re_f, im_f) * smid ** float(j))
    return out


def farfield_to_dict(c: FarFieldCoeffs) -> dict:
    """JSON-ready dict for far-field coefficients."""
    return {
        "kappa": c.kappa,
        "phi": c.phi,
        "q": list(c.origin_shift),
        "f_plus": [[v.real, v.imag] for v in c.f_plus],
        "f_minus": [[v.real, v.imag] for v in c.f_minus],
    }


def farfield_from_dict(data: dict) -> FarFieldCoeffs:
    """Inverse of farfield_to_dict."""
    return FarFieldCoeffs(
        kappa=float(data["kappa"]),
        phi=float(data["phi"]),
        f_plus=[complex(re, im) for re, im in data["f_plus"]],
        f_minus=[complex(re, im) for re, im in data["f_minus"]],
        origin_shift=tuple(data.get("q", (0.0, 0.0))),
    )
