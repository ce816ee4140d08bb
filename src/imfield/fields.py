"""Exact radiation fields: synthesis, evaluation, far-field oracles, sampling.

A RadiationField is a finite superposition of outgoing multipoles and point
sources; it solves the Helmholtz equation with wavenumber kappa outside the
disk of radius source_radius and satisfies the outgoing radiation condition.
These fields provide the ground truth that the reconstruction pipeline is
tested against: exact field values anywhere, exact far-field coefficients,
and weighted imaginary-part samples I(x) = sqrt(|x|) Im(psi(x)) along rays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j, hankel1, hankel_asym_coeffs, j0_roots

__all__ = [
    "Multipole",
    "PointSource",
    "RadiationField",
    "RayGeometry",
    "ImSamples",
    "CounterexampleReport",
    "eval_field",
    "farfield_oracle",
    "sample_im_on_ray",
    "counterexample_report",
    "field_to_dict",
    "field_from_dict",
]

# Conversion of a point source to a multipole series stops once the Bessel
# weight drops below this threshold past the turning point.
_GRAF_TOL = 1e-16
_GRAF_MAX_ORDER = 200


@dataclass(frozen=True)
class Multipole:
    """Term c * H_m(kappa r) * exp(i m phi), an outgoing cylindrical wave."""

    m: int
    c: complex

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError("multipole order must be a nonnegative integer")
        object.__setattr__(self, "c", complex(self.c))


@dataclass(frozen=True)
class PointSource:
    """Term c * (i/4) H_0(kappa |x - y0|): outgoing fundamental solution at y0."""

    y0: tuple
    c: complex

    def __post_init__(self):
        y0 = tuple(float(v) for v in self.y0)
        if len(y0) != 2:
            raise ValueError("y0 must be a point in the plane")
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "c", complex(self.c))


@dataclass(frozen=True, eq=False)
class RadiationField:
    """Finite superposition of outgoing terms, singular only inside B_rho.

    source_radius is the radius rho of a disk containing every singularity;
    if omitted it defaults to the smallest admissible value.
    """

    terms: tuple
    kappa: float
    source_radius: float = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "kappa", float(self.kappa))
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, (Multipole, PointSource)):
                raise ValueError("terms must be Multipole or PointSource")
        object.__setattr__(self, "terms", terms)
        needed = 0.0
        for t in terms:
            if isinstance(t, PointSource):
                needed = max(needed, float(np.hypot(*t.y0)))
        rho = needed if self.source_radius is None else float(self.source_radius)
        if rho < 0:
            raise ValueError("source_radius must be >= 0")
        if rho + 1e-12 < needed:
            raise ValueError("a point source lies outside the source disk")
        object.__setattr__(self, "source_radius", rho)


@dataclass(frozen=True, eq=False)
class RayGeometry:
    """Ray x(s) = origin + orientation * s * direction, s > 0."""

    origin: tuple
    direction: tuple
    orientation: int = 1

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        direction = tuple(float(v) for v in self.direction)
        if len(origin) != 2 or len(direction) != 2:
            raise ValueError("origin and direction must be points in the plane")
        if abs(np.hypot(*direction) - 1.0) > 1e-14:
            raise ValueError("direction must be a unit vector")
        orientation = {"+": 1, "-": -1, 1: 1, -1: -1}.get(self.orientation)
        if orientation is None:
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "orientation", orientation)

    def point(self, s):
        """Point(s) on the ray at arclength s (scalar or array)."""
        s = np.asarray(s, dtype=float)
        o = np.asarray(self.origin)
        d = self.orientation * np.asarray(self.direction)
        return o + np.multiply.outer(s, d)


@dataclass(frozen=True, eq=False)
class ImSamples:
    """Weighted imaginary-part samples I = sqrt(|x|) Im(psi) along a ray."""

    ray: RayGeometry
    abscissas: np.ndarray
    values: np.ndarray
    kappa: float
    noise_sigma: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.abscissas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if a.ndim != 1 or v.ndim != 1 or a.shape != v.shape:
            raise ValueError("abscissas and values must be 1-d of equal length")
        if a.size and (np.any(a <= 0) or np.any(np.diff(a) <= 0)):
            raise ValueError("abscissas must be positive and strictly increasing")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        object.__setattr__(self, "abscissas", a)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))


@dataclass(frozen=True)
class CounterexampleReport:
    """Nonuniqueness exhibit: a circle where Im(psi) vanishes but psi does not."""

    radius: float
    max_abs_im: float
    max_abs_psi: float


def eval_field(field: RadiationField, x) -> complex:
    """Evaluate psi at x (shape (2,) or (..., 2)); exact up to float rounding.

    Raises ValueError when x coincides with a singular point of the field.
    """
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError("x must have shape (..., 2)")
    scalar = pts.ndim == 1
    flat = pts.reshape(-1, 2)
    out = np.zeros(flat.shape[0], dtype=complex)
    kappa = field.kappa
    for term in field.terms:
        if isinstance(term, Multipole):
            r = np.hypot(flat[:, 0], flat[:, 1])
            if np.any(r == 0.0):
                raise ValueError("evaluation point coincides with the multipole center")
            phi = np.arctan2(flat[:, 1], flat[:, 0])
            out += term.c * hankel1(term.m, kappa * r) * np.exp(1j * term.m * phi)
        else:
            d = np.hypot(flat[:, 0] - term.y0[0], flat[:, 1] - term.y0[1])
            if np.any(d == 0.0):
                raise ValueError("evaluation point coincides with a point source")
            out += term.c * 0.25j * hankel1(0, kappa * d)
    if scalar:
        return complex(out[0])
    return out.reshape(pts.shape[:-1])


def farfield_oracle(field: RadiationField, phi: float, n: int):
    """Exact far-field coefficients f_0..f_n at observation angle phi.

    Convention: psi(r theta) ~ sqrt(2/(pi kappa r)) e^{i(kappa r - pi/4)}
    * sum_j f_j(phi) r^-j with theta = (cos phi, sin phi).

    Multipole terms contribute their large-argument expansion coefficients
    directly; point sources are first converted to a multipole series valid
    outside the source disk, truncated once the Bessel weights fall below
    1e-16 past the turning point. Raises RuntimeError if that conversion
    needs more than 200 orders.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    n = int(n)
    phi = float(phi)
    kappa = field.kappa
    coeffs = np.zeros(n + 1, dtype=complex)
    kpow = kappa ** (-np.arange(n + 1, dtype=float))
    for term in field.terms:
        if isinstance(term, Multipole):
            a = np.asarray(hankel_asym_coeffs(term.m, n).coeffs)
            coeffs += term.c * np.exp(1j * term.m * phi) * (-1j) ** term.m * a * kpow
        else:
            b = float(np.hypot(*term.y0))
            phi0 = float(np.arctan2(term.y0[1], term.y0[0]))
            kb = kappa * b
            m = 0
            while True:
                jm = bessel_j(m, kb)
                if m > kb and abs(jm) < _GRAF_TOL:
                    break
                weight = 1.0 if m == 0 else 2.0
                a = np.asarray(hankel_asym_coeffs(m, n).coeffs)
                coeffs += (
                    term.c
                    * 0.25j
                    * weight
                    * jm
                    * np.cos(m * (phi - phi0))
                    * (-1j) ** m
                    * a
                    * kpow
                )
                m += 1
                if m > _GRAF_MAX_ORDER:
                    raise RuntimeError(
                        "point-source multipole conversion did not converge "
                        f"within {_GRAF_MAX_ORDER} orders"
                    )
    return [complex(v) for v in coeffs]


def sample_im_on_ray(
    field: RadiationField, ray: RayGeometry, abscissas, noise_sigma: float = 0.0,
    seed: int = 0,
) -> ImSamples:
    """Sample I(x(s)) = sqrt(|x(s)|) Im(psi(x(s))) at the given abscissas.

    Optional additive gaussian noise with a seeded generator; noise_sigma = 0
    reproduces exact data. Raises ValueError if the ray enters the source disk.
    """
    s = np.asarray(abscissas, dtype=float)
    rho = field.source_radius
    o = np.asarray(ray.origin)
    d = ray.orientation * np.asarray(ray.direction)
    # closest approach of the ray {o + s d : s > 0} to the origin
    t_star = -float(o @ d)
    closest = float(np.hypot(*o)) if t_star <= 0 else float(
        np.sqrt(max(o @ o - t_star**2, 0.0))
    )
    # The ray is open at s = 0, so grazing the disk boundary at its origin is
    # not an intersection; sampled points are checked individually below.
    if closest < rho:
        raise ValueError("ray intersects the source disk")
    pts = ray.point(s)
    if np.any(np.hypot(pts[:, 0], pts[:, 1]) <= rho):
        raise ValueError("a sample point lies inside the source disk")
    values = np.sqrt(np.hypot(pts[:, 0], pts[:, 1])) * np.imag(
        eval_field(field, pts)
    )
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, values.shape)
    return ImSamples(
        ray=ray, abscissas=s, values=values, kappa=field.kappa,
        noise_sigma=noise_sigma,
    )


def counterexample_report(kappa: float, j: int, n_angles: int) -> CounterexampleReport:
    """Nonuniqueness of reconstruction from |Im psi| on circles.

    For psi = (i/4) H_0(kappa |x|), Im psi = J_0(kappa |x|)/4 vanishes on the
    circle of radius c_j/kappa (c_j the j-th positive root of J_0) while psi
    itself does not. Reports the max of |Im psi| and |psi| over n_angles
    equispaced points of that circle.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValueError("j must be an integer >= 1")
    if not isinstance(n_angles, (int, np.integer)) or n_angles < 1:
        raise ValueError("n_angles must be an integer >= 1")
    c_j = j0_roots(j)[-1]
    radius = c_j / kappa
    f = RadiationField(terms=(PointSource((0.0, 0.0), 1.0),), kappa=kappa)
    ang = 2.0 * np.pi * np.arange(n_angles) / n_angles
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    vals = eval_field(f, pts)
    return CounterexampleReport(
        radius=float(radius),
        max_abs_im=float(np.max(np.abs(vals.imag))),
        max_abs_psi=float(np.max(np.abs(vals))),
    )


def field_to_dict(field: RadiationField) -> dict:
    """JSON-ready dict for a RadiationField."""
    terms = []
    for t in field.terms:
        if isinstance(t, Multipole):
            terms.append({"type": "multipole", "m": t.m,
                          "c": [t.c.real, t.c.imag]})
        else:
            terms.append({"type": "point_source", "y0": list(t.y0),
                          "c": [t.c.real, t.c.imag]})
    return {
        "kappa": field.kappa,
        "source_radius": field.source_radius,
        "terms": terms,
    }


def field_from_dict(data: dict) -> RadiationField:
    """Inverse of field_to_dict; source_radius may be omitted."""
    terms = []
    for t in data["terms"]:
        c = complex(t["c"][0], t["c"][1])
        if t["type"] == "multipole":
            terms.append(Multipole(m=int(t["m"]), c=c))
        elif t["type"] == "point_source":
            terms.append(PointSource(y0=tuple(t["y0"]), c=c))
        else:
            raise ValueError(f"unknown term type: {t['type']!r}")
    return RadiationField(
        terms=tuple(terms),
        kappa=float(data["kappa"]),
        source_radius=data.get("source_radius"),
    )
