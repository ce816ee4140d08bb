"""Karp-expansion coefficients and evaluation on a line through the origin.

Outside the source disk the field has the convergent representation

    psi(x) = H_0(kappa r) sum_j F_j(phi) r^-j + H_1(kappa r) sum_j G_j(phi) r^-j

whose coefficients at an antipodal pair of angles are determined, order by
order, by the far-field coefficients f_j(phi), f_j(phi + pi): inserting the
large-argument expansions of H_0 and H_1 and collecting powers of 1/r yields
a triangular sequence of 2x2 linear systems. The antipodal values follow the
parity rules F_j(phi + pi) = (-1)^j F_j(phi), G_j(phi + pi) = (-1)^{j+1}
G_j(phi), which close each system; the rules themselves are validated against
the exact Lommel-polynomial representation of H_m (see lommel_karp_oracle).

_karp_sum sums every series of one frame at signed abscissas, the sign
picking the side through the same rules, from one H_0, H_1 pass per point
set; eval_karp is its one-series, one-side case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farfield import FarFieldCoeffs
from .specfun import _hankel01, hankel_asym_coeffs

__all__ = [
    "KarpCoeffs",
    "karp_from_farfield",
    "farfield_from_karp",
    "eval_karp",
    "lommel_karp_oracle",
    "karp_to_dict",
    "karp_from_dict",
]


@dataclass(frozen=True, eq=False)
class KarpCoeffs:
    """Karp coefficients F_0..F_n, G_0..G_n at one angle phi.

    Values at the antipodal angle phi + pi are not stored; they follow from
    the parity rules (see antipodal()). origin_shift is the point q whose
    frame the radial variable r refers to.
    """

    kappa: float
    phi: float
    F: list
    G: list
    origin_shift: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        F = [complex(v) for v in self.F]
        G = [complex(v) for v in self.G]
        if len(F) != len(G):
            raise ValueError("F and G must have equal length")
        if not F:
            raise ValueError("coefficient lists must be nonempty")
        q = tuple(float(v) for v in self.origin_shift)
        if len(q) != 2:
            raise ValueError("origin_shift must be a point in the plane")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "origin_shift", q)

    @property
    def order(self) -> int:
        return len(self.F) - 1

    def antipodal(self):
        """Coefficient lists at phi + pi: F_j flips with (-1)^j, G_j with (-1)^{j+1}."""
        F = [(-1.0) ** j * v for j, v in enumerate(self.F)]
        G = [(-1.0) ** (j + 1) * v for j, v in enumerate(self.G)]
        return F, G


def _matching_term(a0, a1, F, G, j, k, kappa):
    """kappa^-k (a_k(0) F_{j-k} - i a_k(1) G_{j-k}) of the forward matching."""
    return kappa ** (-float(k)) * (a0[k] * F[j - k] - 1j * a1[k] * G[j - k])


def karp_from_farfield(ff: FarFieldCoeffs) -> KarpCoeffs:
    """Karp coefficients from far-field coefficients at an antipodal pair.

    Order by order, matching the asymptotic expansion of the Karp series
    against the far field at phi gives F_j - i G_j = b_plus, and at
    phi + pi, after applying the parity rules, F_j + i G_j = b_minus; the
    2x2 system is constant, so F_j = (b_plus + b_minus) / 2 and
    G_j = i (b_plus - b_minus) / 2 in closed form.
    """
    if len(ff.f_plus) != len(ff.f_minus):
        raise ValueError("far-field angle pair disagrees on order")
    n = ff.order
    kappa = ff.kappa
    a0 = hankel_asym_coeffs(0, n).coeffs
    a1 = hankel_asym_coeffs(1, n).coeffs
    F, G = [], []
    for j in range(n + 1):
        b_plus = complex(ff.f_plus[j])
        b_minus = (-1.0) ** j * complex(ff.f_minus[j])
        for k in range(1, j + 1):
            b_plus -= _matching_term(a0, a1, F, G, j, k, kappa)
            # antipodal lower orders carry the parity signs, folded into (-kappa)^-k
            b_minus -= (-kappa) ** (-float(k)) * (
                a0[k] * F[j - k] + 1j * a1[k] * G[j - k]
            )
        F.append(0.5 * (b_plus + b_minus))
        G.append(0.5j * (b_plus - b_minus))
    return KarpCoeffs(kappa=kappa, phi=ff.phi, F=F, G=G,
                      origin_shift=ff.origin_shift)


def farfield_from_karp(kc: KarpCoeffs, n: int) -> FarFieldCoeffs:
    """Far-field coefficients f_0..f_n at both angles, by forward matching."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > kc.order:
        raise ValueError("requested order exceeds the available Karp order")
    kappa = kc.kappa
    a0 = hankel_asym_coeffs(0, n).coeffs
    a1 = hankel_asym_coeffs(1, n).coeffs
    F_anti, G_anti = kc.antipodal()
    f_plus, f_minus = [], []
    for j in range(n + 1):
        f_plus.append(sum(_matching_term(a0, a1, kc.F, kc.G, j, k, kappa)
                          for k in range(j + 1)))
        f_minus.append(sum(_matching_term(a0, a1, F_anti, G_anti, j, k, kappa)
                           for k in range(j + 1)))
    return FarFieldCoeffs(kappa=kappa, phi=kc.phi, f_plus=f_plus,
                          f_minus=f_minus, origin_shift=kc.origin_shift)


def eval_karp(kc: KarpCoeffs, r, side=+1):
    """Truncated Karp series at x = +r theta (side +) or -r theta (side -).

    r is the distance from the shifted frame origin; must exceed the source
    radius for the series to converge. Accepts scalar or array r.
    """
    sign = {"+": 1.0, 1: 1.0, "-": -1.0, -1: -1.0}.get(side)
    if sign is None:
        raise ValueError("side must be '+' or '-'")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("r must be positive")
    out = _karp_sum([kc], sign * r_arr)[..., 0]
    return complex(out) if out.ndim == 0 else out


def _karp_sum(kcs, xi):
    """Karp series of one frame at signed abscissas xi, one column each.

    xi < 0 is the point |xi| theta on the antipodal side, whose lists
    (-1)^j F_j and (-1)^{j+1} G_j make Horner sums in the signed 1/xi, the
    G sum times sign(xi). Returns shape xi.shape + (len(kcs),).
    """
    xi = np.asarray(xi, dtype=float)[..., None]
    u = 1.0 / xi
    F, G = np.array([[kc.F, kc.G] for kc in kcs]).transpose(1, 2, 0)
    sum_f = sum_g = 0.0
    for j in range(F.shape[0] - 1, -1, -1):
        sum_f = sum_f * u + F[j]
        sum_g = sum_g * u + G[j]
    h0, h1 = _hankel01(kcs[0].kappa * np.abs(xi))
    return h0 * sum_f + h1 * (np.sign(xi) * sum_g)


def lommel_karp_oracle(m: int, order: int):
    """Exact coefficients of H_m(z) = P_m(1/z) H_0(z) + Q_m(1/z) H_1(z).

    Runs the three-term recurrence H_{m+1} = (2m/z) H_m - H_{m-1} on the
    polynomial pair, exactly over the integers. Returns the coefficient lists
    of P_m and Q_m in increasing powers of 1/z, truncated to the given order
    and with trailing zeros removed; P_m holds only powers of parity m, Q_m
    only powers of parity m + 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    p_prev, q_prev = [1], [0]
    p_cur, q_cur = [0], [1]
    if m == 0:
        p_cur, q_cur = p_prev, q_prev
    else:
        for mm in range(1, m):
            p_next = _poly_sub(_poly_shift_scale(p_cur, 2 * mm), p_prev)
            q_next = _poly_sub(_poly_shift_scale(q_cur, 2 * mm), q_prev)
            p_prev, q_prev = p_cur, q_cur
            p_cur, q_cur = p_next, q_next
    return _poly_trim(p_cur[: order + 1]), _poly_trim(q_cur[: order + 1])


def _poly_shift_scale(coeffs, factor):
    """factor * u * p(u) as a coefficient list in increasing powers of u."""
    return [0] + [factor * c for c in coeffs]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def karp_to_dict(kc: KarpCoeffs) -> dict:
    """JSON-ready dict for Karp coefficients."""
    return {
        "kappa": kc.kappa,
        "phi": kc.phi,
        "q": list(kc.origin_shift),
        "F": [[v.real, v.imag] for v in kc.F],
        "G": [[v.real, v.imag] for v in kc.G],
    }


def karp_from_dict(data: dict) -> KarpCoeffs:
    """Inverse of karp_to_dict."""
    return KarpCoeffs(
        kappa=float(data["kappa"]),
        phi=float(data["phi"]),
        F=[complex(re, im) for re, im in data["F"]],
        G=[complex(re, im) for re, im in data["G"]],
        origin_shift=tuple(data.get("q", (0.0, 0.0))),
    )
