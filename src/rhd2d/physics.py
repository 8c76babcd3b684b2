"""Equation of state, kinematics, fluxes, signal speeds, and admissibility.

States are float arrays whose last axis has length four.  Primitive vectors
hold (rho, vel_x, vel_y, pressure); conserved vectors hold (D, m_x, m_y, E)
in the laboratory frame with c = 1.  Every function broadcasts over leading
axes, so a single state, a batch, or a whole ghosted mesh can be passed
alike.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SuperluminalError

# Primitive component indices: rest-mass density, velocity, gas pressure.
RHO, VX, VY, PRE = 0, 1, 2, 3
# Conserved component indices: lab-frame mass, momentum, total energy.
DEN, MOMX, MOMY, ENE = 0, 1, 2, 3

AXIS_X, AXIS_Y = 0, 1


@dataclass(frozen=True)
class EosParams:
    """Ideal-gas law parameters; the adiabatic index must lie in (1, 2]."""

    gamma_adiabatic: float = 5.0 / 3.0

    def __post_init__(self):
        g = self.gamma_adiabatic
        if not (1.0 < g <= 2.0):
            raise ValueError(f"adiabatic index must lie in (1, 2], got {g}")

    @property
    def gamma_ratio(self) -> float:
        """Gamma / (Gamma - 1), the coefficient of p*gamma^2 in the energy."""
        return self.gamma_adiabatic / (self.gamma_adiabatic - 1.0)


class EigenSpeeds(NamedTuple):
    """Characteristic speeds along one axis, ordered lam1 <= lam2 = lam3 <= lam4."""

    lam1: np.ndarray
    lam2: np.ndarray
    lam3: np.ndarray
    lam4: np.ndarray


def primitive(rho, vel_x, vel_y, pressure) -> np.ndarray:
    """Stack and validate a primitive state (rho, u, v, p).

    Raises SuperluminalError for |u| >= 1 and ValueError for non-positive
    density or pressure.
    """
    rho, vel_x, vel_y, pressure = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho, vel_x, vel_y, pressure))
    )
    if not np.all(rho > 0.0):
        raise ValueError("rest-mass density must be positive")
    if not np.all(pressure > 0.0):
        raise ValueError("pressure must be positive")
    speed_sq = vel_x * vel_x + vel_y * vel_y
    if not np.all(speed_sq < 1.0):
        raise SuperluminalError(float(np.max(speed_sq)))
    return np.stack([rho, vel_x, vel_y, pressure], axis=-1)


def lorentz_factor(vel_x, vel_y) -> np.ndarray:
    """1 / sqrt(1 - |u|^2); raises SuperluminalError when |u| >= 1."""
    vel_x = np.asarray(vel_x, dtype=float)
    vel_y = np.asarray(vel_y, dtype=float)
    speed_sq = vel_x * vel_x + vel_y * vel_y
    if not np.all(speed_sq < 1.0):
        raise SuperluminalError(float(np.max(speed_sq)))
    return 1.0 / np.sqrt(1.0 - speed_sq)


def thermo(prim: np.ndarray, eos: EosParams):
    """Specific internal energy, specific enthalpy, and sound speed.

    e = p / ((Gamma - 1) rho),  h = 1 + e + p / rho,
    c_s = sqrt(Gamma p / (rho h)), which satisfies c_s^2 < Gamma - 1.
    """
    prim = np.asarray(prim, dtype=float)
    rho = prim[..., RHO]
    p = prim[..., PRE]
    e = p / ((eos.gamma_adiabatic - 1.0) * rho)
    h = 1.0 + e + p / rho
    cs = np.sqrt(eos.gamma_adiabatic * p / (rho * h))
    return e, h, cs


def prim_to_cons(prim: np.ndarray, eos: EosParams) -> np.ndarray:
    """Map primitives to lab-frame conserved variables.

    D = rho gamma, m = rho h gamma^2 u, E = rho h gamma^2 - p.
    """
    prim = np.asarray(prim, dtype=float)
    gam = lorentz_factor(prim[..., VX], prim[..., VY])
    _, h, _ = thermo(prim, eos)
    dens = prim[..., RHO] * gam
    wtot = prim[..., RHO] * h * gam * gam
    return np.stack(
        [
            dens,
            wtot * prim[..., VX],
            wtot * prim[..., VY],
            wtot - prim[..., PRE],
        ],
        axis=-1,
    )


def physical_flux(prim: np.ndarray, cons: np.ndarray, axis: int) -> np.ndarray:
    """Physical flux along one axis: (D u_l, m u_l + p e_l, (E + p) u_l).

    `cons` must be the conserved image of `prim`.
    """
    prim = np.asarray(prim, dtype=float)
    cons = np.asarray(cons, dtype=float)
    if axis not in (AXIS_X, AXIS_Y):
        raise ValueError(f"axis must be 0 (x) or 1 (y), got {axis}")
    u_n = prim[..., VX + axis]
    p = prim[..., PRE]
    flux = cons * u_n[..., None]
    flux[..., MOMX + axis] += p
    flux[..., ENE] += p * u_n
    return flux


def eigenvalues(prim: np.ndarray, eos: EosParams, axis: int) -> EigenSpeeds:
    """Characteristic speeds of the flux Jacobian along one axis.

    The extreme speeds are
      (u_n (1 - c_s^2) -/+ c_s / gamma * sqrt(1 - u_n^2 - c_s^2 (|u|^2 - u_n^2)))
        / (1 - c_s^2 |u|^2)
    and the two middle speeds both equal u_n.  All lie strictly inside
    (-1, 1) for valid input.
    """
    prim = np.asarray(prim, dtype=float)
    if axis not in (AXIS_X, AXIS_Y):
        raise ValueError(f"axis must be 0 (x) or 1 (y), got {axis}")
    u_n = prim[..., VX + axis]
    vel_x = prim[..., VX]
    vel_y = prim[..., VY]
    speed_sq = vel_x * vel_x + vel_y * vel_y
    if not np.all(speed_sq < 1.0):
        raise SuperluminalError(float(np.max(speed_sq)))
    _, _, cs = thermo(prim, eos)
    cs2 = cs * cs
    gam_inv = np.sqrt(1.0 - speed_sq)
    disc = (1.0 - u_n * u_n) - cs2 * (speed_sq - u_n * u_n)
    root = cs * gam_inv * np.sqrt(disc)
    den = 1.0 - cs2 * speed_sq
    drift = u_n * (1.0 - cs2)
    lam1 = (drift - root) / den
    lam4 = (drift + root) / den
    return EigenSpeeds(lam1, u_n, u_n, lam4)


# --- admissibility -----------------------------------------------------------
#
# The set of physical states is { D > 0, E > 0, E^2 - D^2 - |m|^2 > 0 }.
# For ultra-relativistic states E and |m| agree to many digits and the naive
# quadratic form loses its sign to cancellation, so its sign is evaluated with
# error-free product splitting and compensated summation.  This keeps the
# predicate faithful to the mathematical set for every representable input.
#
# Most lanes do not need that.  In plain floats, q = ((E^2 - D^2) - m_x^2)
# - m_y^2 carries a forward error of at most about 2 eps S, where
# S = E^2 + D^2 + m_x^2 + m_y^2 (four rounded squares, three rounded sums).
# Where |q| > 8 eps S the sign of q is therefore certain, with a 4x margin,
# and is used directly; S > 1e-290 keeps underflowed squares, whose error is
# absolute rather than relative, out of that filter.  Every other lane (near
# the boundary, underflowed, overflowed, inf or NaN) takes the compensated
# reference, so the predicate returns the reference's booleans exactly.  The
# reference scales each lane by the power of two that puts its largest
# |component| in [0.5, 1), so no square leaves float range through the
# state's scale alone; recovery solves in the same units.

_CERTIFIED_RATIO = 8.0 * float(np.finfo(float).eps)
_CERTIFIED_FLOOR = 1e-290

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant for float64


def _square_dd(a):
    """a*a as a (head, tail) pair with head + tail exact."""
    t = _SPLIT * a
    hi = t - (t - a)
    lo = a - hi
    prod = a * a
    err = ((hi * hi - prod) + 2.0 * hi * lo) + lo * lo
    return prod, err


def _two_sum(a, b):
    """a + b as a (head, tail) pair with head + tail exact."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _lane_exponent(cons: np.ndarray) -> np.ndarray:
    """Per-lane frexp exponent of the largest |component|; 0 if that is 0, inf or NaN."""
    a = np.abs(cons)
    top = np.maximum(np.maximum(a[..., DEN], a[..., MOMX]), np.maximum(a[..., MOMY], a[..., ENE]))
    return np.frexp(top)[1]


def _admissibility_quadratic(cons: np.ndarray) -> np.ndarray:
    """E^2 - D^2 - m_x^2 - m_y^2 of the scaled lanes, compensated (sign-exact)."""
    cons = np.asarray(cons, dtype=float)
    cons = np.ldexp(cons, -_lane_exponent(cons)[..., None])
    total = np.zeros(cons.shape[:-1], dtype=float)
    comp = np.zeros_like(total)
    for idx, sign in ((ENE, 1.0), (DEN, -1.0), (MOMX, -1.0), (MOMY, -1.0)):
        hi, lo = _square_dd(cons[..., idx])
        for term in (sign * hi, sign * lo):
            s, err = _two_sum(total, term)
            total = s
            comp = comp + err
    return total + comp


def is_admissible(cons: np.ndarray) -> np.ndarray:
    """True where D > 0, E > 0 and E^2 - D^2 - |m|^2 > 0 (strictly)."""
    cons = np.asarray(cons, dtype=float)
    dens = cons[..., DEN]
    energy = cons[..., ENE]
    # Overflowed squares and inf - inf only make a lane uncertain here.
    with np.errstate(over="ignore", invalid="ignore"):
        e2, d2, mx2, my2 = (v * v for v in (energy, dens, cons[..., MOMX], cons[..., MOMY]))
        quad = ((e2 - d2) - mx2) - my2
        scale = ((e2 + d2) + mx2) + my2
        certain = (np.abs(quad) > _CERTIFIED_RATIO * scale) & (scale > _CERTIFIED_FLOOR)
    if not np.all(certain):
        unsure = np.flatnonzero(~certain)
        quad = np.ravel(quad)  # C order, like the lane indices; 0-d becomes (1,)
        quad[unsure] = _admissibility_quadratic(np.reshape(cons, (-1, 4))[unsure])
        quad = quad.reshape(dens.shape)
    return (dens > 0.0) & (energy > 0.0) & (quad > 0.0)


def admissibility_margin(cons: np.ndarray):
    """(D, E - sqrt(D^2 + |m|^2)) for diagnostics and error messages.

    Plain float arithmetic, with np.hypot so no square leaves float range;
    use is_admissible for the round-off-safe predicate.
    """
    cons = np.asarray(cons, dtype=float)
    dens = cons[..., DEN]
    return dens, cons[..., ENE] - np.hypot(dens, np.hypot(cons[..., MOMX], cons[..., MOMY]))
