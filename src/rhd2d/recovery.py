"""Primitive-variable recovery from lab-frame conserved quantities.

The conserved state determines the pressure through the scalar equation

    psi(p) = D gamma(p) + Gamma/(Gamma-1) p gamma(p)^2 - E - p = 0,
    gamma(p) = (1 - |m|^2 / (E + p)^2)^(-1/2),

after which u = m / (E + p) and rho = D / gamma follow in closed form.
A safeguarded Newton iteration with a certified bracket solves a batch of
cells together; after the first residual check its sweeps run only on the
lanes still active, so a lane's result does not depend on the batch.  The
Lorentz factor is the numerically delicate piece: (E + p)^2 - |m|^2
cancels catastrophically for fast flows, so it is formed with error-free
product splitting before the division.  Pure functions, safe for
data-parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics
from .errors import AdmissibilityError, RecoveryConvergenceError
from .physics import DEN, ENE, MOMX, MOMY, EosParams, _square_dd, _two_sum

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RecoveryOptions:
    """Iteration controls.

    pressure_floor only opens the bracket's lower end; results are never
    clipped to it.
    """

    rel_tolerance: float = 1e-12
    max_iterations: int = 100
    pressure_floor: float = 1e-30

    def __post_init__(self):
        if not self.rel_tolerance > 0.0:
            raise ValueError("rel_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.pressure_floor > 0.0:
            raise ValueError("pressure_floor must be positive")


DEFAULT_OPTIONS = RecoveryOptions()


def _momentum_sq_dd(cons):
    """|m|^2 as a compensated (head, tail) pair."""
    hx, lx = _square_dd(cons[..., MOMX])
    hy, ly = _square_dd(cons[..., MOMY])
    head, err = _two_sum(hx, hy)
    return head, err + (lx + ly)


def _inv_gamma_sq(p, dens_e, m2_head, m2_tail):
    """(w^2 - |m|^2, w) for w = E + p, with the cancellation compensated.

    The returned z satisfies z / w^2 = 1 - |u(p)|^2 = 1 / gamma(p)^2 to a
    relative accuracy of order machine epsilon even when |u| -> 1.
    """
    w, w_err = _two_sum(dens_e, p)
    w2, w2_err = _square_dd(w)
    w2_err = w2_err + 2.0 * w * w_err
    z, z_err = _two_sum(w2, -m2_head)
    z = z + (z_err + (w2_err - m2_tail))
    return z, w


def _psi(p, dens, energy, m2_head, m2_tail, gamma_ratio):
    """Pressure-equation residual and its derivative at p.

    psi = D gamma + a p gamma^2 - (E + p), with gamma formed from the
    compensated z = w^2 - |m|^2 as gamma = w / sqrt(z).
    """
    z, w = _inv_gamma_sq(p, energy, m2_head, m2_tail)
    root_z = np.sqrt(z)
    gam = w / root_z
    gam2 = (w * w) / z
    psi = dens * gam + gamma_ratio * p * gam2 - w
    # d(gamma)/dp = -gamma |m|^2 / (z w);  d(gamma^2)/dp = 2 gamma gamma'
    dgam = -gam * m2_head / (z * w)
    dpsi = dens * dgam + gamma_ratio * (gam2 + 2.0 * p * gam * dgam) - 1.0
    return psi, dpsi, z, w


def _pressure_root(dens, energy, m2_head, m2_tail, eos, opts, hint):
    """Safeguarded Newton-bisection for the pressure equation.

    Returns (p, iterations).  The bracket [lo, hi] is certified before any
    Newton step: psi(lo) < 0 by admissibility and hi starts at the analytic
    bound (Gamma - 1)(E - D) >= p_root, doubled until psi(hi) >= 0.  Lanes
    are held flat in C order, so error indices are flat indices.  The
    doubling and Newton sweeps evaluate only the lanes still active, with
    the per-lane arithmetic of a full-array sweep, so results do not depend
    on which other lanes share the batch.
    """
    shape = np.shape(dens)
    dens, energy, m2_head, m2_tail = (np.ravel(v) for v in (dens, energy, m2_head, m2_tail))
    a = eos.gamma_ratio
    m_abs = np.sqrt(m2_head)

    lo = np.maximum(opts.pressure_floor, m_abs - energy + 4.0 * _EPS * energy)
    hi = np.maximum((eos.gamma_adiabatic - 1.0) * (energy - dens), 2.0 * lo)

    psi_lo, _, _, _ = _psi(lo, dens, energy, m2_head, m2_tail, a)
    at_lo = psi_lo == 0.0
    if np.any(psi_lo > 0.0):
        idx = int(np.argmax(psi_lo > 0.0))
        raise RecoveryConvergenceError(
            "pressure bracket cannot be opened: psi(p_lo) > 0",
            bracket=(float(lo[idx]), float(hi[idx])),
            index=idx,
        )

    psi_hi, _, _, _ = _psi(hi, dens, energy, m2_head, m2_tail, a)
    need = np.flatnonzero(psi_hi < 0.0)
    for _ in range(64):
        if need.size == 0:
            break
        hi[need] = 2.0 * hi[need]
        psi_need, _, _, _ = _psi(
            hi[need], dens[need], energy[need], m2_head[need], m2_tail[need], a
        )
        psi_hi[need] = psi_need
        need = need[psi_need < 0.0]
    else:
        idx = int(np.argmax(psi_hi < 0.0))
        raise RecoveryConvergenceError(
            "pressure bracket cannot be closed: psi(p_hi) < 0 after expansion",
            bracket=(float(lo[idx]), float(hi[idx])),
            index=idx,
        )
    at_end = at_lo | (psi_hi == 0.0)  # an endpoint is the root (e.g. zero momentum)

    if hint is not None:
        p = np.clip(np.ravel(np.broadcast_to(np.asarray(hint, dtype=float), shape)), lo, hi)
        p = np.where(np.isfinite(p), p, 0.5 * (lo + hi))
    else:
        p = 0.5 * (lo + hi)
    p = np.where(psi_hi == 0.0, hi, p)
    p = np.where(at_lo, lo, p)

    # Converge on the residual with a factor-two safety, against E itself
    # rather than max(E, 1): for small-energy states the looser normalisation
    # would stop orders of magnitude short of the representable root.  Stop
    # early once the bracket is resolved to float precision.
    tol = 0.5 * opts.rel_tolerance * energy
    psi, dpsi, _, _ = _psi(p, dens, energy, m2_head, m2_tail, a)
    lo = np.where(psi < 0.0, p, lo)
    hi = np.where(psi >= 0.0, p, hi)

    # A lane leaves the active set in the sweep that finishes it, and its p
    # and bracket are written back then.  Both bracket comparisons are kept:
    # a NaN residual moves neither end.
    active = np.flatnonzero(~((np.abs(psi) <= tol) | at_end))
    lanes = [v[active] for v in (p, psi, dpsi, lo, hi, dens, energy, m2_head, m2_tail, tol)]
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        if active.size == 0:
            break
        p_a, psi_a, dpsi_a, lo_a, hi_a, dens_a, energy_a, mh_a, mt_a, tol_a = lanes
        newton = p_a - psi_a / dpsi_a
        inside = np.isfinite(newton) & (newton > lo_a) & (newton < hi_a)
        p_a = np.where(inside, newton, 0.5 * (lo_a + hi_a))
        psi_a, dpsi_a, _, _ = _psi(p_a, dens_a, energy_a, mh_a, mt_a, a)
        lo_a = np.where(psi_a < 0.0, p_a, lo_a)
        hi_a = np.where(psi_a >= 0.0, p_a, hi_a)
        lanes = [p_a, psi_a, dpsi_a, lo_a, hi_a, dens_a, energy_a, mh_a, mt_a, tol_a]
        finished = (np.abs(psi_a) <= tol_a) | ((hi_a - lo_a) <= 4.0 * _EPS * hi_a)
        if np.any(finished):
            out = active[finished]
            p[out], lo[out], hi[out] = p_a[finished], lo_a[finished], hi_a[finished]
            keep = ~finished
            active = active[keep]
            lanes = [v[keep] for v in lanes]

    if active.size:
        raise RecoveryConvergenceError(
            f"pressure iteration did not converge in {opts.max_iterations} steps",
            bracket=(float(lanes[3][0]), float(lanes[4][0])),
            index=int(active[0]),
            iterations=iterations,
        )

    # Two Newton polish sweeps pull p from the residual-tolerance ball down to
    # its round-off floor, so round trips reproduce the pressure itself and
    # not only the residual.  Steps leaving the bracket are rejected.
    for _ in range(2):
        psi, dpsi, _, _ = _psi(p, dens, energy, m2_head, m2_tail, a)
        newton = p - psi / dpsi
        keep = np.isfinite(newton) & (newton >= lo) & (newton <= hi)
        p = np.where(keep, newton, p)
    return p.reshape(shape), iterations


def recover_primitives(
    cons: np.ndarray,
    eos: EosParams,
    opts: RecoveryOptions = DEFAULT_OPTIONS,
    pressure_hint=None,
) -> np.ndarray:
    """Invert prim_to_cons for a batch of admissible conserved states.

    pressure_hint, when given, seeds the iteration (typically the previous
    time level's pressure); otherwise the certified bracket midpoint is used.
    Raises AdmissibilityError for non-admissible input and
    RecoveryConvergenceError when the iteration cannot close its bracket.
    """
    prim, _ = recover_with_iterations(cons, eos, opts, pressure_hint)
    return prim


def recover_with_iterations(
    cons: np.ndarray,
    eos: EosParams,
    opts: RecoveryOptions = DEFAULT_OPTIONS,
    pressure_hint=None,
):
    """recover_primitives plus the Newton sweep count (for run diagnostics)."""
    cons = np.asarray(cons, dtype=float)
    ok = physics.is_admissible(cons)
    if not np.all(ok):
        flat = int(np.argmax(~np.ravel(ok)))
        bad = cons.reshape(-1, 4)[flat]
        mass, margin = physics.admissibility_margin(bad)
        raise AdmissibilityError(
            f"cannot recover non-admissible state at flat index {flat}: "
            f"D = {mass:.6e}, E - sqrt(D^2+|m|^2) = {margin:.6e}",
            mass=float(mass),
            margin=float(margin),
            index=flat,
        )

    dens = cons[..., DEN]
    energy = cons[..., ENE]
    m2_head, m2_tail = _momentum_sq_dd(cons)
    p, iterations = _pressure_root(dens, energy, m2_head, m2_tail, eos, opts, pressure_hint)

    z, w = _inv_gamma_sq(p, energy, m2_head, m2_tail)
    if not np.all(z > 0.0):
        idx = int(np.argmax(~(np.ravel(z) > 0.0)))
        raise RecoveryConvergenceError(
            "recovered velocity is not sub-luminal", index=idx, iterations=iterations
        )
    rho = dens * np.sqrt(z) / w
    prim = np.stack([rho, cons[..., MOMX] / w, cons[..., MOMY] / w, p], axis=-1)
    return prim, iterations
