"""Primitive-variable recovery from lab-frame conserved quantities.

The conserved state determines the pressure through the scalar equation

    psi(p) = D gamma(p) + Gamma/(Gamma-1) p gamma(p)^2 - E - p = 0,
    gamma(p) = (1 - |m|^2 / (E + p)^2)^(-1/2),

after which u = m / (E + p) and rho = D / gamma follow in closed form.
A safeguarded Newton iteration solves a batch of cells together, each
lane on its own schedule (see `_pressure_root`), starting from a pressure
hint where one is given (in a run, the previous time level's pressure).
A lane's result does not depend on the batch.  The Lorentz factor is the
numerically delicate piece: (E + p)^2 - |m|^2 cancels catastrophically for
fast flows, so it is formed with error-free product splitting before the
division.  Pure functions, safe for data-parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics
from .errors import AdmissibilityError, ConfigurationError, RecoveryConvergenceError
from .physics import DEN, ENE, MOMX, MOMY, EosParams, _lane_exponent, _square_dd, _two_sum

_EPS = float(np.finfo(float).eps)
REL_TOLERANCE = 1e-12  # a lane converges once |psi| <= REL_TOLERANCE * E / 2


@dataclass(frozen=True)
class RecoveryOptions:
    """Iteration control: the cap on each lane's Newton or bisection steps."""

    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")


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
    # d(gamma)/dp = -gamma |m|^2 / (z w);  d(gamma^2)/dp = 2 gamma gamma'.
    # Grouped so no intermediate grows like w^3, which overflows at E + p ~ 5e102.
    dgam = -(gam / w) * (m2_head / z)
    dpsi = dens * dgam + gamma_ratio * (gam2 + 2.0 * p * gam * dgam) - 1.0
    return psi, dpsi


def _polish(p, psi, dpsi, lo, hi):
    """One Newton step from a residual already in hand, kept only inside [lo, hi].

    It pulls p from the residual-tolerance ball down to its round-off floor,
    so round trips reproduce the pressure itself and not only the residual.
    """
    newton = p - psi / dpsi
    return np.where(np.isfinite(newton) & (newton >= lo) & (newton <= hi), newton, p)


def _bracketed_step(newton, lo, hi, dens, energy, m2_head, m2_tail, a, lanes):
    """Certify the bracket [lo, hi] of some lanes and take their next step.

    psi(lo) must not be positive, and hi doubles until psi(hi) >= 0; `lanes`
    holds the lanes' flat indices for the errors.  The step is `newton`
    where that lies strictly inside the certified bracket, else the
    midpoint, and an end whose residual is exactly 0 is the root itself.
    Returns (step, hi).
    """
    psi_lo = _psi(lo, dens, energy, m2_head, m2_tail, a)[0]
    if np.any(psi_lo > 0.0):
        idx = int(np.argmax(psi_lo > 0.0))
        raise RecoveryConvergenceError(
            "pressure bracket cannot be opened: psi(p_lo) > 0",
            bracket=(float(lo[idx]), float(hi[idx])),
            index=int(lanes[idx]),
        )
    psi_hi = _psi(hi, dens, energy, m2_head, m2_tail, a)[0]
    need = np.flatnonzero(psi_hi < 0.0)
    for _ in range(64):
        if need.size == 0:
            break
        hi[need] = 2.0 * hi[need]
        psi_need = _psi(hi[need], dens[need], energy[need], m2_head[need], m2_tail[need], a)[0]
        psi_hi[need] = psi_need
        need = need[psi_need < 0.0]
    else:
        idx = int(np.argmax(psi_hi < 0.0))
        raise RecoveryConvergenceError(
            "pressure bracket cannot be closed: psi(p_hi) < 0 after expansion",
            bracket=(float(lo[idx]), float(hi[idx])),
            index=int(lanes[idx]),
        )
    inside = np.isfinite(newton) & (newton > lo) & (newton < hi)
    step = np.where(inside, newton, 0.5 * (lo + hi))
    step = np.where(psi_hi == 0.0, hi, step)  # an end is the root (e.g. zero momentum)
    return np.where(psi_lo == 0.0, lo, step), hi


def _pressure_root(dens, energy, m2_head, m2_tail, eos, opts, hint):
    """Safeguarded Newton-bisection for the pressure equation.

    Returns (p, sweeps): the residual sweeps the batch took, the first one
    over every lane plus one per Newton or bisection step of its slowest
    lane; opts.max_iterations caps each lane's steps.  Every lane starts
    from the analytic bracket: lo from admissibility (at p = 0,
    psi = D E / sqrt(E^2 - |m|^2) - E < 0, so no positive floor is needed)
    and hi = (Gamma - 1)(E - D) >= p_root.

    The lane schedule:
      - a lane with a finite hint starts Newton from the hint, clipped to
        the bracket, and certifies its bracket only once it needs one: when
        a Newton step would leave the bracket, or when it is still
        unconverged after two steps;
      - a lane without one (no hint, NaN or infinite) certifies first and
        starts at the midpoint;
      - certifying checks psi(lo) <= 0 and doubles hi until psi(hi) >= 0,
        after which a step outside the bracket falls back to bisection;
      - each residual moves one end of the bracket (a NaN residual moves
        neither), and a lane finishes on the residual tolerance or, once
        certified, on a bracket resolved to float precision;
      - a finished lane takes one Newton polish step from the residual its
        finishing sweep computed.
    The first residual is taken over every lane; later sweeps evaluate only
    the lanes still active, with the per-lane arithmetic of a full-array
    sweep, so results do not depend on which other lanes share the batch.
    Lanes are held flat in C order, so error indices are flat indices.
    """
    shape = np.shape(dens)
    dens, energy, m2_head, m2_tail = (np.ravel(v) for v in (dens, energy, m2_head, m2_tail))
    a = eos.gamma_ratio
    lo = np.maximum(0.0, np.sqrt(m2_head) - energy + 4.0 * _EPS * energy)
    hi = np.maximum((eos.gamma_adiabatic - 1.0) * (energy - dens), 2.0 * lo)

    hint = np.full(shape, np.nan) if hint is None else np.asarray(hint, dtype=float)
    hint = np.ravel(np.broadcast_to(hint, shape))
    certified = np.zeros(hint.shape, dtype=bool)
    need = np.flatnonzero(~np.isfinite(hint))  # cold lanes certify before the first residual
    pressure = np.clip(hint, lo, hi)
    del hint
    newton = np.broadcast_to(np.nan, pressure.shape)  # no Newton step taken yet

    # Converge on the residual with a factor-two safety, against E itself
    # rather than max(E, 1): for small-energy states the looser normalisation
    # would stop orders of magnitude short of the representable root.
    tol = 0.5 * REL_TOLERANCE * energy
    lanes = np.arange(pressure.size)
    p = pressure
    iterations = 0
    while True:
        if need.size:
            certified[need] = True
            p[need], hi[need] = _bracketed_step(
                newton[need], lo[need], hi[need], dens[need], energy[need],
                m2_head[need], m2_tail[need], a, lanes[need],
            )
        psi, dpsi = _psi(p, dens, energy, m2_head, m2_tail, a)
        np.copyto(lo, p, where=psi < 0.0)
        np.copyto(hi, p, where=psi >= 0.0)
        done = (np.abs(psi) <= tol) | (certified & ((hi - lo) <= 4.0 * _EPS * hi))
        if np.any(done):
            # A lane leaves in the sweep that finishes it; the rest are compacted.
            pressure[lanes[done]] = _polish(p[done], psi[done], dpsi[done], lo[done], hi[done])
            keep = ~done
            lanes = lanes[keep]
            p, psi, dpsi, lo, hi, certified, dens, energy, m2_head, m2_tail, tol = (
                v[keep]
                for v in (p, psi, dpsi, lo, hi, certified, dens, energy, m2_head, m2_tail, tol)
            )
        if lanes.size == 0:
            return pressure.reshape(shape), iterations + 1
        if iterations == opts.max_iterations:
            raise RecoveryConvergenceError(
                f"pressure iteration did not converge in {opts.max_iterations} steps",
                bracket=(float(lo[0]), float(hi[0])),
                index=int(lanes[0]),
                iterations=iterations,
            )
        iterations += 1
        newton = p - psi / dpsi
        inside = np.isfinite(newton) & (newton > lo) & (newton < hi)
        p = np.where(inside, newton, 0.5 * (lo + hi))
        need = np.flatnonzero(~certified & (~inside | (iterations > 2)))


def recover_with_iterations(
    cons: np.ndarray,
    eos: EosParams,
    opts: RecoveryOptions = DEFAULT_OPTIONS,
    pressure_hint=None,
):
    """Invert prim_to_cons for a batch of admissible conserved states.

    Returns (prim, sweeps): the primitives and the number of residual
    sweeps the batch took (for run diagnostics), the first one over every
    lane plus one per step of its slowest lane.  pressure_hint, when given,
    starts each lane with a finite hint on Newton from it (typically the
    previous time level's pressure); the other lanes start at the midpoint
    of their certified bracket.  Raises AdmissibilityError for
    non-admissible input and RecoveryConvergenceError when a lane's bracket
    cannot be opened or closed, or it does not converge within
    opts.max_iterations steps.

    Lanes are solved in the power-of-two units that put E in [0.5, 1), as psi
    is homogeneous in (D, m, E, p); rho, p and brackets scale back exactly.
    """
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

    exponent = _lane_exponent(cons)
    cons = np.ldexp(cons, -exponent[..., None])
    if pressure_hint is not None:
        pressure_hint = np.ldexp(np.asarray(pressure_hint, dtype=float), -exponent)
    dens = cons[..., DEN]
    energy = cons[..., ENE]
    m2_head, m2_tail = _momentum_sq_dd(cons)
    try:
        p, iterations = _pressure_root(dens, energy, m2_head, m2_tail, eos, opts, pressure_hint)
    except RecoveryConvergenceError as err:
        lane_e = np.ravel(exponent)[err.index]
        err.bracket = tuple(float(np.ldexp(end, lane_e)) for end in err.bracket)
        raise

    z, w = _inv_gamma_sq(p, energy, m2_head, m2_tail)
    if not np.all(z > 0.0):
        idx = int(np.argmax(~(np.ravel(z) > 0.0)))
        raise RecoveryConvergenceError(
            "recovered velocity is not sub-luminal", index=idx, iterations=iterations
        )
    rho = np.ldexp(dens * np.sqrt(z) / w, exponent)
    p = np.ldexp(p, exponent)
    prim = physics.stack_planes([rho, cons[..., MOMX] / w, cons[..., MOMY] / w, p])
    return prim, iterations
