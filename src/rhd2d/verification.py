"""Randomized property suites behind the `verify` command and the test gate.

Three families: closure properties of the admissible set (convexity,
scaling, flux closure at the extreme signal speeds), admissibility of the
corner solver's intermediate state and of its per-quadrant composites with
amplifier alpha = 2, and primitive-recovery round trips.

Sampling stresses ultra-relativistic speeds (up to 1 - 1e-8) and
near-vacuum pressures (down to 1e-12), but couples the pressure floor to
rho * gamma^2 * eps so that the margins being asserted stay above float64
round-off of the states themselves; beyond that coupling the conserved
representation no longer determines the answer.  All draws are seeded and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics, recovery, riemann
from .physics import EosParams

_EPS = float(np.finfo(float).eps)

# p >= rho * gamma^2 * eps * GUARD keeps admissibility margins at least
# ~1/GUARD above construction round-off; the recovery guard is stricter
# because round trips must resolve p itself to 1e-10.  States probed exactly
# on the fan boundary (alpha equal to the extreme eigenvalue) have margins
# that scale with p^2 instead of p, so that sub-family needs both a tighter
# pressure coupling and a Lorentz-factor cap to stay above representation
# noise.
ADMISSIBILITY_GUARD = 4.0e3
RECOVERY_GUARD = 2.0e11
BOUNDARY_GUARD = 1.0e10
BOUNDARY_GAMMA_CAP = 300.0


def sample_primitives(
    rng: np.random.Generator,
    n: int,
    *,
    eos: EosParams,
    rho_decades=(-10.0, 2.0),
    p_max_decade=3.0,
    p_min=1e-12,
    gamma_cap=None,
    guard=ADMISSIBILITY_GUARD,
    rho_center=None,
) -> np.ndarray:
    """Random valid primitive states stressing the extreme corners.

    Speeds mix a uniform draw with a log tail reaching 1 - 1e-8 (or the
    gamma_cap equivalent); rho is log-uniform over `rho_decades`, optionally
    re-centered per lane via `rho_center` (decades, for scale-matched pairs);
    p is log-uniform between the conditioning floor and 10**p_max_decade.
    """
    lo, hi = rho_decades
    if rho_center is not None:
        dec = rho_center + rng.uniform(lo, hi, n)
    else:
        dec = rng.uniform(lo, hi, n)
    rho = 10.0**dec

    speed_max = 1.0 - 1e-8
    if gamma_cap is not None:
        speed_max = min(speed_max, np.sqrt(1.0 - 1.0 / gamma_cap**2))
    tail = rng.random(n) < 0.5
    speed = np.where(
        tail,
        1.0 - 10.0 ** rng.uniform(np.log10(1.0 - speed_max), 0.0, n),
        rng.uniform(0.0, speed_max, n),
    )
    angle = rng.uniform(0.0, 2.0 * np.pi, n)

    gamma_sq = 1.0 / ((1.0 - speed) * (1.0 + speed))
    floor = np.maximum(p_min, rho * gamma_sq * _EPS * guard)
    p = 10.0 ** rng.uniform(np.log10(floor), p_max_decade, n)
    return physics.primitive(rho, speed * np.cos(angle), speed * np.sin(angle), p)


@dataclass
class SuiteResult:
    name: str
    samples: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: {self.failures} failures / {self.samples} samples{extra}"


def _count(name, ok, detail="") -> SuiteResult:
    ok = np.asarray(ok)
    return SuiteResult(name, ok.size, int(np.sum(~ok)), detail)


def admissible_set_suite(rng: np.random.Generator, n: int, eos: EosParams = EosParams()):
    """Convexity and closure properties of the admissible set."""
    results = []

    prim = sample_primitives(rng, n, eos=eos)
    cons = physics.prim_to_cons(prim, eos)
    results.append(_count("forward map lands in the admissible set", physics.is_admissible(cons)))

    _, _, cs = physics.thermo(prim, eos)
    results.append(_count("sound speed bound c_s^2 < Gamma - 1", cs * cs < eos.gamma_adiabatic - 1.0))

    kappa = 10.0 ** rng.uniform(-6.0, 6.0, n)
    results.append(
        _count("positive scaling stays admissible", physics.is_admissible(kappa[:, None] * cons))
    )

    # Pair draws share a log scale so the combined margins stay resolvable.
    centers = rng.uniform(-6.0, 1.0, n)
    pair = [
        physics.prim_to_cons(
            sample_primitives(rng, n, eos=eos, rho_decades=(-1.5, 1.5), rho_center=centers),
            eos,
        )
        for _ in range(2)
    ]
    theta = rng.uniform(0.0, 1.0, n)[:, None]
    results.append(
        _count(
            "convex combinations stay admissible",
            physics.is_admissible(theta * pair[0] + (1.0 - theta) * pair[1]),
        )
    )
    coeff = [10.0 ** rng.uniform(-3.0, 3.0, n)[:, None] for _ in range(2)]
    results.append(
        _count(
            "positive combinations stay admissible",
            physics.is_admissible(coeff[0] * pair[0] + coeff[1] * pair[1]),
        )
    )

    # Probes exactly on the fan boundary draw from the boundary-guarded
    # sampler; their margins vanish quadratically there.
    prim_b = sample_primitives(
        rng, n, eos=eos, gamma_cap=BOUNDARY_GAMMA_CAP, guard=BOUNDARY_GUARD
    )
    cons_b = physics.prim_to_cons(prim_b, eos)
    for axis, axis_name in ((0, "x"), (1, "y")):
        lam = physics.eigenvalues(prim, eos, axis)
        flux = physics.physical_flux(prim, cons, axis)
        lam_b = physics.eigenvalues(prim_b, eos, axis)
        flux_b = physics.physical_flux(prim_b, cons_b, axis)
        results.append(
            _count(
                f"alpha U - F_{axis_name} admissible at the extreme eigenvalue",
                physics.is_admissible(lam_b.lam4[:, None] * cons_b - flux_b),
            )
        )
        results.append(
            _count(
                f"F_{axis_name} - beta U admissible at the extreme eigenvalue",
                physics.is_admissible(flux_b - lam_b.lam1[:, None] * cons_b),
            )
        )
        for delta in (1e-3, 1.0, 10.0):
            a = (lam.lam4 + delta)[:, None]
            b = (lam.lam1 - delta)[:, None]
            results.append(
                _count(
                    f"alpha U - F_{axis_name} admissible at extreme + {delta:g}",
                    physics.is_admissible(a * cons - flux),
                )
            )
            results.append(
                _count(
                    f"F_{axis_name} - beta U admissible at extreme + {delta:g}",
                    physics.is_admissible(flux - b * cons),
                )
            )
    return results


def _fan_speeds_2d(prims, eos, alpha):
    """(s_left, s_right, s_down, s_up) over four primitive arrays."""
    speeds = ()
    for axis in (0, 1):
        lam = [physics.eigenvalues(p, eos, axis) for p in prims]
        speeds += riemann.fan_speeds([l.lam1 for l in lam], [l.lam4 for l in lam], alpha)
    return speeds


def _corner_fan(prims, eos, alpha):
    """Corner-solver input from four primitive arrays in (ld, rd, lu, ru) order:
    the (U, F, G) triple of each state and the fan speeds."""
    corners = []
    for prim in prims:
        cons = physics.prim_to_cons(prim, eos)
        corners.append(
            (cons, physics.physical_flux(prim, cons, 0), physics.physical_flux(prim, cons, 1))
        )
    return corners, _fan_speeds_2d(prims, eos, alpha)


def _subsonic_corners(rng, n, eos, alpha, **sample_kwargs):
    """Draw corner quadruples until n of them have two-sided fans."""
    kept_prims, kept = [], 0
    while kept < n:
        batch = max(n, 4096)
        centers = rng.uniform(-6.0, 1.0, batch)
        prims = [
            sample_primitives(
                rng, batch, eos=eos, rho_decades=(-1.0, 1.0), rho_center=centers, **sample_kwargs
            )
            for _ in range(4)
        ]
        s_l, s_r, s_d, s_u = _fan_speeds_2d(prims, eos, alpha)
        keep = (s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0)
        kept_prims.append([p[keep] for p in prims])
        kept += int(np.sum(keep))
    return [np.concatenate([batch[k] for batch in kept_prims])[:n] for k in range(4)]


def corner_solver_suite(rng: np.random.Generator, n: int, eos: EosParams = EosParams(), alpha=2.0):
    """Admissibility of the corner intermediate state and its quadrant parts."""
    corners, speeds = _corner_fan(_subsonic_corners(rng, n, eos, alpha), eos, alpha)
    star = riemann.hll_state_2d(corners, speeds)
    results = [_count("corner intermediate state admissible (alpha = 2)", physics.is_admissible(star))]

    # The quadrant composites touch the fan boundary (the slowest corner sits
    # exactly at speed / alpha), so they draw from the boundary-guarded
    # sampler like the eigenvalue-extreme probes above.
    prims_b = _subsonic_corners(
        rng, n, eos, alpha, gamma_cap=BOUNDARY_GAMMA_CAP, guard=BOUNDARY_GUARD
    )
    corners_b, speeds_b = _corner_fan(prims_b, eos, alpha)
    names = ("left-down", "right-down", "left-up", "right-up")
    for name, h in zip(names, riemann.quadrant_fan_states(corners_b, speeds_b)):
        results.append(_count(f"{name} quadrant composite admissible", physics.is_admissible(h)))
    return results


def recovery_suite(rng: np.random.Generator, n: int, eos: EosParams = EosParams()):
    """Round-trip accuracy and residual size of the pressure recovery."""
    prim = sample_primitives(
        rng, n, eos=eos, gamma_cap=100.0, p_max_decade=3.0, guard=RECOVERY_GUARD
    )
    cons = physics.prim_to_cons(prim, eos)
    opts = recovery.DEFAULT_OPTIONS
    back, _ = recovery.recover_with_iterations(cons, eos, opts)

    scale = np.maximum(np.abs(prim), np.finfo(float).tiny)
    rel = np.max(np.abs(back - prim) / scale, axis=-1)
    results = [
        _count(
            "round trip accurate to 1e-10 per component",
            rel <= 1e-10,
            detail=f"max rel err {float(np.max(rel)):.3e}",
        )
    ]

    # Residual measured in extended precision, independent of the solver path.
    ld = np.longdouble
    dens = ld(cons[..., physics.DEN])
    energy = ld(cons[..., physics.ENE])
    m_sq = ld(cons[..., physics.MOMX]) ** 2 + ld(cons[..., physics.MOMY]) ** 2
    p = ld(back[..., physics.PRE])
    w = energy + p
    gam_sq = 1.0 / (1.0 - m_sq / (w * w))
    psi = dens * np.sqrt(gam_sq) + ld(eos.gamma_ratio) * p * gam_sq - w
    tol = ld(opts.rel_tolerance) * np.maximum(energy, 1.0)
    results.append(
        _count(
            "pressure-equation residual within tolerance",
            np.abs(psi) <= tol,
            detail=f"worst |psi|/tol {float(np.max(np.abs(psi) / tol)):.3f}",
        )
    )
    return results


def run_all(seed: int = 20260808, samples: int = 100_000):
    """Every suite at the given size; returns a flat list of SuiteResults."""
    rng = np.random.default_rng(seed)
    results = []
    results += admissible_set_suite(rng, samples)
    results += corner_solver_suite(rng, samples)
    results += recovery_suite(rng, samples)
    return results
