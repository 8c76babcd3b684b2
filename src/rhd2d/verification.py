"""Randomized property suites behind the `verify` command and the test gate.

Three families: closure properties of the admissible set (convexity,
scaling, flux closure at the extreme signal speeds), admissibility of the
corner fan's intermediate state and of its per-quadrant composites with
amplifier alpha = 2, and primitive-recovery round trips.  The corner state
and its composites, the four-state lemma behind the PCP claim, are formed
only here: the mesh's flux kernel in `riemann` never forms them.

Sampling stresses ultra-relativistic speeds (up to 1 - 1e-8) and
near-vacuum pressures (down to 1e-12), but couples the pressure floor to
rho * gamma^2 * eps so that the margins being asserted stay above float64
round-off of the states themselves; beyond that coupling the conserved
representation no longer determines the answer.  All draws are seeded and
deterministic.

Each suite draws its samples chunk by chunk, at most CHUNK lanes at a
time, straight from the caller's generator in the suite's order, and checks
each chunk at once; the corner sampler draws whole chunks of CHUNK lanes
and keeps their two-sided lanes until it has enough.  One generator, of any
kind, feeds every suite in turn, so the seed, the sample count and CHUNK
together fix every sample: CHUNK is part of the definition of the sample
set, like the seed.  Only per-chunk failure counts and maxima are kept
(`_in_chunks`), so a suite's memory is set by CHUNK, not by the sample
count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import physics, recovery, riemann
from .errors import ConfigurationError, PcpAuditError, RecoveryConvergenceError
from .physics import EosParams

_EPS = float(np.finfo(float).eps)
EOS = EosParams()  # the suites' equation of state
ALPHA = 2.0  # the corner fans' wave-speed amplifier, which the PCP claim needs
CHUNK = 8192  # lanes per chunk drawn and checked (see the module docstring)

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


def _primitives(
    rng: np.random.Generator,
    n: int,
    *,
    rho_decades=(-10.0, 2.0),
    gamma_cap=None,
    guard=ADMISSIBILITY_GUARD,
    rho_center=None,
) -> np.ndarray:
    """n random valid primitive states stressing the extreme corners.

    Speeds mix a uniform draw with a log tail reaching 1 - 1e-8 (or the
    gamma_cap equivalent); rho is log-uniform over `rho_decades`, optionally
    re-centered per lane via `rho_center` (decades, for scale-matched pairs);
    p is log-uniform between the conditioning floor (1e-12 at least) and 1e3.
    """
    dec = rng.uniform(*rho_decades, n)
    rho = 10.0 ** (dec if rho_center is None else rho_center + dec)

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
    floor = np.maximum(1e-12, rho * gamma_sq * _EPS * guard)
    p = 10.0 ** rng.uniform(np.log10(floor), 3.0, n)
    return physics.primitive(rho, speed * np.cos(angle), speed * np.sin(angle), p)


@dataclass
class SuiteResult:
    name: str
    samples: int
    failures: int
    detail: str = ""
    exit_code: int = PcpAuditError.exit_code  # the `verify` command's exit code if it fails

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: {self.failures} failures / {self.samples} samples{extra}"


def _integer(value, name: str, least: int) -> int:
    """`value` as an int of at least `least`; raises ConfigurationError otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise ConfigurationError(f"{name} must be at least {least}, got {count}")
    return count


def _chunks(n: int):
    """The lane counts of consecutive chunks of at most CHUNK of n lanes."""
    return (min(CHUNK, n - start) for start in range(0, n, CHUNK))


def _in_chunks(check, chunks) -> dict:
    """`check(chunk)` for each of `chunks` in order, its dicts folded per key.

    A boolean array (one entry per lane) adds to the key's tally (lanes,
    failures); any other value (a chunk's worst case) to its running maximum.
    """
    totals = {}
    for chunk in chunks:
        for key, value in check(chunk).items():
            if value.dtype == bool:
                lanes, failures = totals.get(key, (0, 0))
                totals[key] = (lanes + value.size, failures + int(np.count_nonzero(~value)))
            else:
                totals[key] = np.maximum(totals.get(key, value), value)
    return totals


def admissible_set_suite(rng: np.random.Generator, n: int):
    """Convexity and closure properties of the admissible set.

    Each flux-closure check (alpha U - F, F - beta U) runs per axis on the
    boundary-guarded draw at its extreme eigenvalues, then on the main
    draw at those speeds widened by delta = 1e-3, 1 and 10.
    """
    n = _integer(n, "sample count", 1)

    def check(m):
        p = _primitives(rng, m)
        cons = physics.prim_to_cons(p, EOS)
        _, _, cs = physics.thermo(p, EOS)
        scaled = 10.0 ** rng.uniform(-6.0, 6.0, m)[:, None] * cons
        # Pair draws share a log scale so the combined margins stay resolvable.
        center = rng.uniform(-6.0, 1.0, m)
        u_0, u_1 = (physics.prim_to_cons(_primitives(
            rng, m, rho_decades=(-1.5, 1.5), rho_center=center), EOS) for _ in range(2))
        t = rng.uniform(0.0, 1.0, m)[:, None]
        c_0, c_1 = (10.0 ** rng.uniform(-3.0, 3.0, m)[:, None] for _ in range(2))
        # Probes exactly on the fan boundary draw from the boundary-guarded
        # sampler; their margins vanish quadratically there.
        p_b = _primitives(rng, m, gamma_cap=BOUNDARY_GAMMA_CAP, guard=BOUNDARY_GUARD)
        cons_b = physics.prim_to_cons(p_b, EOS)
        ok = {
            "forward map lands in the admissible set": physics.is_admissible(cons),
            "sound speed bound c_s^2 < Gamma - 1": cs * cs < EOS.gamma_adiabatic - 1.0,
            "positive scaling stays admissible": physics.is_admissible(scaled),
            "convex combinations stay admissible":
                physics.is_admissible(t * u_0 + (1.0 - t) * u_1),
            "positive combinations stay admissible": physics.is_admissible(c_0 * u_0 + c_1 * u_1),
        }
        speeds, speeds_b = physics.extreme_speeds(p, EOS), physics.extreme_speeds(p_b, EOS)
        for axis, axis_name in ((0, "x"), (1, "y")):
            flux = physics.physical_flux(p, cons, axis)
            flux_b = physics.physical_flux(p_b, cons_b, axis)
            cases = [("the extreme eigenvalue", cons_b, flux_b, speeds_b[axis], 0.0)]
            cases += [(f"extreme + {d:g}", cons, flux, speeds[axis], d) for d in (1e-3, 1.0, 10.0)]
            for at, u, f, (lam1, lam4), delta in cases:
                alpha, beta = (lam4 + delta)[:, None], (lam1 - delta)[:, None]
                ok[f"alpha U - F_{axis_name} admissible at {at}"] = (
                    physics.is_admissible(alpha * u - f))
                ok[f"F_{axis_name} - beta U admissible at {at}"] = (
                    physics.is_admissible(f - beta * u))
        return ok

    return [SuiteResult(name, *tally) for name, tally in _in_chunks(check, _chunks(n)).items()]


def _corner_speeds(prims):
    """Fan speeds (s_left, s_right, s_down, s_up) of corner primitives (ld, rd, lu, ru)."""
    lams = [physics.extreme_speeds(p, EOS) for p in prims]
    speeds = ()
    for axis in (0, 1):
        speeds += riemann.fan_speeds(*zip(*(lam[axis] for lam in lams)), ALPHA)
    return speeds


def _subsonic_corners(rng, n, **sample_kwargs):
    """Yields, chunk by chunk, the primitives (ld, rd, lu, ru) and fan speeds
    (s_left, s_right, s_down, s_up) of the two-sided corner quadruples among
    chunks of CHUNK lanes drawn until there are n."""
    kept = 0
    while kept < n:
        center = rng.uniform(-6.0, 1.0, CHUNK)
        prims = [_primitives(rng, CHUNK, rho_decades=(-1.0, 1.0), rho_center=center,
                             **sample_kwargs) for _ in range(4)]
        speeds = _corner_speeds(prims)
        s_l, s_r, s_d, s_u = speeds
        take = np.flatnonzero((s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0))[:n - kept]
        kept += take.size
        yield [prim[take] for prim in prims], [s[take] for s in speeds]


def _subsonic_fans(chunk):
    """Corner-solver input of a `_subsonic_corners` chunk: the four (U, F, G)
    triples of its primitives, and its fan speeds."""
    prims, speeds = chunk
    corners = []
    for prim in prims:
        cons = physics.prim_to_cons(prim, EOS)
        corners.append(
            (cons, physics.physical_flux(prim, cons, 0), physics.physical_flux(prim, cons, 1))
        )
    return corners, speeds


def hll_state_1d(u_l, f_l, u_r, f_r, s_minus, s_plus):
    """Intermediate HLL state (S_R U_R - S_L U_L + F_L - F_R) / (S_R - S_L)
    of two states, with unclipped speeds s_minus < 0 < s_plus."""
    sl, sr = s_minus[..., None], s_plus[..., None]
    return u_l + (sr * (u_r - u_l) - (f_r - f_l)) / (sr - sl)


def hll_state_2d(corners, speeds) -> np.ndarray:
    """Intermediate state of the four-state corner fan of (U, F, G) triples
    (ld, rd, lu, ru) with two-sided speeds (s_left, s_right, s_down, s_up).

    Built, like `riemann.corner_fluxes`, from the 1D HLL states U_D* and
    U_U* of the down and up edge pairs plus a transverse flux-difference
    correction:

        U* = U_D* + [S_U (U_U* - U_D*) - dG_L
                     - S_R (dG_R - dG_L) / (S_R - S_L)] / (S_U - S_D),

    with dG_L = G_LU - G_LD and dG_R = G_RU - G_RD.  This regroups the
    four-state formula, the combination of `quadrant_fan_states`, so corner
    data invariant along either axis give `hll_state_1d` exactly, per lane.
    """
    (u_ld, f_ld, g_ld), (u_rd, f_rd, g_rd), (u_lu, f_lu, g_lu), (u_ru, f_ru, g_ru) = corners
    u_down = hll_state_1d(u_ld, f_ld, u_rd, f_rd, speeds[0], speeds[1])
    u_up = hll_state_1d(u_lu, f_lu, u_ru, f_ru, speeds[0], speeds[1])
    dg_left = g_lu - g_ld
    dg_right = g_ru - g_rd
    sl, sr, sd, su = (s[..., None] for s in speeds)
    transverse = dg_left + sr * (dg_right - dg_left) / (sr - sl)
    return u_down + (su * (u_up - u_down) - transverse) / (su - sd)


def quadrant_fan_states(corners, speeds):
    """The four per-quadrant composites U - F/S_x - G/S_y of a two-sided fan.

    Each is admissible when the speeds carry amplifier alpha = 2, and the
    corner state is their convex combination with weights
    S_L S_D / B, -S_R S_D / B, -S_L S_U / B, S_R S_U / B.
    """
    (u_ld, f_ld, g_ld), (u_rd, f_rd, g_rd), (u_lu, f_lu, g_lu), (u_ru, f_ru, g_ru) = corners
    sl, sr, sd, su = (s[..., None] for s in speeds)
    h_ld = u_ld - f_ld / sl - g_ld / sd
    h_rd = u_rd - f_rd / sr - g_rd / sd
    h_lu = u_lu - f_lu / sl - g_lu / su
    h_ru = u_ru - f_ru / sr - g_ru / su
    return h_ld, h_rd, h_lu, h_ru


def corner_solver_suite(rng: np.random.Generator, n: int):
    """Admissibility of the corner intermediate state and its quadrant parts."""
    n = _integer(n, "sample count", 1)

    def corner_state(chunk):
        return {f"corner intermediate state admissible (alpha = {ALPHA:g})":
                physics.is_admissible(hll_state_2d(*_subsonic_fans(chunk)))}

    results = [SuiteResult(name, *tally)
               for name, tally in _in_chunks(corner_state, _subsonic_corners(rng, n)).items()]

    def quadrants(chunk):
        parts = quadrant_fan_states(*_subsonic_fans(chunk))
        names = ("left-down", "right-down", "left-up", "right-up")
        return {f"{name} quadrant composite admissible": physics.is_admissible(h)
                for name, h in zip(names, parts)}

    # The quadrant composites touch the fan boundary (the slowest corner sits
    # exactly at speed / alpha), so they draw from the boundary-guarded
    # sampler like the eigenvalue-extreme probes above.
    corners_b = _subsonic_corners(rng, n, gamma_cap=BOUNDARY_GAMMA_CAP, guard=BOUNDARY_GUARD)
    return results + [SuiteResult(name, *tally)
                      for name, tally in _in_chunks(quadrants, corners_b).items()]


def recovery_suite(rng: np.random.Generator, n: int):
    """Round-trip accuracy and residual size of the pressure recovery."""
    n = _integer(n, "sample count", 1)

    def check(m):
        p_in = _primitives(rng, m, gamma_cap=100.0, guard=RECOVERY_GUARD)
        cons = physics.prim_to_cons(p_in, EOS)
        back, _ = recovery.recover_with_iterations(cons, EOS)
        scale = np.maximum(np.abs(p_in), np.finfo(float).tiny)
        rel = np.max(np.abs(back - p_in) / scale, axis=-1)

        # Residual measured in extended precision, independent of the solver path.
        ld = np.longdouble
        dens = ld(cons[..., physics.DEN])
        energy = ld(cons[..., physics.ENE])
        m_sq = ld(cons[..., physics.MOMX]) ** 2 + ld(cons[..., physics.MOMY]) ** 2
        p = ld(back[..., physics.PRE])
        w = energy + p
        gam_sq = 1.0 / (1.0 - m_sq / (w * w))
        psi = dens * np.sqrt(gam_sq) + ld(EOS.gamma_ratio) * p * gam_sq - w
        tol = ld(recovery.REL_TOLERANCE) * np.maximum(energy, 1.0)
        return {"rel ok": rel <= 1e-10, "max rel": np.max(rel),
                "psi ok": np.abs(psi) <= tol, "max psi": np.max(np.abs(psi) / tol)}

    out = _in_chunks(check, _chunks(n))
    exit_code = RecoveryConvergenceError.exit_code
    return [
        SuiteResult("round trip accurate to 1e-10 per component", *out["rel ok"],
                    detail=f"max rel err {float(out['max rel']):.3e}", exit_code=exit_code),
        SuiteResult("pressure-equation residual within tolerance", *out["psi ok"],
                    detail=f"worst |psi|/tol {float(out['max psi']):.3f}", exit_code=exit_code),
    ]


def run_all(seed: int, samples: int):
    """Every suite at the given size; returns a flat list of SuiteResults."""
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    results = []
    results += admissible_set_suite(rng, samples)
    results += corner_solver_suite(rng, samples)
    results += recovery_suite(rng, samples)
    return results
