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

Each suite runs in two phases.  It first draws all its samples whole, with
every generator call in a fixed order and at a fixed size, because one
generator feeds every suite in turn: drawing in chunks would change the
random stream and so every sample after the first chunk.  It then checks
the samples in chunks of at most CHUNK lanes (`_in_chunks`), so that no
state derived from a whole draw (conserved states, speeds, fluxes,
recovered primitives) is ever held at once.  Every check acts on each
lane alone, so the results do not depend on CHUNK.
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
CHUNK = 8192  # lanes per check chunk; draws stay whole (see the module docstring)

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
    floor = np.maximum(p_min, rho * gamma_sq * _EPS * guard)
    p = 10.0 ** rng.uniform(np.log10(floor), p_max_decade, n)
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


def _count(name, ok, detail="", **kwargs) -> SuiteResult:
    ok = np.asarray(ok)
    return SuiteResult(name, ok.size, int(np.sum(~ok)), detail, **kwargs)


def _sample_count(samples) -> int:
    """`samples` as an int of at least 1; raises ConfigurationError otherwise."""
    try:
        count = operator.index(samples)
    except TypeError:
        count = None
    if count is None or isinstance(samples, bool):
        raise ConfigurationError(f"sample count must be an integer, got {samples!r}")
    if count < 1:
        raise ConfigurationError(f"sample count must be at least 1, got {count}")
    return count


def _in_chunks(check, n: int) -> dict:
    """`check(lanes)` on consecutive slices of at most CHUNK of n lanes, its pieces joined.

    `check` returns a dict of 1D arrays, each holding one entry per lane of
    the slice or one per slice (a maximum taken with keepdims); the result
    holds each key's pieces concatenated in lane order.
    """
    pieces = [check(slice(start, start + CHUNK)) for start in range(0, n, CHUNK)]
    return {key: np.concatenate([piece[key] for piece in pieces]) for key in pieces[0]}


def admissible_set_suite(rng: np.random.Generator, n: int):
    """Convexity and closure properties of the admissible set.

    Each flux-closure check (alpha U - F, F - beta U) runs per axis on the
    boundary-guarded draw at its extreme eigenvalues, then on the main
    draw at those speeds widened by delta = 1e-3, 1 and 10.
    """
    n = _sample_count(n)
    prim = sample_primitives(rng, n)
    kappa = 10.0 ** rng.uniform(-6.0, 6.0, n)
    # Pair draws share a log scale so the combined margins stay resolvable.
    centers = rng.uniform(-6.0, 1.0, n)
    pair = [sample_primitives(rng, n, rho_decades=(-1.5, 1.5), rho_center=centers)
            for _ in range(2)]
    del centers
    theta = rng.uniform(0.0, 1.0, n)
    coeff = [10.0 ** rng.uniform(-3.0, 3.0, n) for _ in range(2)]
    # Probes exactly on the fan boundary draw from the boundary-guarded
    # sampler; their margins vanish quadratically there.
    prim_b = sample_primitives(rng, n, gamma_cap=BOUNDARY_GAMMA_CAP, guard=BOUNDARY_GUARD)

    def check(lanes):
        p, p_b = prim[lanes], prim_b[lanes]
        cons, cons_b = physics.prim_to_cons(p, EOS), physics.prim_to_cons(p_b, EOS)
        _, _, cs = physics.thermo(p, EOS)
        u_0, u_1 = (physics.prim_to_cons(q[lanes], EOS) for q in pair)
        t = theta[lanes, None]
        ok = {
            "forward map lands in the admissible set": physics.is_admissible(cons),
            "sound speed bound c_s^2 < Gamma - 1": cs * cs < EOS.gamma_adiabatic - 1.0,
            "positive scaling stays admissible": physics.is_admissible(kappa[lanes, None] * cons),
            "convex combinations stay admissible":
                physics.is_admissible(t * u_0 + (1.0 - t) * u_1),
            "positive combinations stay admissible":
                physics.is_admissible(coeff[0][lanes, None] * u_0 + coeff[1][lanes, None] * u_1),
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

    return [_count(name, ok) for name, ok in _in_chunks(check, n).items()]


def _corner_speeds(prims):
    """Fan speeds (s_left, s_right, s_down, s_up) of corner primitives (ld, rd, lu, ru)."""
    lams = [physics.extreme_speeds(p, EOS) for p in prims]
    speeds = ()
    for axis in (0, 1):
        speeds += riemann.fan_speeds(*zip(*(lam[axis] for lam in lams)), ALPHA)
    return speeds


def _subsonic_corners(rng, n, **sample_kwargs):
    """The primitives, in (ld, rd, lu, ru) order, of the first n two-sided
    corner quadruples of batches drawn until there are n."""
    prims, kept, size = [np.empty((n, 4)) for _ in range(4)], 0, max(n, 4096)
    while kept < n:
        centers = rng.uniform(-6.0, 1.0, size)
        batch = [sample_primitives(rng, size, rho_decades=(-1.0, 1.0), rho_center=centers,
                                   **sample_kwargs) for _ in range(4)]
        del centers

        def two_sided(lanes):
            s_l, s_r, s_d, s_u = _corner_speeds([prim[lanes] for prim in batch])
            return {"keep": (s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0)}

        take = np.flatnonzero(_in_chunks(two_sided, size)["keep"])[:n - kept]
        for out, prim in zip(prims, batch):
            out[kept:kept + take.size] = prim[take]
        kept += take.size
        del batch  # a whole batch is never held while the next is drawn
    return prims


def _subsonic_fans(prims):
    """Corner-solver input of two-sided corner primitives: four (U, F, G)
    triples and the fan speeds."""
    corners = []
    for prim in prims:
        cons = physics.prim_to_cons(prim, EOS)
        corners.append(
            (cons, physics.physical_flux(prim, cons, 0), physics.physical_flux(prim, cons, 1))
        )
    return corners, _corner_speeds(prims)


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
    n = _sample_count(n)
    prims = _subsonic_corners(rng, n)

    def corner_state(lanes):
        fans = _subsonic_fans([prim[lanes] for prim in prims])
        return {f"corner intermediate state admissible (alpha = {ALPHA:g})":
                physics.is_admissible(hll_state_2d(*fans))}

    results = [_count(name, ok) for name, ok in _in_chunks(corner_state, n).items()]
    del prims

    # The quadrant composites touch the fan boundary (the slowest corner sits
    # exactly at speed / alpha), so they draw from the boundary-guarded
    # sampler like the eigenvalue-extreme probes above.
    prims_b = _subsonic_corners(rng, n, gamma_cap=BOUNDARY_GAMMA_CAP, guard=BOUNDARY_GUARD)

    def quadrants(lanes):
        parts = quadrant_fan_states(*_subsonic_fans([prim[lanes] for prim in prims_b]))
        names = ("left-down", "right-down", "left-up", "right-up")
        return {f"{name} quadrant composite admissible": physics.is_admissible(h)
                for name, h in zip(names, parts)}

    return results + [_count(name, ok) for name, ok in _in_chunks(quadrants, n).items()]


def recovery_suite(rng: np.random.Generator, n: int):
    """Round-trip accuracy and residual size of the pressure recovery."""
    n = _sample_count(n)
    prim = sample_primitives(rng, n, gamma_cap=100.0, guard=RECOVERY_GUARD)

    def check(lanes):
        p_in = prim[lanes]
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
        return {"rel ok": rel <= 1e-10, "max rel": np.max(rel, keepdims=True),
                "psi ok": np.abs(psi) <= tol, "max psi": np.max(np.abs(psi) / tol, keepdims=True)}

    out = _in_chunks(check, n)
    exit_code = RecoveryConvergenceError.exit_code
    return [
        _count("round trip accurate to 1e-10 per component", out["rel ok"],
               detail=f"max rel err {float(np.max(out['max rel'])):.3e}", exit_code=exit_code),
        _count("pressure-equation residual within tolerance", out["psi ok"],
               detail=f"worst |psi|/tol {float(np.max(out['max psi'])):.3f}", exit_code=exit_code),
    ]


def run_all(seed: int, samples: int):
    """Every suite at the given size; returns a flat list of SuiteResults."""
    rng = np.random.default_rng(seed)
    results = []
    results += admissible_set_suite(rng, samples)
    results += corner_solver_suite(rng, samples)
    results += recovery_suite(rng, samples)
    return results
