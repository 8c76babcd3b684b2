"""Approximate Riemann solvers: 1D HLL and the four-state corner HLL.

Everything here takes plain arrays.  A 1D fan is given by its two states'
conserved arrays U and physical fluxes F along the fan's axis; a corner fan
by four (U, F, G) triples in (left-down, right-down, left-up, right-up)
order, F and G being the x- and y-fluxes, and by its speeds
(s_left, s_right, s_down, s_up).  Signal speeds are amplified extreme
characteristic speeds (factor alpha, alpha = 2 gives the positivity
guarantee), reduced over the fan's states by `fan_speeds`.  Formulas are
written in difference form, left value + (corrections built from state and
flux differences); this keeps equal-state, supersonic, and one-dimensional
reductions exact in floating point, which the mesh update relies on.  The
corner state and fluxes are both built from the 1D HLL pieces of the fan's
edge pairs.  `hll_state_2d` and `quadrant_fan_states` check their input;
`corner_fluxes`, the mesh kernel, does not.  All functions broadcast over
leading axes and are pure.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import AdmissibilityError, DegenerateFanError, DispatchError
from .physics import is_admissible

_CORNER_NAMES = ("left_down", "right_down", "left_up", "right_up")


def fan_speeds(lam1s, lam4s, alpha=2.0):
    """(alpha * min of lam1s, alpha * max of lam4s) over the states of a fan.

    The arrays are reduced pairwise, so views into a mesh are never
    stacked into a copy.
    """
    if not alpha >= 1.0:
        raise ValueError(f"speed amplifier alpha must be >= 1, got {alpha}")
    return alpha * reduce(np.minimum, lam1s), alpha * reduce(np.maximum, lam4s)


def hll_flux_1d(u_l, f_l, u_r, f_r, s_minus, s_plus):
    """Clipped-fan HLL flux in difference form, valid in every regime.

    With sl = min(s_minus, 0), sr = max(s_plus, 0):
        flux = f_l + sl * (sr * (u_r - u_l) - (f_r - f_l)) / (sr - sl),
    dispatched to the pure upwind flux when a clipped speed is zero.  The
    grouping returns f_l (f_r) exactly for supersonic fans and f_l exactly
    for equal inputs.  When both clipped speeds vanish the fan is empty and
    the left state's physical flux is returned.
    """
    sl = np.minimum(s_minus, 0.0)[..., None]
    sr = np.maximum(s_plus, 0.0)[..., None]
    den = sr - sl
    safe = np.where(den == 0.0, 1.0, den)
    mid = f_l + sl * (sr * (u_r - u_l) - (f_r - f_l)) / safe
    return np.where(sl == 0.0, f_l, np.where(sr == 0.0, f_r, mid))


def hll_state_1d(u_l, f_l, u_r, f_r, s_minus, s_plus):
    """Intermediate HLL state (S_R U_R - S_L U_L + F_L - F_R) / (S_R - S_L).

    Unclipped speeds; the subsonic case s_minus < 0 < s_plus is the
    caller's contract.
    """
    sl = np.asarray(s_minus, dtype=float)[..., None]
    sr = np.asarray(s_plus, dtype=float)[..., None]
    if np.any(sl == sr):
        raise DegenerateFanError("degenerate fan: s_minus == s_plus")
    return u_l + (sr * (u_r - u_l) - (f_r - f_l)) / (sr - sl)


def _checked_corner_fan(corners, speeds):
    """Check a corner fan's input; return its speeds as float arrays."""
    for name, (u, _, _) in zip(_CORNER_NAMES, corners):
        if not np.all(is_admissible(u)):
            raise AdmissibilityError(f"corner state {name} is not admissible")
    s_l, s_r, s_d, s_u = (np.asarray(s, dtype=float) for s in speeds)
    if np.any(s_l > s_r) or np.any(s_d > s_u):
        raise ValueError("wave speeds must satisfy s_left <= s_right, s_down <= s_up")
    if not np.all((s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0)):
        raise DispatchError(
            "corner solver needs s_left < 0 < s_right and s_down < 0 < s_up; "
            "one-signed fans belong to the 1D solver"
        )
    return s_l, s_r, s_d, s_u


def hll_state_2d(corners, speeds) -> np.ndarray:
    """Intermediate state of the four-state corner Riemann fan.

    Built, like `corner_fluxes`, from the 1D HLL states U_D* and U_U* of
    the down and up edge pairs plus a transverse flux-difference correction:

        U* = U_D* + [S_U (U_U* - U_D*) - dG_L
                     - S_R (dG_R - dG_L) / (S_R - S_L)] / (S_U - S_D),

    with dG_L = G_LU - G_LD and dG_R = G_RU - G_RD.  This regroups the
    four-state formula, the combination of `quadrant_fan_states`, so corner
    data invariant along either axis give `hll_state_1d` exactly, per lane.
    """
    sl, sr, sd, su = _checked_corner_fan(corners, speeds)
    (u_ld, f_ld, g_ld), (u_rd, f_rd, g_rd), (u_lu, f_lu, g_lu), (u_ru, f_ru, g_ru) = corners
    u_down = hll_state_1d(u_ld, f_ld, u_rd, f_rd, sl, sr)
    u_up = hll_state_1d(u_lu, f_lu, u_ru, f_ru, sl, sr)
    dg_left = g_lu - g_ld
    dg_right = g_ru - g_rd
    slv, srv, sdv, suv = (s[..., None] for s in (sl, sr, sd, su))
    transverse = dg_left + srv * (dg_right - dg_left) / (srv - slv)
    return u_down + (suv * (u_up - u_down) - transverse) / (suv - sdv)


def quadrant_fan_states(corners, speeds):
    """The four per-quadrant composites U - F/S_x - G/S_y (subsonic fans only).

    Each is admissible when the speeds carry amplifier alpha = 2, and the
    corner state is their convex combination with weights
    S_L S_D / B, -S_R S_D / B, -S_L S_U / B, S_R S_U / B.
    """
    (u_ld, f_ld, g_ld), (u_rd, f_rd, g_rd), (u_lu, f_lu, g_lu), (u_ru, f_ru, g_ru) = corners
    sl, sr, sd, su = (s[..., None] for s in _checked_corner_fan(corners, speeds))
    h_ld = u_ld - f_ld / sl - g_ld / sd
    h_rd = u_rd - f_rd / sr - g_rd / sd
    h_lu = u_lu - f_lu / sl - g_lu / su
    h_ru = u_ru - f_ru / sr - g_ru / su
    return h_ld, h_rd, h_lu, h_ru


def corner_fluxes(corners, speeds):
    """(flux_x, flux_y) of the corner fan, without input checks.

    Built from the four clipped 1D fluxes of the fan's edge pairs plus a
    transverse flux-difference correction:

        flux_x = [S_U+ F_U** - S_D- F_D**
                  - 2 S_L- S_R+ / (S_R+ - S_L-) * dG] / (S_U+ - S_D-),

    with dG = (G_RU - G_RD) - (G_LU - G_LD), and symmetrically for flux_y.
    The difference-form grouping makes one-dimensional corner data reproduce
    the matching 1D flux exactly.  A vanished clipped spread divides by one
    instead, so the mesh update, whose cells recovery has already certified,
    calls this kernel directly.
    """
    (u_ld, f_ld, g_ld), (u_rd, f_rd, g_rd), (u_lu, f_lu, g_lu), (u_ru, f_ru, g_ru) = corners
    s_l, s_r, s_d, s_u = speeds
    slm = np.minimum(s_l, 0.0)[..., None]
    srp = np.maximum(s_r, 0.0)[..., None]
    sdm = np.minimum(s_d, 0.0)[..., None]
    sup = np.maximum(s_u, 0.0)[..., None]

    f_up = hll_flux_1d(u_lu, f_lu, u_ru, f_ru, s_l, s_r)
    f_down = hll_flux_1d(u_ld, f_ld, u_rd, f_rd, s_l, s_r)
    g_right = hll_flux_1d(u_rd, g_rd, u_ru, g_ru, s_d, s_u)
    g_left = hll_flux_1d(u_ld, g_ld, u_lu, g_lu, s_d, s_u)
    diff_g = (g_ru - g_rd) - (g_lu - g_ld)
    diff_f = (f_ru - f_rd) - (f_lu - f_ld)

    den_x = srp - slm
    den_y = sup - sdm
    safe_x = np.where(den_x == 0.0, 1.0, den_x)
    safe_y = np.where(den_y == 0.0, 1.0, den_y)
    flux_x = f_down + (sup * (f_up - f_down) - (2.0 * slm * srp / safe_x) * diff_g) / safe_y
    flux_y = g_left + (srp * (g_right - g_left) - (2.0 * sdm * sup / safe_y) * diff_f) / safe_x
    return flux_x, flux_y

