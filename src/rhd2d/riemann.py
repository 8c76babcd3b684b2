"""The mesh's HLL kernel: 1D face fluxes and four-state corner fluxes.

Everything here takes plain arrays.  A 1D fan is given by its two states'
conserved arrays U and physical fluxes F along the fan's axis; a corner fan
by four (U, F, G) triples in (left-down, right-down, left-up, right-up)
order, F and G being the x- and y-fluxes, and by its speeds
(s_left, s_right, s_down, s_up).  Signal speeds are amplified extreme
characteristic speeds (factor alpha, alpha = 2 gives the positivity
guarantee), reduced over the fan's states by `fan_speeds`.

Fluxes are written in coefficient form.  `hll_coefficients` turns a fan's
speeds into per-lane scalars once (k = sl / (sr - sl), kr = k sr, ...), and
a flux is the left flux plus those scalars times the jumps of U and F
across the fan (`hll_flux_from_jumps`).  Each corner flux is one linear
combination of its edge flux and the fan's jumps and second differences
(`corner_fluxes`), so a mesh takes every jump once and shares it between
faces and corners.  These reductions stay exact in floating point, which
the mesh update relies on:
  - equal states, sl = 0 (supersonic rightward) and empty fans give f_l;
  - sr = 0 (supersonic leftward) gives f_r, by a masked copy;
  - corner data invariant along y (x) give the x (y) edge's 1D flux, per
    lane and in every regime, and equal corners their physical fluxes.
The kernel checks neither its states nor the signs of its speeds.  The
corner fan's intermediate state and its quadrant composites, which the
paper's PCP lemma is about and the mesh never forms, are what `rhd2d
verify` checks; they live in `verification`.  All functions broadcast over
leading axes and are pure, except that `corner_fluxes` writes its result
into the edge fluxes it is given, and that `hll_flux_from_jumps` writes
into its `out` when given one.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np


def fan_speeds(lam1s, lam4s, alpha):
    """(alpha * min of lam1s, alpha * max of lam4s) over the states of a fan.

    The arrays are reduced pairwise, so views into a mesh are never
    stacked into a copy.
    """
    return alpha * reduce(np.minimum, lam1s), alpha * reduce(np.maximum, lam4s)


class FanCoefficients(NamedTuple):
    """Per-lane scalars of a clipped HLL fan; see `hll_coefficients`."""

    k: np.ndarray
    kr: np.ndarray
    a: np.ndarray
    w: np.ndarray
    right: np.ndarray


def hll_coefficients(s_minus, s_plus) -> FanCoefficients:
    """Per-lane scalars of the clipped HLL fan.

    With sl = min(s_minus, 0), sr = max(s_plus, 0) and w = 1 / (sr - sl):
    k = sl w, kr = sl sr w and a = sr w, so that the HLL flux
    (sr f_l - sl f_r + sl sr (u_r - u_l)) w is
    f_l + kr (u_r - u_l) - k (f_r - f_l).  An empty fan (sl = sr = 0)
    takes w = 0, so k = kr = a = 0.  `right` marks the lanes with
    sr = 0 < -sl, whose flux is the right state's.
    """
    sl = np.minimum(s_minus, 0.0)
    sr = np.maximum(s_plus, 0.0)
    right = (sr == 0.0) & (sl < 0.0)
    den = sr - sl
    w = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0.0)
    kr = sl * sr
    kr *= w
    sl *= w
    sr *= w
    return FanCoefficients(sl, kr, sr, w, right)


def hll_flux_from_jumps(f_l, f_r, du, df, coefficients, out=None):
    """Clipped HLL flux f_l + kr du - k df from the jumps du = u_r - u_l,
    df = f_r - f_l and the fan's `hll_coefficients`.

    Exact in floating point: equal states (du = df = 0) and sl = 0 (k = 0,
    so supersonic rightward fans and empty fans) give f_l, and the `right`
    lanes get f_r by a masked copy.  `out`, when given, is an array of the
    flux's shape that receives and returns the flux.
    """
    flux = np.multiply(coefficients.kr[..., None], du, out=out)
    flux += f_l
    flux -= coefficients.k[..., None] * df
    np.copyto(flux, f_r, where=coefficients.right[..., None])
    return flux


def corner_fluxes(edges, crosses, d2u, d2fs, coefficients):
    """(flux_x, flux_y) of corner fans from their shared jumps, without checks.

    For the fan of (U, F, G) triples ld, rd, lu, ru with speeds
    (s_left, s_right, s_down, s_up) the inputs are:
      edges: (F_D*, G_L*), the `hll_flux_from_jumps` fluxes of the down and
             left edge pairs; they are updated in place and returned;
      crosses: (F_LU - F_LD, G_RD - G_LD);
      d2u: the mixed second difference (U_RU - U_LU) - (U_RD - U_LD);
      d2fs: (dF, dG) = ((F_RU - F_LU) - (F_RD - F_LD),
                        (G_RU - G_RD) - (G_LU - G_LD));
      coefficients: `hll_coefficients` of (s_left, s_right), (s_down, s_up).
    The corner flux
        flux_x = [S_U+ F_U** - S_D- F_D** - S_L- S_R+ / (S_R+ - S_L-) dG]
                 / (S_U+ - S_D-)
    is F_D* + a_y (F_U* - F_D*) - kr_x w_y dG, with
    F_U* - F_D* = (F_LU - F_LD) + kr_x d2u - k_x dF, so it is one linear
    combination:
        flux_x = F_D* + a_y (F_LU - F_LD) + a_y kr_x d2u - a_y k_x dF
                 - kr_x w_y dG,
    and symmetrically for flux_y.  Every added term vanishes exactly on
    corner data invariant along y (along x), so flux_x (flux_y) reproduces
    the edge's 1D flux exactly in every regime, and equal corners give
    their physical fluxes exactly.  One-signed fans get the same formula to
    round-off; the mesh feeds every fan to its composite.  Coefficient 1 on
    dG, as in the corner state `verification.hll_state_2d`, gives a
    diagonal neighbour F and G weights -1/S_R and -1/S_U times its U weight
    in the mesh update; with 2 they are -3/(2 S_R) and -3/(2 S_U), and the
    PCP certificate of `mesh_solver` fails at alpha = 2 whatever the CFL
    number.  The paper's own corner-flux
    equation is not at hand to check this coefficient against.
    """
    for flux, cross, d2f, d2f_across, along, across in zip(
        edges, crosses, d2fs, d2fs[::-1], coefficients, coefficients[::-1]
    ):
        terms = (
            (across.a, cross),
            (across.a * along.kr, d2u),
            (-(across.a * along.k), d2f),
            (-(along.kr * across.w), d2f_across),
        )
        for coefficient, jump in terms:
            flux += coefficient[..., None] * jump
    return edges
