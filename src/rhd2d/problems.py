"""Benchmark problems: initial data, exact solutions, norms, diagnostics.

Each problem is a ProblemSpec bundling the domain, adiabatic index,
boundary rules, a final time, the initial primitive field, and (for the
smooth accuracy tests) the exact primitive solution.  Each is declared
once, as the value of its name in one table: `problem_names()` lists the
names and `problem_by_name` returns the shared, frozen value.  The
initial and exact states are built by `physics.stack_planes`, one
contiguous plane per component, like every state the package makes.
The state functions take the caller's x and y, arrays or floats, as
they are: their arithmetic broadcasts one against the other.
Discontinuous data are sampled at cell centers with strict region
membership; boundary points take the outer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import physics, recovery
from .errors import ConfigurationError
from .mesh_solver import BoundarySpec, Field, Grid, Inflow, periodic_boundaries
from .physics import EosParams, RHO


@dataclass(frozen=True)
class ProblemSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    eos: EosParams
    boundaries: BoundarySpec
    t_end: float
    initial: Callable  # (x, y) -> primitive array
    exact: Optional[Callable] = None  # (t, x, y) -> primitive array

    @property
    def average_init(self) -> bool:
        """Whether the initial field holds cell averages of the conserved image.

        True for the smooth problems, those with an exact solution;
        discontinuous data are sampled at cell centers.
        """
        return self.exact is not None

    def default_grid(self, n: int) -> Grid:
        """N cells across x, scaled in y to keep cells square."""
        aspect = (self.y_max - self.y_min) / (self.x_max - self.x_min)
        return Grid(n, int(round(n * aspect)), self.x_min, self.x_max, self.y_min, self.y_max)


# --- sine wave ---------------------------------------------------------------

SINE_DELTA = 0.99999
_SINE_SPEED = 0.99 / math.sqrt(2.0)


def sine_wave(t, x, y):
    """Diagonally advected density wave; the velocity and pressure are uniform."""
    rho = 1.0 + SINE_DELTA * np.sin(2.0 * np.pi * (x + y - 0.99 * math.sqrt(2.0) * t))
    return physics.stack_planes(np.broadcast_arrays(rho, _SINE_SPEED, _SINE_SPEED, 0.01))


# --- isentropic vortex -------------------------------------------------------

VORTEX_GAMMA = 1.4
VORTEX_EPSILON = 10.0828
VORTEX_DRIFT = 0.5 * math.sqrt(2.0)
# Vortex strength constant; the adopted pi placement puts the center density
# near 1e-14 instead of below zero.
VORTEX_ALPHA = (VORTEX_GAMMA - 1.0) * VORTEX_EPSILON**2 / (8.0 * VORTEX_GAMMA * math.pi**2)


def vortex(t, x, y):
    """Isentropic vortex drifting at speed w along (-1, -1); p = rho^Gamma."""
    g = VORTEX_GAMMA
    w = VORTEX_DRIFT
    gam_w = 1.0 / math.sqrt(1.0 - w * w)

    shift = 0.5 * (gam_w - 1.0) * (x + y) + gam_w * t * w / math.sqrt(2.0)
    x0 = x + shift
    y0 = y + shift
    r_sq = x0 * x0 + y0 * y0

    bump = VORTEX_ALPHA * np.exp(1.0 - r_sq)
    base = 1.0 - bump
    if not np.all(base > 0.0):
        raise ConfigurationError(
            "vortex density base is non-positive; strength constant too large")
    rho = base ** (1.0 / (g - 1.0))

    # Rotation profile from the radial balance dp/dr = rho h (1 + beta r^2)
    # (u_phi/r)^2 r with p = rho^Gamma; the quadratic Lorentz factor of the
    # rotation is gamma_rot^2 = 1 + beta r^2.
    beta = 2.0 * g * bump / (2.0 * g - 1.0 - g * bump)
    f = np.sqrt(beta / (1.0 + beta * r_sq))
    u0 = -y0 * f
    v0 = x0 * f

    swirl = u0 + v0
    denom = 1.0 - w * swirl / math.sqrt(2.0)
    common = -w / math.sqrt(2.0) + gam_w * w * w * swirl / (2.0 * (gam_w + 1.0))
    return physics.stack_planes(
        [rho, (u0 / gam_w + common) / denom, (v0 / gam_w + common) / denom, rho**g])


# --- cylindrical explosion ---------------------------------------------------


def explosion_init(x, y):
    """Rest gas with a high-pressure disc of radius 0.1 (strict interior)."""
    r = np.sqrt(x * x + y * y)
    return physics.stack_planes(np.broadcast_arrays(1.0, 0.0, 0.0, np.where(r < 0.1, 20.0, 0.1)))


# --- quadrant Riemann problems -----------------------------------------------

RP2_RHO = 0.00414329639576
RP2_VEL = 0.9946418833556542

_RP_STATES = {
    # quadrant order: (x>0, y>0), (x<0, y>0), (x<0, y<0), (x>0, y<0)
    "rp1": (
        (0.1, 0.0, 0.0, 0.01),
        (0.1, 0.99, 0.0, 1.0),
        (0.5, 0.0, 0.0, 1.0),
        (0.1, 0.0, 0.99, 1.0),
    ),
    "rp2": (
        (0.1, 0.0, 0.0, 20.0),
        (RP2_RHO, RP2_VEL, 0.0, 0.05),
        (0.01, 0.0, 0.0, 0.05),
        (RP2_RHO, 0.0, RP2_VEL, 0.05),
    ),
}


def riemann_quadrant_init(variant: str, x, y):
    """Four constant states split by the coordinate axes."""
    if variant not in _RP_STATES:
        raise ConfigurationError(f"unknown Riemann problem variant {variant!r}")
    east, north = x > 0.0, y > 0.0
    quadrant = np.where(north, np.where(east, 0, 1), np.where(east, 3, 2))  # _RP_STATES' order
    return physics.stack_planes([component[quadrant]
                                 for component in np.transpose(_RP_STATES[variant])])


# --- relativistic jets -------------------------------------------------------


def jet_setup(model: str, v_beam: float, mach_beam: float) -> ProblemSpec:
    """The ProblemSpec of a hot or cold jet.

    The beam sound speed is v_beam / mach_beam; the matched pressure solves
    c_s^2 = Gamma p / (rho h) for the beam density, and the ambient gas is
    at rest with unit density and the same pressure.  The nozzle spans
    |x| <= 0.5 on the bottom boundary (the reflecting wall at x = 0 carries
    its mirror image), with a reflecting left side and outflow elsewhere.
    """
    if model not in ("hot", "cold"):
        raise ConfigurationError(f"jet model must be 'hot' or 'cold', got {model!r}")
    if not (0.0 < v_beam < 1.0):
        raise ConfigurationError("beam speed must lie in (0, 1)")
    if not mach_beam > 0.0:
        raise ConfigurationError("beam Mach number must be positive")
    eos = EosParams(5.0 / 3.0)
    g = eos.gamma_adiabatic
    cs = v_beam / mach_beam
    if cs * cs >= g - 1.0:
        raise ConfigurationError(
            f"beam Mach number too low: c_s^2 = {cs * cs:.6g} >= Gamma - 1 = {g - 1.0:.6g}"
        )
    rho_b = 0.01 if model == "hot" else 0.1
    p_b = cs * cs * rho_b * (g - 1.0) / (g * (g - 1.0 - cs * cs))

    y_max = 30.0 if model == "hot" else 25.0

    def initial(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return physics.stack_planes([np.full(shape, value) for value in (1.0, 0.0, 0.0, p_b)])

    return ProblemSpec(
        x_min=0.0,
        x_max=12.0,
        y_min=0.0,
        y_max=y_max,
        eos=eos,
        boundaries=BoundarySpec(
            left="reflect",
            right="outflow",
            bottom=Inflow(state=(rho_b, 0.0, v_beam, p_b), span=(-0.5, 0.5)),
            top="outflow",
        ),
        t_end=30.0,
        initial=initial,
    )


# --- registry ----------------------------------------------------------------


_PROBLEMS = {
    "sine": ProblemSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, eos=EosParams(5.0 / 3.0),
                        boundaries=periodic_boundaries(), t_end=0.1,
                        initial=partial(sine_wave, 0.0), exact=sine_wave),
    "vortex": ProblemSpec(x_min=-5.0, x_max=5.0, y_min=-5.0, y_max=5.0,
                          eos=EosParams(VORTEX_GAMMA), boundaries=periodic_boundaries(),
                          t_end=1.0, initial=partial(vortex, 0.0), exact=vortex),
    "explosion": ProblemSpec(x_min=-0.5, x_max=0.5, y_min=-0.5, y_max=0.5,
                             eos=EosParams(5.0 / 3.0), boundaries=BoundarySpec(), t_end=0.1,
                             initial=explosion_init),
    **{variant: ProblemSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0,
                            eos=EosParams(5.0 / 3.0), boundaries=BoundarySpec(), t_end=0.8,
                            initial=partial(riemann_quadrant_init, variant))
       for variant in _RP_STATES},
    "jet-hot-i": jet_setup("hot", 0.99, 1.72),
    "jet-hot-ii": jet_setup("hot", 0.999, 1.72),
    "jet-hot-iii": jet_setup("hot", 0.9999, 1.72),
    "jet-cold-i": jet_setup("cold", 0.99, 50.0),
    "jet-cold-ii": jet_setup("cold", 0.999, 50.0),
    "jet-cold-iii": jet_setup("cold", 0.9999, 500.0),
}


def problem_names():
    return tuple(_PROBLEMS)


def problem_by_name(name: str) -> ProblemSpec:
    if name not in _PROBLEMS:
        raise ConfigurationError(f"unknown problem {name!r}; choose from {problem_names()}")
    return _PROBLEMS[name]


# --- error norms and symmetry diagnostics ------------------------------------


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float


def error_norms(field: Field, eos: EosParams, exact: Callable) -> Norms:
    """Domain-mean l1/l2 norms and the max norm of the density error.

    l1 = sum |e| dx dy / |Omega|, l2 = sqrt(sum e^2 dx dy / |Omega|),
    linf = max |e|, with e the cell-center density error at field.time.
    """
    if exact is None:
        raise ConfigurationError("error norms need an exact solution")
    grid = field.grid
    prim, _ = recovery.recover_with_iterations(field.interior, eos)
    xs = grid.centers_x()[:, None]
    ys = grid.centers_y()[None, :]
    err = prim[..., RHO] - np.asarray(exact(field.time, xs, ys), dtype=float)[..., RHO]
    cell = grid.dx * grid.dy
    area = (grid.x_max - grid.x_min) * (grid.y_max - grid.y_min)
    l1 = float(np.sum(np.abs(err)) * cell / area)
    l2 = float(np.sqrt(np.sum(err * err) * cell / area))
    return Norms(l1, l2, float(np.max(np.abs(err))))


def convergence_orders(errors) -> list:
    """log2 ratios of successive errors on meshes refined by factor two."""
    errors = [float(e) for e in errors]
    if any(e <= 0.0 for e in errors):
        raise ConfigurationError("convergence order undefined for non-positive errors")
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def check_cut_grid(grid: Grid) -> None:
    """Reject a grid whose diagonal cells (i, i) are off y = x.

    They lie on it only when n_x = n_y, dx = dy and x_min = y_min; any
    other grid is a ConfigurationError.
    """
    if (grid.n_x != grid.n_y or grid.x_min != grid.y_min
            or not math.isclose(grid.dx, grid.dy, rel_tol=1e-12)):
        raise ConfigurationError("density cuts need n_x = n_y, dx = dy and x_min = y_min")


def density_cuts(field: Field, eos: EosParams):
    """Density profiles along the y-axis and the diagonal y = x.

    Returns ((y, rho), (sqrt(2) x, rho)): the column of cells nearest x = 0
    (ties go to the positive side) and the diagonal cells (i, i), each with
    its signed distance from the origin along the ray.  The grid must pass
    `check_cut_grid`.
    """
    grid = field.grid
    check_cut_grid(grid)
    prim, _ = recovery.recover_with_iterations(field.interior, eos)
    rho = prim[..., RHO]
    xs = grid.centers_x()
    col = int(np.argmin(np.abs(xs - 1e-15)))  # ties go to the positive side
    return (grid.centers_y(), rho[col, :]), (math.sqrt(2.0) * xs, np.diagonal(rho))


def symmetry_deviation(field: Field, eos: EosParams) -> float:
    """Max gap between the density profiles along the +y axis and y = x.

    Both `density_cuts` profiles, restricted to positive distances, are
    linearly interpolated in radius onto the common samples
    r_k = (k + 1/2) dx up to the domain half-width.
    """
    cuts = density_cuts(field, eos)
    grid = field.grid
    samples = np.arange(0.5 * grid.dx, 0.5 * (grid.x_max - grid.x_min) + 0.5 * grid.dx, grid.dx)
    on_axis, on_diag = (np.interp(samples, r[r > 0.0], values[r > 0.0]) for r, values in cuts)
    return float(np.max(np.abs(on_axis - on_diag)))
