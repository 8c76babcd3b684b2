"""Benchmark problems: initial data, exact solutions, norms, diagnostics.

Each problem is a ProblemSpec bundling the domain, adiabatic index,
boundary rules, a final time, the initial primitive field, and (for the
smooth accuracy tests) the exact primitive solution.  Discontinuous data
are sampled at cell centers with strict region membership; boundary points
take the outer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import recovery
from .errors import ConfigurationError
from .mesh_solver import BoundarySpec, Field, Grid, Inflow, periodic_boundaries
from .physics import EosParams, PRE, RHO, VX, VY


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    eos: EosParams
    boundaries: BoundarySpec
    t_end: float
    initial: Callable  # (x, y) -> primitive array
    exact: Optional[Callable] = None  # (t, x, y) -> primitive array
    # Smooth accuracy problems initialise with cell averages of the conserved
    # image; discontinuous data are sampled at cell centers.
    average_init: bool = False

    def default_grid(self, n: int) -> Grid:
        """N cells across x, scaled in y to keep cells square."""
        aspect = (self.y_max - self.y_min) / (self.x_max - self.x_min)
        return Grid(n, int(round(n * aspect)), self.x_min, self.x_max, self.y_min, self.y_max)


# --- sine wave ---------------------------------------------------------------

SINE_DELTA = 0.99999
_SINE_SPEED = 0.99 / math.sqrt(2.0)


def sine_wave(t, x, y):
    """Diagonally advected density wave; the velocity and pressure are uniform."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rho = 1.0 + SINE_DELTA * np.sin(2.0 * np.pi * (x + y - 0.99 * math.sqrt(2.0) * t))
    out = np.empty(rho.shape + (4,))
    out[..., RHO] = rho
    out[..., VX] = _SINE_SPEED
    out[..., VY] = _SINE_SPEED
    out[..., PRE] = 0.01
    return out


def sine_wave_problem() -> ProblemSpec:
    return ProblemSpec(
        name="sine",
        x_min=0.0,
        x_max=1.0,
        y_min=0.0,
        y_max=1.0,
        eos=EosParams(5.0 / 3.0),
        boundaries=periodic_boundaries(),
        t_end=0.1,
        initial=lambda x, y: sine_wave(0.0, x, y),
        exact=sine_wave,
        average_init=True,
    )


# --- isentropic vortex -------------------------------------------------------

VORTEX_GAMMA = 1.4
VORTEX_EPSILON = 10.0828
VORTEX_DRIFT = 0.5 * math.sqrt(2.0)
# Vortex strength constant; the adopted pi placement puts the center density
# near 1e-14 instead of below zero.
VORTEX_ALPHA = (VORTEX_GAMMA - 1.0) * VORTEX_EPSILON**2 / (8.0 * VORTEX_GAMMA * math.pi**2)


def vortex(t, x, y):
    """Isentropic vortex drifting at speed w along (-1, -1); p = rho^Gamma."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
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
        raise ValueError("vortex density base is non-positive; strength constant too large")
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
    out = np.empty(rho.shape + (4,))
    out[..., RHO] = rho
    out[..., VX] = (u0 / gam_w + common) / denom
    out[..., VY] = (v0 / gam_w + common) / denom
    out[..., PRE] = rho**g
    return out


def vortex_problem() -> ProblemSpec:
    return ProblemSpec(
        name="vortex",
        x_min=-5.0,
        x_max=5.0,
        y_min=-5.0,
        y_max=5.0,
        eos=EosParams(VORTEX_GAMMA),
        boundaries=periodic_boundaries(),
        t_end=1.0,
        initial=lambda x, y: vortex(0.0, x, y),
        exact=vortex,
        average_init=True,
    )


# --- cylindrical explosion ---------------------------------------------------


def explosion_init(x, y):
    """Rest gas with a high-pressure disc of radius 0.1 (strict interior)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    r = np.sqrt(x * x + y * y)
    out = np.zeros(r.shape + (4,))
    out[..., RHO] = 1.0
    out[..., PRE] = np.where(r < 0.1, 20.0, 0.1)
    return out


def explosion_problem() -> ProblemSpec:
    return ProblemSpec(
        name="explosion",
        x_min=-0.5,
        x_max=0.5,
        y_min=-0.5,
        y_max=0.5,
        eos=EosParams(5.0 / 3.0),
        boundaries=BoundarySpec(),
        t_end=0.1,
        initial=explosion_init,
    )


# --- quadrant Riemann problems -----------------------------------------------

RP2_RHO = 0.00414329639576
RP2_VEL = 0.9946418833556542
# Reference speed of the upper/right shocks of the second problem, for
# diagnostics only.
RP2_SHOCK_SPEED = -0.66525606186639

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
    q1, q2, q3, q4 = (np.asarray(s, dtype=float) for s in _RP_STATES[variant])
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    east = (x > 0.0)[..., None]
    north = (y > 0.0)[..., None]
    return np.where(north, np.where(east, q1, q2), np.where(east, q4, q3))


def riemann_problem(variant: str) -> ProblemSpec:
    return ProblemSpec(
        name=variant,
        x_min=-1.0,
        x_max=1.0,
        y_min=-1.0,
        y_max=1.0,
        eos=EosParams(5.0 / 3.0),
        boundaries=BoundarySpec(),
        t_end=0.8,
        initial=lambda x, y: riemann_quadrant_init(variant, x, y),
    )


# --- relativistic jets -------------------------------------------------------


@dataclass(frozen=True)
class JetConfig:
    """Pressure-matched jet inflow derived from (v_beam, classical Mach)."""

    model: str
    v_beam: float
    mach_beam: float
    beam_density: float
    beam_pressure: float
    sound_speed: float
    lorentz_beam: float
    lorentz_sound: float
    mach_relativistic: float


def jet_setup(model: str, v_beam: float, mach_beam: float):
    """Build (JetConfig, ProblemSpec) for a hot or cold jet.

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
    gamma_beam = 1.0 / math.sqrt(1.0 - v_beam * v_beam)
    gamma_sound = 1.0 / math.sqrt(1.0 - cs * cs)
    config = JetConfig(
        model=model,
        v_beam=v_beam,
        mach_beam=mach_beam,
        beam_density=rho_b,
        beam_pressure=p_b,
        sound_speed=cs,
        lorentz_beam=gamma_beam,
        lorentz_sound=gamma_sound,
        mach_relativistic=mach_beam * gamma_beam / gamma_sound,
    )

    y_max = 30.0 if model == "hot" else 25.0
    ambient = np.array([1.0, 0.0, 0.0, p_b])

    def initial(x, y, _ambient=ambient):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.broadcast_to(_ambient, x.shape + (4,)).copy()

    spec = ProblemSpec(
        name=f"jet-{model}",
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
    return config, spec


JET_CONFIGS = {
    "jet-hot-i": ("hot", 0.99, 1.72),
    "jet-hot-ii": ("hot", 0.999, 1.72),
    "jet-hot-iii": ("hot", 0.9999, 1.72),
    "jet-cold-i": ("cold", 0.99, 50.0),
    "jet-cold-ii": ("cold", 0.999, 50.0),
    "jet-cold-iii": ("cold", 0.9999, 500.0),
}


# --- registry ----------------------------------------------------------------


def problem_names():
    return ("sine", "vortex", "explosion", "rp1", "rp2", *JET_CONFIGS)


def problem_by_name(name: str) -> ProblemSpec:
    if name == "sine":
        return sine_wave_problem()
    if name == "vortex":
        return vortex_problem()
    if name == "explosion":
        return explosion_problem()
    if name in ("rp1", "rp2"):
        return riemann_problem(name)
    if name in JET_CONFIGS:
        return jet_setup(*JET_CONFIGS[name])[1]
    raise ConfigurationError(f"unknown problem {name!r}; choose from {problem_names()}")


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
        raise ValueError("convergence order undefined for non-positive errors")
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def symmetry_deviation(field: Field, eos: EosParams) -> float:
    """Max gap between the density profiles along the +y axis and y = x.

    Both profiles (taken from the cell columns nearest each ray, on the
    positive side) are linearly interpolated in radius onto the common
    samples r_k = (k + 1/2) min(dx, dy) up to the domain half-width.
    Requires a square grid.
    """
    grid = field.grid
    if grid.n_x != grid.n_y or not math.isclose(grid.dx, grid.dy, rel_tol=1e-12):
        raise ConfigurationError("symmetry deviation needs a square grid")
    prim, _ = recovery.recover_with_iterations(field.interior, eos)
    rho = prim[..., RHO]
    xs = grid.centers_x()
    ys = grid.centers_y()

    col = int(np.argmin(np.where(xs > 0.0, xs, np.inf)))  # first center right of x = 0
    upper = ys > 0.0
    axis_r = ys[upper]
    axis_rho = rho[col, upper]

    diag_mask = xs > 0.0
    diag_r = math.sqrt(2.0) * xs[diag_mask]
    diag_rho = np.diagonal(rho)[diag_mask]

    half_width = 0.5 * (grid.x_max - grid.x_min)
    step = min(grid.dx, grid.dy)
    samples = np.arange(0.5 * step, half_width + 0.5 * step, step)
    on_axis = np.interp(samples, axis_r, axis_rho)
    on_diag = np.interp(samples, diag_r, diag_rho)
    return float(np.max(np.abs(on_axis - on_diag)))
