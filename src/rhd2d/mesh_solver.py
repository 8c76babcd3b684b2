"""Cartesian mesh, boundary conditions, CFL control, and the Euler update.

The mesh is uniform with a single ghost layer; the update stencil (edge
fluxes plus corner fans) reaches exactly one cell in each direction.  Flux
assembly composes, per x-face,

    Fhat = dt/(2 dy) * (S_U+ (below) * F2D(below) - S_D- (above) * F2D(above))
           + (1 - dt/(2 dy) * (S_U+ (below) - S_D- (above))) * F1D,

where the corner fluxes and speeds come from each corner's own four-state
fan and F1D from the two face-adjacent cells; the y-face flux is symmetric.
With amplifier alpha = 2 and CFL number sigma <= 1/2 every updated cell
stays admissible, which the optional audit enforces.

Fluxes are written into arrays before any cell is touched, so results do
not depend on traversal order.  The composite is evaluated in difference
form (F1D plus corner corrections), which makes the multidimensional and
dimension-split modes agree bitwise on one-dimensional fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import physics
from .errors import (
    AdmissibilityError,
    CflViolationError,
    ConfigurationError,
    PcpAuditError,
)
from .physics import EosParams, eigenvalues, is_admissible, physical_flux
from .recovery import DEFAULT_OPTIONS, RecoveryOptions, recover_with_iterations
from .riemann import _hll_flux_formula

GHOST = 1  # ghost-layer width; the stencil is the 3x3 neighbourhood

MODES = ("multidimensional", "dimension_split")


@dataclass(frozen=True)
class Grid:
    """Uniform N x M cell layout over a rectangular domain."""

    n_x: int
    n_y: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigurationError("cell counts must be positive")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigurationError("domain bounds must satisfy max > min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_y

    def centers_x(self, with_ghosts: bool = False) -> np.ndarray:
        i = np.arange(-GHOST, self.n_x + GHOST) if with_ghosts else np.arange(self.n_x)
        return self.x_min + (i + 0.5) * self.dx

    def centers_y(self, with_ghosts: bool = False) -> np.ndarray:
        j = np.arange(-GHOST, self.n_y + GHOST) if with_ghosts else np.arange(self.n_y)
        return self.y_min + (j + 0.5) * self.dy


@dataclass(frozen=True)
class Inflow:
    """Fixed primitive state injected on an interval of one boundary side."""

    state: tuple
    span: tuple

    def __post_init__(self):
        if len(self.state) != 4:
            raise ConfigurationError("inflow state must be (rho, u, v, p)")
        if len(self.span) != 2 or not self.span[0] < self.span[1]:
            raise ConfigurationError("inflow span must be an increasing interval")


BoundaryRule = Union[str, Inflow]
_SIDE_RULES = ("periodic", "outflow", "reflect")


@dataclass(frozen=True)
class BoundarySpec:
    """Per-side rule: periodic, outflow, reflect, or a fixed-inflow interval."""

    left: BoundaryRule = "outflow"
    right: BoundaryRule = "outflow"
    bottom: BoundaryRule = "outflow"
    top: BoundaryRule = "outflow"

    def __post_init__(self):
        for name in ("left", "right", "bottom", "top"):
            rule = getattr(self, name)
            if isinstance(rule, str) and rule not in _SIDE_RULES:
                raise ConfigurationError(f"unknown boundary rule {rule!r} on side {name}")
        if (self.left == "periodic") != (self.right == "periodic"):
            raise ConfigurationError("periodic boundaries must pair left with right")
        if (self.bottom == "periodic") != (self.top == "periodic"):
            raise ConfigurationError("periodic boundaries must pair bottom with top")


def periodic_boundaries() -> BoundarySpec:
    return BoundarySpec("periodic", "periodic", "periodic", "periodic")


@dataclass(frozen=True)
class SolverConfig:
    """Scheme parameters.

    The admissibility guarantee requires cfl_sigma <= 0.5 and alpha = 2;
    other values are allowed for experiments and the audit reports when
    they break.
    """

    cfl_sigma: float = 0.45
    alpha: float = 2.0
    mode: str = "multidimensional"
    pcp_audit: bool = True

    def __post_init__(self):
        if not (0.0 < self.cfl_sigma <= 1.0):
            raise ConfigurationError(f"CFL number must lie in (0, 1], got {self.cfl_sigma}")
        if not self.alpha >= 1.0:
            raise ConfigurationError(f"speed amplifier must be >= 1, got {self.alpha}")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class Field:
    """Cell-averaged conserved states on a ghosted mesh at one time level."""

    grid: Grid
    cells: np.ndarray  # (n_x + 2, n_y + 2, 4), ghost width 1
    time: float = 0.0

    @property
    def interior(self) -> np.ndarray:
        return self.cells[GHOST:-GHOST, GHOST:-GHOST]

    def copy(self) -> "Field":
        return Field(self.grid, self.cells.copy(), self.time)

    @classmethod
    def from_primitives(
        cls,
        grid: Grid,
        initial: Callable,
        eos: EosParams,
        time: float = 0.0,
        average: bool = False,
    ) -> "Field":
        """Initialise the interior cells from a primitive-valued function.

        With average=False the function is sampled at cell centers; with
        average=True the conserved image is integrated over each cell with a
        3x3 Gauss rule (the right choice for smooth accuracy studies, and
        admissible by convexity of the admissible set).  The data must be
        admissible at every sample point.
        """

        def conserved_at(xs, ys):
            prim = np.asarray(initial(xs, ys), dtype=float)
            if prim.shape != (grid.n_x, grid.n_y, 4):
                prim = np.broadcast_to(prim, (grid.n_x, grid.n_y, 4)).copy()
            prim = physics.primitive(prim[..., 0], prim[..., 1], prim[..., 2], prim[..., 3])
            return physics.prim_to_cons(prim, eos)

        centers_x = grid.centers_x()[:, None]
        centers_y = grid.centers_y()[None, :]
        if average:
            nodes = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
            weights = np.array([5.0, 8.0, 5.0]) / 18.0
            cons = np.zeros((grid.n_x, grid.n_y, 4))
            for a, wa in zip(nodes, weights):
                for b, wb in zip(nodes, weights):
                    cons += (wa * wb) * conserved_at(
                        centers_x + 0.5 * a * grid.dx, centers_y + 0.5 * b * grid.dy
                    )
        else:
            cons = conserved_at(centers_x, centers_y)
        ok = is_admissible(cons)
        if not np.all(ok):
            i, j = np.argwhere(~ok)[0]
            raise AdmissibilityError(
                f"initial data not admissible at cell ({i}, {j})", index=(int(i), int(j))
            )
        cells = np.zeros((grid.n_x + 2 * GHOST, grid.n_y + 2 * GHOST, 4))
        cells[GHOST:-GHOST, GHOST:-GHOST] = cons
        return cls(grid, cells, time)


def _reflect(cons: np.ndarray, axis: int) -> np.ndarray:
    out = cons.copy()
    out[..., physics.MOMX + axis] = -out[..., physics.MOMX + axis]
    return out


def fill_ghosts(field: Field, bcs: BoundarySpec, eos: EosParams) -> Field:
    """Populate the ghost layer in place and return the field.

    The x-sides are filled from interior rows first, then the y-sides sweep
    every column including the freshly filled ghost columns, which defines
    the corner ghosts.  Reflection mirrors the adjacent interior cell and
    negates the wall-normal momentum; inflow writes the conserved image of
    the fixed beam state on its interval and copies outward elsewhere.
    """
    cells = field.cells
    inner = slice(GHOST, -GHOST)

    for side, rule in (("left", bcs.left), ("right", bcs.right)):
        at_min = side == "left"
        ghost = 0 if at_min else -1
        adjacent = 1 if at_min else -2
        wrap = -2 if at_min else 1
        if rule == "periodic":
            cells[ghost, inner] = cells[wrap, inner]
        elif rule == "outflow":
            cells[ghost, inner] = cells[adjacent, inner]
        elif rule == "reflect":
            cells[ghost, inner] = _reflect(cells[adjacent, inner], axis=0)
        else:
            beam = physics.prim_to_cons(physics.primitive(*rule.state), eos)
            ys = field.grid.centers_y()
            on = (ys >= rule.span[0]) & (ys <= rule.span[1])
            cells[ghost, inner] = np.where(on[:, None], beam, cells[adjacent, inner])

    for side, rule in (("bottom", bcs.bottom), ("top", bcs.top)):
        at_min = side == "bottom"
        ghost = 0 if at_min else -1
        adjacent = 1 if at_min else -2
        wrap = -2 if at_min else 1
        if rule == "periodic":
            cells[:, ghost] = cells[:, wrap]
        elif rule == "outflow":
            cells[:, ghost] = cells[:, adjacent]
        elif rule == "reflect":
            cells[:, ghost] = _reflect(cells[:, adjacent], axis=1)
        else:
            beam = physics.prim_to_cons(physics.primitive(*rule.state), eos)
            xs = field.grid.centers_x(with_ghosts=True)
            on = (xs >= rule.span[0]) & (xs <= rule.span[1])
            cells[:, ghost] = np.where(on[:, None], beam, cells[:, adjacent])
    return field


def compute_dt(
    field: Field,
    eos: EosParams,
    cfl_sigma: float,
    alpha: float = 2.0,
    prim: Optional[np.ndarray] = None,
) -> float:
    """CFL time step against the scheme's signal speeds.

    dt = sigma * min over cells of min(dx, dy over alpha * max(|lam1|, |lam4|))
    per axis.  The amplified speeds are the ones the Riemann fans actually
    use, so sigma <= 1/2 keeps every fan inside its half cell (the raw
    eigenvalues would need sigma <= 1/4 for that).  When `prim` carries the
    recovered primitives of the full ghosted array, the ghost layer joins
    the speed survey; boundary fans (an inflow jet, say) respect the bound
    too.  Landing on requested output times is the run driver's job, never
    done here.  Raises AdmissibilityError naming the first offending cell.
    """
    interior = field.interior
    ok = is_admissible(interior)
    if not np.all(ok):
        i, j = np.argwhere(~ok)[0]
        mass, margin = physics.admissibility_margin(interior[i, j])
        raise AdmissibilityError(
            f"non-admissible cell ({i}, {j}) before time-step estimate",
            mass=float(mass),
            margin=float(margin),
            index=(int(i), int(j)),
        )
    if prim is None:
        prim, _ = recover_with_iterations(interior, eos)
    lam_x = eigenvalues(prim, eos, 0)
    lam_y = eigenvalues(prim, eos, 1)
    fastest_x = alpha * np.maximum(np.abs(lam_x.lam1), np.abs(lam_x.lam4))
    fastest_y = alpha * np.maximum(np.abs(lam_y.lam1), np.abs(lam_y.lam4))
    limit = min(
        float(np.min(field.grid.dx / fastest_x)),
        float(np.min(field.grid.dy / fastest_y)),
    )
    return cfl_sigma * limit


def _corner_speeds(lam1, lam4, alpha):
    """alpha-amplified extremes over the four cells around every corner."""
    quads1 = [lam1[:-1, :-1], lam1[1:, :-1], lam1[:-1, 1:], lam1[1:, 1:]]
    quads4 = [lam4[:-1, :-1], lam4[1:, :-1], lam4[:-1, 1:], lam4[1:, 1:]]
    return alpha * np.minimum.reduce(quads1), alpha * np.maximum.reduce(quads4)


def assemble_fluxes(
    field: Field,
    dt: float,
    eos: EosParams,
    config: SolverConfig,
    prim: Optional[np.ndarray] = None,
):
    """Composite interface fluxes (x-faces, y-faces) for one Euler step.

    Ghosts must be filled and dt must come from compute_dt (the corner
    contributions are weighted by dt).  `prim` may carry the recovered
    primitives of the full ghosted array to avoid recomputing them.
    Returns (fhat, ghat) with shapes (n_x+1, n_y, 4) and (n_x, n_y+1, 4).
    """
    grid = field.grid
    nx, ny = grid.n_x, grid.n_y
    cons = field.cells
    if prim is None:
        prim, _ = recover_with_iterations(cons, eos)
    flux_x = physical_flux(prim, cons, 0)
    flux_y = physical_flux(prim, cons, 1)
    lam_x = eigenvalues(prim, eos, 0)
    lam_y = eigenvalues(prim, eos, 1)
    alpha = config.alpha

    # 1D fluxes at face centers from the two adjacent cells.
    lft = (slice(0, nx + 1), slice(1, ny + 1))
    rgt = (slice(1, nx + 2), slice(1, ny + 1))
    sx_minus = alpha * np.minimum(lam_x.lam1[lft], lam_x.lam1[rgt])
    sx_plus = alpha * np.maximum(lam_x.lam4[lft], lam_x.lam4[rgt])
    f1 = _hll_flux_formula(cons[lft], flux_x[lft], cons[rgt], flux_x[rgt], sx_minus, sx_plus)

    bot = (slice(1, nx + 1), slice(0, ny + 1))
    top = (slice(1, nx + 1), slice(1, ny + 2))
    sy_minus = alpha * np.minimum(lam_y.lam1[bot], lam_y.lam1[top])
    sy_plus = alpha * np.maximum(lam_y.lam4[bot], lam_y.lam4[top])
    g1 = _hll_flux_formula(cons[bot], flux_y[bot], cons[top], flux_y[top], sy_minus, sy_plus)

    if config.mode == "dimension_split":
        return f1, g1

    # Corner fans: vertex (i+1/2, j+1/2) for i in 0..nx, j in 0..ny uses the
    # piecewise-constant cell averages of its four surrounding cells.
    ld = (slice(0, nx + 1), slice(0, ny + 1))
    rd = (slice(1, nx + 2), slice(0, ny + 1))
    lu = (slice(0, nx + 1), slice(1, ny + 2))
    ru = (slice(1, nx + 2), slice(1, ny + 2))
    s_l, s_r = _corner_speeds(lam_x.lam1, lam_x.lam4, alpha)
    s_d, s_u = _corner_speeds(lam_y.lam1, lam_y.lam4, alpha)
    slm = np.minimum(s_l, 0.0)[..., None]
    srp = np.maximum(s_r, 0.0)[..., None]
    sdm = np.minimum(s_d, 0.0)[..., None]
    sup = np.maximum(s_u, 0.0)[..., None]

    f_up = _hll_flux_formula(cons[lu], flux_x[lu], cons[ru], flux_x[ru], s_l, s_r)
    f_down = _hll_flux_formula(cons[ld], flux_x[ld], cons[rd], flux_x[rd], s_l, s_r)
    g_right = _hll_flux_formula(cons[rd], flux_y[rd], cons[ru], flux_y[ru], s_d, s_u)
    g_left = _hll_flux_formula(cons[ld], flux_y[ld], cons[lu], flux_y[lu], s_d, s_u)
    diff_g = (flux_y[ru] - flux_y[rd]) - (flux_y[lu] - flux_y[ld])
    diff_f = (flux_x[ru] - flux_x[rd]) - (flux_x[lu] - flux_x[ld])

    # A corner fan feeds the composite only when it is genuinely two-sided in
    # both axes; one-signed fans fall back to the 1D solver (their corner
    # correction is zero below), which keeps every constituent of the update
    # an admissible 1D or corner fan state.
    two_sided = (s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0)
    den_x = srp - slm
    den_y = sup - sdm
    safe_x = np.where(den_x == 0.0, 1.0, den_x)
    safe_y = np.where(den_y == 0.0, 1.0, den_y)
    f2d = f_down + (sup * (f_up - f_down) - (2.0 * slm * srp / safe_x) * diff_g) / safe_y
    g2d = g_left + (srp * (g_right - g_left) - (2.0 * sdm * sup / safe_y) * diff_f) / safe_x

    # Composite: each face blends its 1D flux with the corner fluxes of the
    # two fan triangles that sweep across it during dt.
    cx = dt / (2.0 * grid.dy)
    sup_below = sup[:, :-1]
    sdm_above = sdm[:, 1:]
    if config.pcp_audit:
        weight = 1.0 - cx * (sup_below - sdm_above)
        if np.any(weight < 0.0):
            raise CflViolationError(
                "negative 1D-flux weight in x-face composite; "
                f"dt = {dt:.6e} violates the corner CFL bound"
            )
    fhat = f1 + cx * (
        sup_below * np.where(two_sided[:, :-1, None], f2d[:, :-1] - f1, 0.0)
        - sdm_above * np.where(two_sided[:, 1:, None], f2d[:, 1:] - f1, 0.0)
    )

    cy = dt / (2.0 * grid.dx)
    srp_left = srp[:-1, :]
    slm_right = slm[1:, :]
    if config.pcp_audit:
        weight = 1.0 - cy * (srp_left - slm_right)
        if np.any(weight < 0.0):
            raise CflViolationError(
                "negative 1D-flux weight in y-face composite; "
                f"dt = {dt:.6e} violates the corner CFL bound"
            )
    ghat = g1 + cy * (
        srp_left * np.where(two_sided[:-1, :, None], g2d[:-1, :] - g1, 0.0)
        - slm_right * np.where(two_sided[1:, :, None], g2d[1:, :] - g1, 0.0)
    )
    return fhat, ghat


def step(field: Field, dt: float, fluxes, config: SolverConfig) -> Field:
    """Forward-Euler update of the interior cells, in place.

    With pcp_audit on, every updated cell must remain admissible; a failure
    carries the cell index, the offending state, and (sigma, alpha) so the
    cause (sigma > 1/2, alpha != 2, or a bug) can be told apart.
    """
    fhat, ghat = fluxes
    grid = field.grid
    interior = field.interior
    interior -= (dt / grid.dx) * (fhat[1:, :] - fhat[:-1, :])
    interior -= (dt / grid.dy) * (ghat[:, 1:] - ghat[:, :-1])
    field.time += dt
    if config.pcp_audit:
        ok = is_admissible(interior)
        if not np.all(ok):
            i, j = np.argwhere(~ok)[0]
            raise PcpAuditError(
                f"updated cell ({i}, {j}) left the admissible set "
                f"(sigma = {config.cfl_sigma}, alpha = {config.alpha})",
                index=(int(i), int(j)),
                state=interior[i, j].copy(),
                cfl_sigma=config.cfl_sigma,
                alpha=config.alpha,
            )
    return field


@dataclass
class RunDiagnostics:
    """Extremes and bookkeeping accumulated over a run."""

    steps: int = 0
    min_density: float = math.inf
    max_density: float = 0.0
    min_pressure: float = math.inf
    max_pressure: float = 0.0
    min_lorentz: float = math.inf
    max_lorentz: float = 1.0
    recovery_sweeps_max: int = 0
    recovery_sweeps_total: int = 0
    dt_clamped_steps: int = 0
    pcp_audit: bool = True
    pcp_audit_passed: bool = True

    def observe(self, prim: np.ndarray):
        self.min_density = min(self.min_density, float(np.min(prim[..., physics.RHO])))
        self.max_density = max(self.max_density, float(np.max(prim[..., physics.RHO])))
        self.min_pressure = min(self.min_pressure, float(np.min(prim[..., physics.PRE])))
        self.max_pressure = max(self.max_pressure, float(np.max(prim[..., physics.PRE])))
        gam = physics.lorentz_factor(prim[..., physics.VX], prim[..., physics.VY])
        self.min_lorentz = min(self.min_lorentz, float(np.min(gam)))
        self.max_lorentz = max(self.max_lorentz, float(np.max(gam)))

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "min_density": self.min_density,
            "max_density": self.max_density,
            "min_pressure": self.min_pressure,
            "max_pressure": self.max_pressure,
            "min_lorentz": self.min_lorentz,
            "max_lorentz": self.max_lorentz,
            "recovery_sweeps_max": self.recovery_sweeps_max,
            "recovery_sweeps_total": self.recovery_sweeps_total,
            "dt_clamped_steps": self.dt_clamped_steps,
            "pcp_audit": self.pcp_audit,
            "pcp_audit_passed": self.pcp_audit_passed,
        }


@dataclass
class RunResult:
    field: Field
    diagnostics: RunDiagnostics
    snapshots: list = dataclass_field(default_factory=list)


def run(
    problem,
    grid: Grid,
    config: SolverConfig = SolverConfig(),
    t_end: Optional[float] = None,
    snapshot_times: Sequence[float] = (),
    on_snapshot: Optional[Callable] = None,
    boundaries: Optional[BoundarySpec] = None,
    recovery_options: RecoveryOptions = DEFAULT_OPTIONS,
) -> RunResult:
    """Advance a problem to t_end: fill ghosts, recover, step, audit.

    The time step is reduced (never increased) to land exactly on every
    snapshot time and on t_end.  on_snapshot(field) fires at each snapshot
    time; the returned diagnostics track field extremes and recovery cost.
    """
    eos = problem.eos
    bcs = boundaries if boundaries is not None else problem.boundaries
    if t_end is None:
        t_end = problem.t_end
    # A NaN or infinite time would finish at once with NaN output, or never.
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"t_end must be finite and non-negative, got {t_end}")
    if not all(math.isfinite(t) for t in snapshot_times):
        raise ConfigurationError(f"snapshot times must be finite, got {tuple(snapshot_times)}")

    field = Field.from_primitives(
        grid, problem.initial, eos, average=getattr(problem, "average_init", False)
    )
    diag = RunDiagnostics(pcp_audit=config.pcp_audit)
    targets = sorted({float(t) for t in snapshot_times if 0.0 < t <= t_end} | {t_end})
    pressure_hint = None

    result = RunResult(field, diag)
    if t_end == 0.0:
        if on_snapshot is not None:
            on_snapshot(field)
        return result

    for target in targets:
        while field.time < target:
            fill_ghosts(field, bcs, eos)
            prim, sweeps = recover_with_iterations(
                field.cells, eos, recovery_options, pressure_hint
            )
            diag.recovery_sweeps_max = max(diag.recovery_sweeps_max, sweeps)
            diag.recovery_sweeps_total += sweeps
            diag.observe(prim[GHOST:-GHOST, GHOST:-GHOST])

            dt = compute_dt(field, eos, config.cfl_sigma, config.alpha, prim)
            remaining = target - field.time
            if dt >= remaining:
                dt = remaining
                diag.dt_clamped_steps += 1
            fluxes = assemble_fluxes(field, dt, eos, config, prim)
            step(field, dt, fluxes, config)
            diag.steps += 1
            pressure_hint = prim[..., physics.PRE]
        field.time = target
        if on_snapshot is not None:
            on_snapshot(field)
        if target != t_end:
            result.snapshots.append(target)

    final_prim, _ = recover_with_iterations(field.interior, eos, recovery_options)
    diag.observe(final_prim)
    return result
