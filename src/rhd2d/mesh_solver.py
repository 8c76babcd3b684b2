"""Cartesian mesh, boundary conditions, CFL control, and the Euler update.

The mesh is uniform with a single ghost layer; the update stencil (edge
fluxes plus corner fans) reaches exactly one cell in each direction.  Flux
assembly composes, per x-face,

    Fhat = dt/(2 dy) * (S_U+ (below) * F2D(below) - S_D- (above) * F2D(above))
           + (1 - dt/(2 dy) * (S_U+ (below) - S_D- (above))) * F1D,

where the corner fluxes and speeds come from each corner's own four-state
fan (every fan feeds the composite) and F1D from the two face-adjacent
cells, its fan spanning the fans of the face's two corners; the y-face
flux is symmetric.  Dimension-split mode keeps F1D with the face's own fan.
With amplifier alpha = 2 and CFL number sigma <= 1/2 every updated cell
stays admissible, which the optional audit enforces: for fixed speeds and
dt a cell's update is a linear combination of the U, F and G of its 3x3
stencil, and a certificate from the speeds alone shows it to be a positive
combination of admissible states (it holds in both modes at sigma = 0.45
on random admissible meshes and fails at 0.75, tests/test_pcp_mesh.py).

Each step computes the per-cell quantities once: run() recovers the
primitives of the ghosted array (seeded by the previous level's pressure),
evaluates the extreme signal speeds of both axes in one pass
(`physics.extreme_speeds`), and takes both the time step and the fluxes
from them.  These, the update and its audit span the whole mesh.  Flux
assembly, whose every face depends only on the 3x3 cells around it,
runs in strips of cell rows, each from the ghosted slab of its rows and
their two neighbour rows (`STRIP_CELLS` bounds a slab), and writes each
strip's rows into the mesh's two composite flux arrays.  So every other
flux work array (the physical fluxes, the jumps, the edge fluxes, the
second differences and crosses, the corner terms) is one slab's
temporary, sized by a strip, not by the mesh.  Like the fields, these
arrays keep the (..., 4) shape and store each component as one
contiguous plane.

Fluxes are written into arrays before any cell is touched, so results do
not depend on traversal order or on the strip height.  The jumps of U and
of each axis's flux across every face of a strip's slab are taken once
and shared: the 1D face fluxes, each corner fan's edge flux and its
second differences all read them (coefficient form, see `riemann`).  The
composite is evaluated in difference form (F1D plus corner corrections),
which makes the multidimensional and dimension-split modes agree bitwise
on one-dimensional fields.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import physics
from .errors import AdmissibilityError, ConfigurationError, PcpAuditError
from .physics import EosParams, extreme_speeds, is_admissible, physical_flux
from .recovery import recover_with_iterations
from .riemann import (
    FanCoefficients,
    corner_fluxes,
    fan_speeds,
    hll_coefficients,
    hll_flux_from_jumps,
)

GHOST = 1  # ghost-layer width; the stencil is the 3x3 neighbourhood

MODES = ("multidimensional", "dimension_split")

# run() rejects a run that could need more steps to reach its t_end
MAX_STEPS = 10**9  # rp2 at 200x200 takes 356

# Flux assembly runs over strips of cell rows whose ghosted slabs hold at
# most this many cells (a strip is one row at least), so its work arrays
# are sized by a strip, not by the mesh: 38 rows at 200x200.
STRIP_CELLS = 8192


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
        try:
            counts = tuple(map(operator.index, (self.n_x, self.n_y)))
        except TypeError:
            counts = None
        if counts is None or any(isinstance(n, bool) for n in (self.n_x, self.n_y)):
            raise ConfigurationError(f"cell counts must be integers, got {self.n_x!r}, "
                                     f"{self.n_y!r}")
        if min(counts) < 1:
            raise ConfigurationError("cell counts must be positive")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ConfigurationError("domain bounds must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigurationError("domain bounds must satisfy max > min")
        # Finite bounds can still be too far apart, or too close, for a float.
        if not (0.0 < self.dx < math.inf and 0.0 < self.dy < math.inf):
            raise ConfigurationError(f"cell widths must be positive and finite, got "
                                     f"dx = {self.dx!r}, dy = {self.dy!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_y

    def centers_x(self, with_ghosts: bool = False) -> np.ndarray:
        i = np.arange(-GHOST, self.n_x + GHOST) if with_ghosts else np.arange(self.n_x)
        return self.x_min + (i + 0.5) * self.dx

    def centers_y(self) -> np.ndarray:
        return self.y_min + (np.arange(self.n_y) + 0.5) * self.dy


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
    other values are allowed for experiments.  pcp_audit checks each
    updated cell, and a caller's own dt passed to assemble_fluxes against
    0 and compute_dt's bound at sigma = 1; run()'s dt is compute_dt's at
    cfl_sigma <= 1, which never exceeds that bound.
    """

    cfl_sigma: float = 0.45
    alpha: float = 2.0
    mode: str = "multidimensional"
    pcp_audit: bool = True

    def __post_init__(self):
        if not (0.0 < self.cfl_sigma <= 1.0):
            raise ConfigurationError(f"CFL number must lie in (0, 1], got {self.cfl_sigma}")
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ConfigurationError(f"speed amplifier must be finite and >= 1, got {self.alpha}")
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

    @classmethod
    def from_primitives(
        cls,
        grid: Grid,
        initial: Callable,
        eos: EosParams,
        average: bool = False,
    ) -> "Field":
        """Initialise the interior cells from a primitive-valued function.

        `initial(xs, ys)` returns any state that broadcasts to (n_x, n_y, 4).
        Its conserved image is integrated over each cell with a product
        rule: the one-point rule at the cell centre with average=False (a
        weight of exactly 1, so the cell holds the sampled state), the 3x3
        Gauss rule with average=True (the right choice for smooth accuracy
        studies, and admissible by convexity of the admissible set).  The
        data must be admissible at every sample point.
        """

        def conserved_at(xs, ys):
            prim = np.broadcast_to(initial(xs, ys), (grid.n_x, grid.n_y, 4))
            return physics.prim_to_cons(physics.primitive(*np.moveaxis(prim, -1, 0)), eos)

        r = math.sqrt(0.6)
        nodes, weights = ((-r, 0.0, r), (5 / 18, 8 / 18, 5 / 18)) if average else ((0.0,), (1.0,))
        centers_x = grid.centers_x()[:, None]
        centers_y = grid.centers_y()[None, :]
        cons = reduce(np.add, ((wa * wb) * conserved_at(centers_x + 0.5 * a * grid.dx,
                                                        centers_y + 0.5 * b * grid.dy)
                               for a, wa in zip(nodes, weights) for b, wb in zip(nodes, weights)))
        ok = is_admissible(cons)
        if not np.all(ok):
            i, j = np.argwhere(~ok)[0]
            raise AdmissibilityError(
                f"initial data not admissible at cell ({i}, {j})", index=(int(i), int(j))
            )
        cells = physics.stack_planes(np.zeros((4, grid.n_x + 2 * GHOST, grid.n_y + 2 * GHOST)))
        cells[GHOST:-GHOST, GHOST:-GHOST] = cons
        return cls(grid, cells)


def fill_ghosts(field: Field, bcs: BoundarySpec, eos: EosParams) -> Field:
    """Populate the ghost layer in place and return the field.

    The x-sides are filled from interior rows first, then the y-sides sweep
    every column including the freshly filled ghost columns, which defines
    the corner ghosts.  Periodic, outflow and reflect sides are one copy
    that differs only in its source row: the opposite interior row for
    periodic, the adjacent one otherwise; reflection then negates the
    copied wall-normal momentum.  Inflow writes the conserved image of the
    fixed beam state on its interval and copies outward elsewhere.  An
    inflow interval that holds no ghost-cell centre is a ConfigurationError.
    """
    cells = field.cells
    sides = (
        (0, bcs.left, bcs.right, slice(GHOST, -GHOST), field.grid.centers_y()),
        (1, bcs.bottom, bcs.top, slice(None), field.grid.centers_x(with_ghosts=True)),
    )
    for axis, low, high, span, centers in sides:
        view = np.swapaxes(cells, 0, axis)  # ghost rows of this axis come first
        for rule, ghost, adjacent, wrap in ((low, 0, 1, -2), (high, -1, -2, 1)):
            if isinstance(rule, str):
                view[ghost, span] = view[wrap if rule == "periodic" else adjacent, span]
                if rule == "reflect":
                    view[ghost, span, physics.MOMX + axis] *= -1.0
            else:
                beam = physics.prim_to_cons(physics.primitive(*rule.state), eos)
                on = (centers >= rule.span[0]) & (centers <= rule.span[1])
                if not np.any(on):
                    raise ConfigurationError(f"inflow span {rule.span} holds no boundary cell "
                                             "centre; refine the grid")
                view[ghost, span] = np.where(on[:, None], beam, view[adjacent, span])
    return field


def compute_dt(
    field: Field,
    eos: EosParams,
    cfl_sigma: float,
    alpha: float,
    prim: np.ndarray,
) -> float:
    """CFL time step against the scheme's signal speeds.

    dt = sigma * min over cells of min(dx, dy over alpha * max(|lam1|, |lam4|))
    per axis.  The amplified speeds are the ones the Riemann fans actually
    use, so sigma <= 1/2 keeps every fan inside its half cell (the raw
    eigenvalues would need sigma <= 1/4 for that).  `prim` holds the
    recovered primitives of the full ghosted array, so the ghost layer
    joins the speed survey and boundary fans (an inflow jet, say) respect
    the bound too; recovery has already certified every cell admissible.
    Landing on requested output times is left to run().
    """
    return cfl_sigma * _step_bound(field.grid, alpha, extreme_speeds(prim, eos))


def _step_bound(grid: Grid, alpha: float, speeds) -> float:
    """compute_dt's step at sigma = 1 from `physics.extreme_speeds` of its cells."""
    limit = math.inf
    for (lam1, lam4), width in zip(speeds, (grid.dx, grid.dy)):
        # Rounding is monotone, so the cell minimum of width / (alpha * speed)
        # is that quotient at the fastest cell, bit for bit; as lam1 <= lam4,
        # the fastest |speed| is max(lam4) or -min(lam1).
        fastest = alpha * np.maximum(np.max(lam4), -np.min(lam1))
        limit = min(limit, float(width / fastest))
    return limit


def assemble_fluxes(
    field: Field,
    dt: float,
    eos: EosParams,
    config: SolverConfig,
    prim: np.ndarray,
):
    """Composite interface fluxes (x-faces, y-faces) for one Euler step.

    Ghosts must be filled, `prim` must hold the recovered primitives of the
    full ghosted array, and dt must come from compute_dt (the corner
    contributions are weighted by dt).  With config.pcp_audit on, a dt not
    in [0, compute_dt's bound at sigma = 1], NaN among them, raises
    PcpAuditError in either mode; within it every composite weight is >= 0.
    run(), whose dt is compute_dt's at sigma <= 1, skips this check,
    surveys the speeds once per step for its dt and its fluxes, and keeps
    its two composite flux arrays for the whole run; the fluxes returned
    here are this call's own.  Returns (fhat, ghat) with shapes
    (n_x+1, n_y, 4) and (n_x, n_y+1, 4).
    """
    speeds = extreme_speeds(prim, eos)
    if config.pcp_audit:
        bound = _step_bound(field.grid, config.alpha, speeds)
        if not 0.0 <= dt <= bound:
            raise PcpAuditError(
                f"dt = {dt:.6e} lies outside [0, {bound:.6e}], compute_dt's bound at "
                f"sigma = 1 (sigma = {config.cfl_sigma}, alpha = {config.alpha})",
                cfl_sigma=config.cfl_sigma, alpha=config.alpha)
    return _assemble_fluxes(_flux_arrays(field.grid), field, dt, config, prim, speeds)


def _flux_arrays(grid: Grid):
    """Uninitialised composite fluxes (fhat, ghat) of the mesh, planar."""
    return tuple(physics.stack_planes(np.empty((4, *shape)))
                 for shape in ((grid.n_x + 1, grid.n_y), (grid.n_x, grid.n_y + 1)))


def _assemble_fluxes(fluxes, field, dt, config, prim, speeds):
    """assemble_fluxes without its dt check, writing into `fluxes` (fhat, ghat).

    Strip [a, b) of cell rows is assembled from the ghosted rows a .. b+1
    of the cells, the primitives and the speeds, and writes the x-faces
    a .. b and the y-faces of rows a .. b-1.  Every face and corner is
    formed from the same cells by the same elementwise operations as on the
    whole mesh, so the fluxes do not depend on the strip height; the x-face
    row b that two strips share is computed by both with the same bits.
    """
    fhat, ghat = fluxes
    n_x = field.grid.n_x
    rows = max(1, STRIP_CELLS // (field.grid.n_y + 2 * GHOST) - 2 * GHOST)
    for a in range(0, n_x, rows):
        b = min(a + rows, n_x)
        slab = slice(a, b + 2 * GHOST)
        _assemble_strip(field.grid, dt, config, field.cells[slab], prim[slab],
                        [[s[slab] for s in axis] for axis in speeds], (fhat[a:b + 1], ghat[a:b]))
    return fhat, ghat


def _assemble_strip(grid, dt, config, cons, prim, speeds, out):
    """The composite fluxes of the ghosted slab `cons`, written into `out`.

    Both axes run through the same code on np.swapaxes views whose first
    index is the face-normal axis, as in fill_ghosts.  The jumps of U and
    of the axis's flux across every face of the slab are taken once per
    axis and shared by the face fluxes, the corner fans' edge fluxes and
    their second differences.  `out` holds the slab's interior x-faces and
    y-faces.
    """
    multidimensional = config.mode == "multidimensional"
    inner = (slice(None), slice(GHOST, -GHOST))  # faces of the interior rows
    low = (slice(None), slice(0, -1))  # each vertex's low transverse side
    corner_speeds, coefficients, edges, crosses, d2fs = [], [], [], [], []
    for axis in (0, 1):
        # Fan speeds and jumps across every face of this axis, ghost rows too.
        lam1, lam4 = (np.swapaxes(a, 0, axis) for a in speeds[axis])
        s_minus, s_plus = fan_speeds((lam1[:-1], lam1[1:]), (lam4[:-1], lam4[1:]), config.alpha)
        if multidimensional:
            # Corner fans: vertex (i+1/2, j+1/2) for i in 0..nx, j in 0..ny
            # sits between transverse rows j and j+1 of this axis's faces, so
            # its speeds reduce theirs and its low-side edge pair is face row
            # j.  Each interior face's fan spans its two corners' fans, so its
            # upwind weight |kr| bounds theirs, as the PCP certificate needs.
            corner = (np.minimum(s_minus[low], s_minus[:, 1:]),
                      np.maximum(s_plus[low], s_plus[:, 1:]))
            np.minimum(corner[0][low], corner[0][:, 1:], out=s_minus[inner])
            np.maximum(corner[1][low], corner[1][:, 1:], out=s_plus[inner])
        flux = physical_flux(prim, cons, axis)
        u, f = (np.swapaxes(a, 0, axis) for a in (cons, flux))
        du = u[1:] - u[:-1]
        df = f[1:] - f[:-1]
        # Only the interior rows' face fluxes are used, and they go straight
        # into `out`.
        hll_flux_from_jumps(
            f[:-1][inner], f[1:][inner], du[inner], df[inner],
            hll_coefficients(s_minus[inner], s_plus[inner]),
            out=np.swapaxes(out[axis], 0, axis),
        )
        del s_minus, s_plus
        if not multidimensional:
            continue

        coefficient = hll_coefficients(*corner)
        edge = hll_flux_from_jumps(f[:-1][low], f[1:][low], du[low], df[low], coefficient)
        if axis == 0:
            d2u = du[:, 1:] - du[low]
        d2fs.append(np.swapaxes(df[:, 1:] - df[low], 0, axis))
        crosses.append(np.swapaxes(f[:-1, 1:] - f[:-1, :-1], 0, axis))
        corner_speeds.append(tuple(np.swapaxes(s, 0, axis) for s in corner))
        coefficients.append(FanCoefficients(*(np.swapaxes(c, 0, axis) for c in coefficient)))
        edges.append(np.swapaxes(edge, 0, axis))
        # Free this axis's fluxes and jumps before the next axis forms its own.
        del flux, u, f, du, df

    if not multidimensional:
        return
    corner_flux = corner_fluxes(edges, crosses, d2u, d2fs, coefficients)

    # Composite: each face blends its 1D flux with the corner fluxes of the
    # two fan triangles that sweep across it during dt, one-signed fans
    # included.  In each axis's view the second index runs across the face,
    # so [:, :-1] is the corner on its low side and [:, 1:] the high side.
    # `out` holds the 1D fluxes until both terms are formed.
    for axis, across in ((0, grid.dy), (1, grid.dx)):
        f1, f2d = (np.swapaxes(a, 0, axis) for a in (out[axis], corner_flux[axis]))
        t_minus, t_plus = (np.swapaxes(s, 0, axis) for s in corner_speeds[1 - axis])
        plus_low = np.maximum(t_plus[:, :-1], 0.0)
        minus_high = np.minimum(t_minus[:, 1:], 0.0)
        weight_scale = dt / (2.0 * across)
        low_term = f2d[:, :-1] - f1
        low_term *= (weight_scale * plus_low)[..., None]
        high_term = f2d[:, 1:]  # the corner fluxes are spent after this term
        high_term -= f1
        high_term *= (weight_scale * minus_high)[..., None]
        f1 += low_term
        f1 -= high_term


def step(field: Field, dt: float, fluxes, config: SolverConfig) -> Field:
    """Forward-Euler update of the interior cells, in place.

    With pcp_audit on, every updated cell must remain admissible; a failure
    raises PcpAuditError with the cell index, the offending state, and
    (sigma, alpha) so the cause (sigma > 1/2, alpha != 2, or a bug) can be
    told apart.
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

    def observe(self, prim: np.ndarray):
        self.min_density = min(self.min_density, float(np.min(prim[..., physics.RHO])))
        self.max_density = max(self.max_density, float(np.max(prim[..., physics.RHO])))
        self.min_pressure = min(self.min_pressure, float(np.min(prim[..., physics.PRE])))
        self.max_pressure = max(self.max_pressure, float(np.max(prim[..., physics.PRE])))
        # gamma rises monotonically with |u|^2, so only the two extreme cells need it.
        vel_x, vel_y = prim[..., physics.VX], prim[..., physics.VY]
        speed_sq = vel_x * vel_x + vel_y * vel_y
        cells = np.unravel_index([np.argmin(speed_sq), np.argmax(speed_sq)], speed_sq.shape)
        gam_min, gam_max = physics.lorentz_factor(vel_x[cells], vel_y[cells])
        self.min_lorentz = min(self.min_lorentz, float(gam_min))
        self.max_lorentz = max(self.max_lorentz, float(gam_max))


@dataclass
class RunResult:
    field: Field
    diagnostics: RunDiagnostics


def run(
    problem,
    grid: Grid,
    config: SolverConfig,
    t_end: float,
    snapshot_times: Sequence[float] = (),
    on_snapshot: Optional[Callable] = None,
) -> RunResult:
    """Advance a problem to t_end: recover, step, audit, fill ghosts.

    The caller chooses t_end (the problem's own is `problem.t_end`).  The
    time step is reduced (never increased) to land exactly on every
    snapshot time and on t_end.  on_snapshot(field) fires at each snapshot
    time, each in [0, t_end] (0 fires on the initial field), and at t_end;
    the returned diagnostics track field extremes and recovery cost.  Every
    check of the input (times, step cap, initial data, inflow nozzle) comes
    before the first snapshot, so a rejected run never calls on_snapshot.
    """
    eos = problem.eos
    # A NaN or infinite time would finish at once with NaN output, or never.
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"t_end must be finite and non-negative, got {t_end}")
    if not all(0.0 <= t <= t_end for t in snapshot_times):
        raise ConfigurationError(f"snapshot times must be finite and in [0, t_end = {t_end}], "
                                 f"got {tuple(snapshot_times)}")
    # Every fan speed is below alpha, so no unclamped step is shorter than
    # this (a clamped one lands on its target), and a floor of 0 fails here.
    dt_floor = config.cfl_sigma * (min(grid.dx, grid.dy) / config.alpha)
    if t_end > MAX_STEPS * dt_floor:
        raise ConfigurationError(f"t_end = {t_end!r} may take over {MAX_STEPS:.0e} steps "
                                 f"as short as {dt_floor!r} to reach "
                                 f"(sigma = {config.cfl_sigma!r}, alpha = {config.alpha!r})")

    field = Field.from_primitives(grid, problem.initial, eos, average=problem.average_init)
    fill_ghosts(field, problem.boundaries, eos)  # and again after each step
    diag = RunDiagnostics()
    # + 0.0 turns -0.0 into 0.0, so no snapshot time or header reads -0
    targets = sorted({float(t) + 0.0 for t in (*snapshot_times, t_end)})
    pressure_hint = None
    fluxes = _flux_arrays(grid)

    # With t_end = 0 the only target is 0: no step runs, the snapshot fires
    # once, and the diagnostics observe the initial interior below.
    for target in targets:
        while field.time < target:
            prim, sweeps = recover_with_iterations(field.cells, eos, pressure_hint=pressure_hint)
            pressure_hint = prim[..., physics.PRE]  # frees the previous level's primitives
            diag.recovery_sweeps_max = max(diag.recovery_sweeps_max, sweeps)
            diag.recovery_sweeps_total += sweeps
            diag.observe(prim[GHOST:-GHOST, GHOST:-GHOST])

            speeds = extreme_speeds(prim, eos)
            dt = config.cfl_sigma * _step_bound(grid, config.alpha, speeds)
            remaining = target - field.time
            if dt >= remaining:
                dt = remaining
                diag.dt_clamped_steps += 1
            _assemble_fluxes(fluxes, field, dt, config, prim, speeds)
            del speeds
            step(field, dt, fluxes, config)
            fill_ghosts(field, problem.boundaries, eos)
            diag.steps += 1
        field.time = target
        if on_snapshot is not None:
            on_snapshot(field)

    final_prim, _ = recover_with_iterations(field.interior, eos)
    diag.observe(final_prim)
    return RunResult(field, diag)
