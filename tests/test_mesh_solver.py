import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import assert_close
from rhd2d import cli, mesh_solver, physics, problems
from rhd2d.errors import AdmissibilityError, ConfigurationError, PcpAuditError
from rhd2d.mesh_solver import (
    GHOST,
    MODES,
    BoundarySpec,
    Field,
    Grid,
    Inflow,
    SolverConfig,
    assemble_fluxes,
    compute_dt,
    fill_ghosts,
    periodic_boundaries,
    run,
    step,
)
from rhd2d.recovery import DEFAULT_OPTIONS, recover_with_iterations

try:
    import resource
except ImportError:  # not a Unix
    resource = None


def uniform_field(grid, eos, prim=(1.0, 0.0, 0.0, 1.0)):
    return Field.from_primitives(grid, lambda x, y: np.broadcast_to(
        np.asarray(prim), np.broadcast_shapes(x.shape, y.shape) + (4,)), eos)


def smooth_periodic_field(grid, eos):
    def init(x, y):
        rho = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        vx = 0.2 * np.cos(2 * np.pi * x)
        vy = -0.15 * np.sin(2 * np.pi * y)
        p = 0.8 + 0.3 * np.cos(2 * np.pi * (x + y))
        out = np.empty(rho.shape + (4,))
        out[..., 0], out[..., 1], out[..., 2], out[..., 3] = rho, vx, vy, p
        return out

    return Field.from_primitives(grid, init, eos)


def rest_problem(side, rho, p):
    """A periodic gas at rest on [0, side]^2, under Gamma = 5/3."""
    def init(x, y):
        return np.broadcast_to([rho, 0.0, 0.0, p], np.broadcast_shapes(x.shape, y.shape) + (4,))

    return problems.ProblemSpec(0.0, side, 0.0, side, physics.EosParams(),
                                periodic_boundaries(), 1.0, init)


class TestGrid:
    def test_spacing(self):
        grid = Grid(10, 20, 0.0, 1.0, 0.0, 4.0)
        assert grid.dx == 0.1 and grid.dy == 0.2
        assert_close(grid.centers_x()[0], 0.05, rel=1e-15)
        assert grid.centers_x(with_ghosts=True).shape == (12,)

    @pytest.mark.parametrize(
        "args",
        [(0, 4, 0, 1, 0, 1), (4, 4, 1, 0, 0, 1)]
        + [
            (4, 4) + tuple(bad if k == bound else (0.0, 1.0, 0.0, 1.0)[k] for k in range(4))
            for bound in range(4)
            for bad in (np.inf, -np.inf, np.nan)
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ConfigurationError):
            Grid(*args)

    @pytest.mark.parametrize("counts", [(2.5, 4), (4, 4.0), ("4", 4), (4, None),
                                        (True, 4), (4, False)])
    def test_cell_counts_must_be_integers(self, counts):
        """A bool is an int to `operator.index`, but not a cell count."""
        with pytest.raises(ConfigurationError, match="cell counts must be integers"):
            Grid(*counts, 0.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, -0.5, 0.5), (-0.5, 0.5, -1e308, 1e308),
                                        (0.0, 5e-324, 0.0, 1.0)])
    def test_cell_widths_must_be_positive_and_finite(self, bounds):
        """Finite bounds whose difference overflows would put every centre
        of that axis at infinity; a width that underflows, all at one point."""
        with pytest.raises(ConfigurationError, match="cell widths must be positive and finite"):
            Grid(4, 4, *bounds)


class TestBoundarySpec:
    def test_periodic_pairing(self):
        with pytest.raises(ConfigurationError, match="pair left with right"):
            BoundarySpec(left="periodic", right="outflow")
        with pytest.raises(ConfigurationError, match="pair bottom with top"):
            BoundarySpec(bottom="outflow", top="periodic")

    def test_unknown_rule(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(left="bogus")

    def test_inflow_validation(self):
        with pytest.raises(ConfigurationError):
            Inflow(state=(1.0, 0.0, 0.0), span=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            Inflow(state=(1.0, 0.0, 0.0, 1.0), span=(1.0, 0.0))


class TestField:
    def test_inadmissible_initial_data_named_by_cell(self, eos53):
        """This state passes `primitive`, but its conserved image rounds outside the set."""
        def init(x, y):
            prim = np.broadcast_to([1.0, 0.0, 0.0, 1.0], x.shape[:1] + y.shape[1:] + (4,)).copy()
            prim[2, 1] = [1.0, 1.0 - 1e-12, 0.0, 1e-30]
            return prim

        with pytest.raises(AdmissibilityError, match=r"cell \(2, 1\)") as err:
            Field.from_primitives(Grid(4, 3, 0.0, 1.0, 0.0, 1.0), init, eos53)
        assert err.value.index == (2, 1)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [{"cfl_sigma": 1.5}, {"cfl_sigma": 0.0},
                                        {"alpha": 0.5}, {"alpha": math.inf},
                                        {"mode": "bogus"}])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)


class TestFillGhosts:
    def test_uniform_all_rules(self, eos53):
        grid = Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        for bcs in (periodic_boundaries(), BoundarySpec(),
                    BoundarySpec(left="reflect", right="reflect")):
            field = uniform_field(grid, eos53)
            fill_ghosts(field, bcs, eos53)
            inner = field.cells[1, 1]
            assert np.all(field.cells == inner)

    def test_reflect_negates_normal_momentum(self, eos53):
        grid = Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        field = uniform_field(grid, eos53, prim=(1.0, 0.3, 0.1, 1.0))
        fill_ghosts(field, BoundarySpec(left="reflect"), eos53)
        inner = field.cells[1, 1:-1]
        ghost = field.cells[0, 1:-1]
        assert np.array_equal(ghost[:, physics.MOMX], -inner[:, physics.MOMX])
        assert np.array_equal(ghost[:, physics.MOMY], inner[:, physics.MOMY])
        assert np.array_equal(ghost[:, physics.DEN], inner[:, physics.DEN])

    def test_periodic_wraps(self, eos53):
        grid = Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        field = smooth_periodic_field(grid, eos53)
        fill_ghosts(field, periodic_boundaries(), eos53)
        cells = field.cells
        assert np.array_equal(cells[0, 1:-1], cells[-2, 1:-1])
        assert np.array_equal(cells[-1, 1:-1], cells[1, 1:-1])
        assert np.array_equal(cells[:, 0], cells[:, -2])
        # corner ghost wraps diagonally
        assert np.array_equal(cells[0, 0], cells[-2, -2])

    def test_inflow_nozzle(self, eos53):
        grid = Grid(4, 4, 0.0, 2.0, 0.0, 2.0)
        beam = (0.01, 0.0, 0.9, 0.05)
        bcs = BoundarySpec(bottom=Inflow(state=beam, span=(0.0, 1.0)))
        field = uniform_field(grid, eos53)
        fill_ghosts(field, bcs, eos53)
        beam_cons = physics.prim_to_cons(physics.primitive(*beam), eos53)
        # centers 0.25, 0.75 lie inside the nozzle; 1.25, 1.75 outside
        assert np.array_equal(field.cells[1, 0], beam_cons)
        assert np.array_equal(field.cells[2, 0], beam_cons)
        assert np.array_equal(field.cells[3, 0], field.cells[3, 1])

    def test_jet_corner_ghost_carries_beam(self):
        """Behind a reflecting wall whose mirror image the nozzle covers, the
        corner ghost holds the beam too (zero wall-normal beam velocity)."""
        spec = problems.jet_setup("hot", 0.99, 1.72)
        grid = Grid(60, 150, 0.0, 12.0, 0.0, 30.0)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        fill_ghosts(field, spec.boundaries, spec.eos)
        beam_cons = physics.prim_to_cons(
            physics.primitive(*spec.boundaries.bottom.state), spec.eos
        )
        assert np.array_equal(field.cells[0, 0], beam_cons)   # corner ghost
        assert np.array_equal(field.cells[1, 0], beam_cons)   # first nozzle column
        assert np.array_equal(field.cells[-1, 0], field.cells[-1, 1])  # outside nozzle


def ghosted_prim(field, eos, bcs=None):
    """Fill the ghosts (periodic unless given) and recover the ghosted array, as run() does."""
    fill_ghosts(field, periodic_boundaries() if bcs is None else bcs, eos)
    prim, _ = recover_with_iterations(field.cells, eos)
    return prim


class TestComputeDt:
    def test_uniform_rest_value(self, eos53):
        # sigma * dx / (alpha * c_s) with c_s = 0.6900655593423542
        grid = Grid(10, 10, 0.0, 1.0, 0.0, 1.0)
        field = uniform_field(grid, eos53)
        dt = compute_dt(field, eos53, 0.45, 2.0, ghosted_prim(field, eos53))
        assert_close(dt, 0.45 * 0.1 / (2.0 * 0.6900655593423542178), rel=1e-14)

    def test_linear_in_sigma(self, eos53):
        grid = Grid(8, 8, 0.0, 1.0, 0.0, 1.0)
        field = smooth_periodic_field(grid, eos53)
        prim = ghosted_prim(field, eos53)
        assert compute_dt(field, eos53, 0.9, 2.0, prim) == 2.0 * compute_dt(field, eos53, 0.45, 2.0, prim)

    def test_halves_under_refinement(self, eos53):
        coarse = smooth_periodic_field(Grid(8, 8, 0.0, 1.0, 0.0, 1.0), eos53)
        fine = smooth_periodic_field(Grid(16, 16, 0.0, 1.0, 0.0, 1.0), eos53)
        # frozen comparison on matching extrema: refine a uniform field instead
        cu = uniform_field(Grid(8, 8, 0.0, 1.0, 0.0, 1.0), eos53)
        fu = uniform_field(Grid(16, 16, 0.0, 1.0, 0.0, 1.0), eos53)

        def dt(field):
            return compute_dt(field, eos53, 0.45, 2.0, ghosted_prim(field, eos53))

        assert dt(fu) == 0.5 * dt(cu)
        assert dt(fine) <= dt(coarse)

    @pytest.mark.parametrize("sigma, alpha", [(0.45, 2.0), (0.3, 1.0), (0.9, 3.7)])
    def test_equals_cellwise_minimum(self, sigma, alpha):
        """The reduction to the fastest cell gives the cell-by-cell minimum's bits."""
        spec = problems.problem_by_name("rp2")
        field = run(spec, Grid(24, 24, -1.0, 1.0, -1.0, 1.0), SolverConfig(), t_end=0.1).field
        prim = ghosted_prim(field, spec.eos, spec.boundaries)
        cellwise = math.inf
        for axis, width in ((0, field.grid.dx), (1, field.grid.dy)):
            lam = physics.eigenvalues(prim, spec.eos, axis)
            fastest = alpha * np.maximum(np.abs(lam.lam1), np.abs(lam.lam4))
            cellwise = min(cellwise, float(np.min(width / fastest)))
        assert compute_dt(field, spec.eos, sigma, alpha, prim) == sigma * cellwise

    def test_non_admissible_cell_identified(self, eos53):
        """Recovery certifies the cells compute_dt reads; it names the bad one."""
        grid = Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        field = uniform_field(grid, eos53)
        field.interior[2, 3] = [1.0, 3.0, 0.0, 2.0]
        fill_ghosts(field, BoundarySpec(), eos53)  # outflow: no ghost copy precedes the cell
        with pytest.raises(AdmissibilityError) as err:
            recover_with_iterations(field.cells, eos53)
        assert err.value.index == np.ravel_multi_index((2 + 1, 3 + 1), field.cells.shape[:2])


class TestAssembleFluxes:
    def test_uniform_field_gives_physical_fluxes(self, eos53):
        grid = Grid(6, 5, 0.0, 1.0, 0.0, 1.0)
        field = uniform_field(grid, eos53, prim=(1.0, 0.3, -0.2, 0.7))
        fill_ghosts(field, periodic_boundaries(), eos53)
        prim, _ = recover_with_iterations(field.cells, eos53)
        ref_x = physics.physical_flux(prim[1, 1], field.cells[1, 1], 0)
        ref_y = physics.physical_flux(prim[1, 1], field.cells[1, 1], 1)
        for dt in (1e-3, 2e-2):
            fhat, ghat = assemble_fluxes(field, dt, eos53, SolverConfig(), prim)
            assert np.all(fhat == ref_x)
            assert np.all(ghat == ref_y)

    def test_y_invariant_reduces_to_1d_bitwise(self, eos53):
        grid = Grid(8, 6, -1.0, 1.0, 0.0, 1.0)
        profile = np.array(
            [(1.0, 0.0, 0.0, 1.0)] * 4 + [(0.125, 0.0, 0.0, 0.1)] * 4
        )

        def init(x, y):
            idx = np.clip(((x + 1.0) / 0.25).astype(int), 0, 7)
            return profile[idx] * np.ones_like(y)[..., None]

        field = Field.from_primitives(grid, init, eos53)
        bcs = BoundarySpec(top="periodic", bottom="periodic")
        fill_ghosts(field, bcs, eos53)
        prim, _ = recover_with_iterations(field.cells, eos53)
        dt = 0.5 * compute_dt(field, eos53, 0.45, 2.0, prim)
        multi = assemble_fluxes(field, dt, eos53, SolverConfig(mode="multidimensional"), prim)
        split = assemble_fluxes(field, dt, eos53, SolverConfig(mode="dimension_split"), prim)
        # the x-face composite collapses onto the 1D flux of the face pair
        assert np.array_equal(multi[0], split[0])
        # the y-face flux keeps a transverse average, but its differences
        # vanish row to row, so the two modes update the field identically
        assert np.all(multi[1][:, 1:] == multi[1][:, :-1])
        assert np.all(split[1][:, 1:] == split[1][:, :-1])

    @pytest.mark.parametrize(
        "n_x, n_y, source",
        [(4, 4, "rp1"), (5, 3, "rp1"), (7, 5, "random")],
        ids=["4x4", "5x3", "random7x5"],
    )
    def test_matches_term_by_term_oracle_on_rp1(self, eos53, n_x, n_y, source):
        """First-step composite fluxes against a scalar recomposition.

        The non-square grids tell the x-face and y-face roles apart.  The
        periodic mesh of random states (gamma up to 10) holds one-sided and
        two-sided corner fans and a supersonic face.  Every corner fan feeds
        the composite, and each face fan spans the fans of its two corners.
        """
        grid = Grid(n_x, n_y, -1.0, 1.0, -1.0, 1.0)
        if source == "rp1":
            spec = problems.problem_by_name("rp1")
            field = Field.from_primitives(grid, spec.initial, eos53)
            bcs = spec.boundaries
        else:
            rng = np.random.default_rng(4)  # 4 one-sided corners, 1 supersonic face
            states = oracles.whole_primitives(rng, n_x * n_y, gamma_cap=10.0)
            field = Field.from_primitives(grid, lambda x, y: states.reshape(n_x, n_y, 4), eos53)
            bcs = periodic_boundaries()
        fill_ghosts(field, bcs, eos53)
        prim, _ = recover_with_iterations(field.cells, eos53)
        dt = compute_dt(field, eos53, 0.45, 2.0, prim)
        fhat, ghat = assemble_fluxes(field, dt, eos53, SolverConfig(), prim)

        cons = field.cells
        lam_x = physics.eigenvalues(prim, eos53, 0)
        lam_y = physics.eigenvalues(prim, eos53, 1)
        flux_x = physics.physical_flux(prim, cons, 0)
        flux_y = physics.physical_flux(prim, cons, 1)

        def corner(i, j):
            """Corner data (vertex between cells i,i+1 x j,j+1, ghosted idx)."""
            keys = {"ld": (i, j), "rd": (i + 1, j), "lu": (i, j + 1), "ru": (i + 1, j + 1)}
            u = {k: cons[v] for k, v in keys.items()}
            fx = {k: flux_x[v] for k, v in keys.items()}
            fy = {k: flux_y[v] for k, v in keys.items()}
            cells = list(keys.values())
            s_l = 2.0 * min(lam_x.lam1[v] for v in cells)
            s_r = 2.0 * max(lam_x.lam4[v] for v in cells)
            s_d = 2.0 * min(lam_y.lam1[v] for v in cells)
            s_u = 2.0 * max(lam_y.lam4[v] for v in cells)
            return u, fx, fy, (s_l, s_r, s_d, s_u)

        fans, supersonic_faces = set(), 0

        def corner_flux(i, j):
            u, fx, fy, sp = corner(i, j)
            fans.add(sp[0] < 0.0 < sp[1] and sp[2] < 0.0 < sp[3])
            flux_x, flux_y = oracles.corner_fluxes_from_states(u, fx, fy, sp)
            return (np.array([float(v) for v in flux_x]), np.array([float(v) for v in flux_y])), sp

        nx, ny = grid.n_x, grid.n_y
        for i in range(nx + 1):          # x-faces (i+1/2, row j)
            for j in range(1, ny + 1):
                (below, _), sp_b = corner_flux(i, j - 1)
                (above, _), sp_a = corner_flux(i, j)
                # the face fan spans the fans of its two corners
                sm, sp1 = min(sp_b[0], sp_a[0]), max(sp_b[1], sp_a[1])
                supersonic_faces += sm >= 0.0 or sp1 <= 0.0
                f1 = oracles.hll_flux_from_states(
                    cons[i, j], flux_x[i, j], cons[i + 1, j], flux_x[i + 1, j], sm, sp1
                )
                f1 = np.array([float(v) for v in f1])
                sup_b = max(sp_b[3], 0.0)
                sdm_a = min(sp_a[2], 0.0)
                cx = dt / (2.0 * grid.dy)
                ref = f1 + cx * (sup_b * (below - f1) - sdm_a * (above - f1))
                got = fhat[i, j - 1]
                assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

        for i in range(1, nx + 1):       # y-faces (column i, j+1/2)
            for j in range(ny + 1):
                (_, left), sp_l = corner_flux(i - 1, j)
                (_, right), sp_r = corner_flux(i, j)
                sm, sp1 = min(sp_l[2], sp_r[2]), max(sp_l[3], sp_r[3])
                supersonic_faces += sm >= 0.0 or sp1 <= 0.0
                g1 = oracles.hll_flux_from_states(
                    cons[i, j], flux_y[i, j], cons[i, j + 1], flux_y[i, j + 1], sm, sp1
                )
                g1 = np.array([float(v) for v in g1])
                srp_l = max(sp_l[1], 0.0)
                slm_r = min(sp_r[0], 0.0)
                cy = dt / (2.0 * grid.dx)
                ref = g1 + cy * (srp_l * (left - g1) - slm_r * (right - g1))
                got = ghat[i - 1, j]
                assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        if source == "random":
            assert fans == {True, False} and supersonic_faces > 0

    def test_peak_memory_budget(self):
        """One call's peak traced allocation on rp2 64x64, in units of one
        ghosted (n+2)^2 x 4 array.  It measures 17.68 for this call, which
        computes the speeds itself and allocates the flux buffers for itself
        alone (one strip covers 64 rows).  A call of run()'s, on its kept
        buffers and with the speeds passed in, allocates 4.75."""
        spec = problems.problem_by_name("rp2")
        grid = Grid(64, 64, -1.0, 1.0, -1.0, 1.0)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        fill_ghosts(field, spec.boundaries, spec.eos)
        prim, _ = recover_with_iterations(field.cells, spec.eos)
        dt = compute_dt(field, spec.eos, 0.45, 2.0, prim)
        assemble_fluxes(field, dt, spec.eos, SolverConfig(), prim)
        tracemalloc.start()
        try:
            assemble_fluxes(field, dt, spec.eos, SolverConfig(), prim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / field.cells.nbytes <= 17.7

    def test_run_keeps_its_flux_buffers(self, monkeypatch):
        """run() makes one set of flux buffers and writes every 4-component
        array of flux assembly into it: on rp2 64x64, one strip, each call's
        peak traced allocation, in units of one ghosted (n+2)^2 x 4 array,
        measures 4.75 (per-lane scalars), where one more 4-component
        temporary adds 1.  At 200x200 the pools hold one strip's slab, not
        the mesh, and a call's peak measures 0.94."""
        made, peaks = [], []
        buffers, assemble = mesh_solver._FluxBuffers, mesh_solver._assemble_fluxes

        def counted(grid):
            made.append(buffers(grid))
            return made[-1]

        def measured(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fluxes = assemble(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return fluxes

        monkeypatch.setattr(mesh_solver, "_FluxBuffers", counted)
        monkeypatch.setattr(mesh_solver, "_assemble_fluxes", measured)
        spec = problems.problem_by_name("rp2")
        grid = Grid(64, 64, -1.0, 1.0, -1.0, 1.0)
        tracemalloc.start()
        try:
            field = run(spec, grid, SolverConfig(), t_end=0.05).field
        finally:
            tracemalloc.stop()
        assert len(made) == 1 and len(peaks) >= 4
        assert max(peaks) / field.cells.nbytes <= 5.2, peaks

        made.clear()
        peaks.clear()
        grid = spec.default_grid(200)
        tracemalloc.start()
        try:
            field = run(spec, grid, SolverConfig(), t_end=0.01).field
        finally:
            tracemalloc.stop()
        (kept,) = made
        slab = (kept.rows + 2 * GHOST) * (grid.n_y + 2 * GHOST)
        assert slab <= mesh_solver.STRIP_CELLS and kept.rows < grid.n_x // 4
        assert sum(pool.nbytes for pool in kept._pools.values()) == len(kept.NAMES) * 4 * slab * 8
        assert len(peaks) >= 4 and max(peaks) / field.cells.nbytes <= 1.0, peaks

    def test_run_peak_memory_budget(self):
        """run()'s peak traced allocation over 5 steps of rp2 at 200x200, in
        units of one ghosted (n+2)^2 x 4 array, measures 13.50, set by
        recovery; flux buffers that spanned the mesh would add about 8."""
        spec = problems.problem_by_name("rp2")
        tracemalloc.start()
        try:
            result = run(spec, spec.default_grid(200), SolverConfig(), t_end=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics.steps == 5
        assert peak / result.field.cells.nbytes <= 13.6


def strip_cells(rows, n_y):
    """The STRIP_CELLS at which flux assembly takes strips of `rows` rows."""
    return (rows + 2 * GHOST) * (n_y + 2 * GHOST)


class TestStrips:
    """run() and assemble_fluxes assemble a step in strips of cell rows
    (mesh_solver.STRIP_CELLS); every flux and every cell equals those of
    one strip over the whole mesh, bit for bit, across each seam."""

    ROWS, N_Y = 4, 5
    SIDES = {
        "periodic": periodic_boundaries(),
        "outflow": BoundarySpec(),
        "reflect": BoundarySpec("reflect", "reflect", "reflect", "reflect"),
        "inflow": BoundarySpec(left=Inflow((1.0, 0.6, 0.0, 0.5), (0.0, 0.25)),
                               bottom=Inflow((0.5, 0.0, 0.7, 1.0), (-1.0, 0.35))),
    }

    def random_problem(self, n_x, boundaries):
        """Random admissible states (gamma up to 10) on 0.1-wide cells."""
        states = oracles.whole_primitives(np.random.default_rng(n_x), n_x * self.N_Y,
                                          gamma_cap=10.0)
        return problems.ProblemSpec(0.0, 0.1 * n_x, 0.0, 0.1 * self.N_Y, physics.EosParams(),
                                    boundaries, 0.1,
                                    lambda x, y: states.reshape(n_x, self.N_Y, 4))

    def run_in_strips(self, monkeypatch, rows, spec, grid, mode):
        """run()'s final cells and each step's fluxes, in strips of `rows` rows."""
        monkeypatch.setattr(mesh_solver, "STRIP_CELLS", strip_cells(rows, grid.n_y))
        assert mesh_solver._FluxBuffers(grid).rows == rows
        fluxes = []

        def recorded(field, dt, step_fluxes, config):
            fluxes.append([flux.copy() for flux in step_fluxes])
            return step(field, dt, step_fluxes, config)

        monkeypatch.setattr(mesh_solver, "step", recorded)
        return run(spec, grid, SolverConfig(mode=mode), spec.t_end).field.cells, fluxes

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sides", SIDES)
    @pytest.mark.parametrize("n_x", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 5])
    def test_seams_bit_for_bit(self, monkeypatch, n_x, sides, mode):
        spec = self.random_problem(n_x, self.SIDES[sides])
        grid = Grid(n_x, self.N_Y, spec.x_min, spec.x_max, spec.y_min, spec.y_max)
        cells, fluxes = self.run_in_strips(monkeypatch, self.ROWS, spec, grid, mode)
        whole_cells, whole_fluxes = self.run_in_strips(monkeypatch, n_x, spec, grid, mode)
        assert len(fluxes) == len(whole_fluxes) >= 2
        assert np.array_equal(cells, whole_cells)
        for step_fluxes, whole in zip(fluxes, whole_fluxes):
            for flux, whole_flux in zip(step_fluxes, whole):
                assert np.array_equal(flux, whole_flux)

    @pytest.mark.parametrize("mode", MODES)
    def test_public_call_gives_the_fluxes_of_run(self, monkeypatch, mode):
        """assemble_fluxes on a step's field, dt and primitives returns the
        fluxes that run() took for that step, in strips of 4 rows."""
        grid = Grid(2 * self.ROWS + 5, self.N_Y, -1.0, 1.0, -1.0, 1.0)
        monkeypatch.setattr(mesh_solver, "STRIP_CELLS", strip_cells(self.ROWS, grid.n_y))
        assemble, calls = mesh_solver._assemble_fluxes, []

        def recorded(buffers, field, dt, config, prim, speeds):
            fluxes = assemble(buffers, field, dt, config, prim, speeds)
            calls.append((field.cells.copy(), dt, prim.copy(), [f.copy() for f in fluxes]))
            return fluxes

        monkeypatch.setattr(mesh_solver, "_assemble_fluxes", recorded)
        spec, config = problems.problem_by_name("rp2"), SolverConfig(mode=mode)
        run(spec, grid, config, t_end=0.2)
        monkeypatch.setattr(mesh_solver, "_assemble_fluxes", assemble)
        assert len(calls) >= 2
        for cells, dt, prim, fluxes in calls:
            public = assemble_fluxes(Field(grid, cells), dt, spec.eos, config, prim)
            for flux, public_flux in zip(fluxes, public):
                assert np.array_equal(flux, public_flux)


class TestExactInvariants:
    """A periodic shift of the initial cells, and a power-of-two scaling of
    rho and p (which scales D, m and E exactly), commute with run() bit for
    bit, in both modes and at one-row strips as well as whole-mesh ones."""

    N, SHIFT, SCALE = 16, (5, 3), -700
    SIDES = {
        "periodic": periodic_boundaries(),
        "outflow": BoundarySpec(),
        "reflect-outflow": BoundarySpec("reflect", "outflow", "reflect", "outflow"),
    }

    def final_cells(self, monkeypatch, strip, mode, boundaries, states):
        """run()'s interior cells after five steps from `states` on the unit square."""
        spec = problems.ProblemSpec(0.0, 1.0, 0.0, 1.0, physics.EosParams(), boundaries, 0.06,
                                    lambda x, y: states)
        grid = Grid(self.N, self.N, 0.0, 1.0, 0.0, 1.0)
        monkeypatch.setattr(mesh_solver, "STRIP_CELLS", strip)
        assert (mesh_solver._FluxBuffers(grid).rows == 1) == (strip == 40)
        result = run(spec, grid, SolverConfig(mode=mode), spec.t_end)
        assert result.diagnostics.steps == 5
        return result.field.interior

    def meshes(self):
        for seed in range(3):
            yield oracles.whole_primitives(np.random.default_rng(seed), self.N * self.N,
                                           gamma_cap=10.0).reshape(self.N, self.N, 4)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strip", [8192, 40])
    def test_periodic_shift(self, monkeypatch, strip, mode):
        for states in self.meshes():
            cells = self.final_cells(monkeypatch, strip, mode, self.SIDES["periodic"], states)
            shifted = self.final_cells(monkeypatch, strip, mode, self.SIDES["periodic"],
                                       np.roll(states, self.SHIFT, axis=(0, 1)))
            assert np.array_equal(shifted, np.roll(cells, self.SHIFT, axis=(0, 1)))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strip", [8192, 40])
    @pytest.mark.parametrize("sides", SIDES)
    def test_power_of_two_scaling(self, monkeypatch, sides, strip, mode):
        """Inflow is left out: its beam state is not scaled."""
        for states in self.meshes():
            scaled = states.copy()
            for component in (physics.RHO, physics.PRE):
                scaled[..., component] = np.ldexp(states[..., component], self.SCALE)
            cells = self.final_cells(monkeypatch, strip, mode, self.SIDES[sides], states)
            got = self.final_cells(monkeypatch, strip, mode, self.SIDES[sides], scaled)
            assert np.array_equal(got, np.ldexp(cells, self.SCALE))


class TestPlanarLayout:
    """Arrays keep their (..., 4) shape and store each component as one
    C-contiguous plane; any (..., 4) array is still accepted."""

    @staticmethod
    def assert_planar(array):
        assert array.shape[-1] == 4
        assert all(array[..., k].flags.c_contiguous for k in range(4))

    def test_constructors_store_planes(self, eos53):
        spec = problems.problem_by_name("sine")
        for average in (False, True):
            self.assert_planar(Field.from_primitives(
                Grid(6, 5, 0.0, 1.0, 0.0, 1.0), spec.initial, eos53, average=average).cells)
        prim = physics.primitive(np.linspace(1.0, 2.0, 15).reshape(3, 5), 0.5, -0.25, 2.0)
        cons = physics.prim_to_cons(prim, eos53)
        for array in (prim, cons, recover_with_iterations(cons, eos53)[0]):
            self.assert_planar(array)
        interleaved = np.ascontiguousarray(cons)
        assert not interleaved[..., 0].flags.c_contiguous
        self.assert_planar(recover_with_iterations(interleaved, eos53)[0])

    @pytest.mark.parametrize("mode", MODES)
    def test_interleaved_input_gives_the_same_bits(self, mode):
        """A caller's interleaved np.zeros((n, m, 4)) field and primitives give
        the planar field's fluxes and step, bit for bit, on a non-square grid."""
        spec = problems.problem_by_name("rp2")
        grid = Grid(12, 10, -1.0, 1.0, -1.0, 1.0)
        config = SolverConfig(mode=mode)
        planar = run(spec, grid, config, t_end=0.1).field
        interleaved = Field(grid, np.zeros((grid.n_x + 2, grid.n_y + 2, 4)), planar.time)
        interleaved.cells[...] = planar.cells
        self.assert_planar(planar.cells)
        assert interleaved.cells.flags.c_contiguous
        results = []
        for field in (planar, interleaved):
            fill_ghosts(field, spec.boundaries, spec.eos)
            prim, _ = recover_with_iterations(field.cells, spec.eos)
            if field is interleaved:
                prim = np.ascontiguousarray(prim)
            dt = compute_dt(field, spec.eos, config.cfl_sigma, config.alpha, prim)
            fluxes = assemble_fluxes(field, dt, spec.eos, config, prim)
            step(field, dt, fluxes, config)
            results.append((dt, fluxes, field.cells))
        (dt, fluxes, cells), (dt_i, fluxes_i, cells_i) = results
        assert dt == dt_i
        for flux, flux_i in zip(fluxes, fluxes_i):
            assert np.array_equal(flux, flux_i)
        assert np.array_equal(cells, cells_i)


# Mean minor page faults of one steady rp2 step at 200x200, in a process
# that has finished one run before.  Measured 0 on a 2-core x86-64 Linux
# machine with glibc 2.36; about 2,500 when each step allocated its flux
# arrays afresh and glibc trimmed and re-faulted some 11 MB of heap per step.
MAX_FAULTS_PER_STEP = 300

# A short run, then the minor faults of 5 steps of a second run's loop
# after 2 warm-up steps, printed.
_FAULT_PROBE = """
import resource
import numpy as np
from rhd2d import mesh_solver, problems

spec = problems.problem_by_name("rp2")
grid = spec.default_grid(200)
mesh_solver.run(spec, grid, mesh_solver.SolverConfig(), 0.005)
faults = []
step = mesh_solver.step

class Enough(Exception):
    pass

def counted(*args):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    if len(faults) == 8:
        raise Enough
    return step(*args)

mesh_solver.step = counted
try:
    mesh_solver.run(spec, grid, mesh_solver.SolverConfig(), spec.t_end)
except Enough:
    print(*np.diff(faults)[2:])
"""


@pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of glibc's allocator")
def test_steady_steps_touch_no_fresh_pages():
    """rp2 at 200x200: after 2 warm-up steps, 5 steps of run()'s loop take
    at most MAX_FAULTS_PER_STEP minor page faults each on average.

    The probe runs in a fresh interpreter, since how glibc trims its heap
    depends on what the process allocated before.  It runs a short job
    first, as a benchmark's later repetitions and a convergence study's
    later levels have: freeing that run's flux buffers raises glibc's
    dynamic mmap and trim thresholds above the step's temporaries.  A
    process's first run still takes about 1,000 faults per step at this
    size, from the per-lane temporaries of recovery and flux assembly,
    which glibc trims; test_run_keeps_its_flux_buffers guards the flux
    arrays themselves."""
    src = str(Path(mesh_solver.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
    per_step = [int(word) for word in done.stdout.split()]
    assert len(per_step) == 5 and np.mean(per_step) < MAX_FAULTS_PER_STEP, per_step


class TestStep:
    def test_uniform_field_unchanged_100_steps(self, eos53):
        grid = Grid(8, 8, 0.0, 1.0, 0.0, 1.0)
        field = uniform_field(grid, eos53, prim=(1.0, 0.3, -0.2, 0.7))
        start = field.interior.copy()
        config = SolverConfig()
        for _ in range(100):
            fill_ghosts(field, periodic_boundaries(), eos53)
            prim, _ = recover_with_iterations(field.cells, eos53)
            dt = compute_dt(field, eos53, 0.45, 2.0, prim)
            step(field, dt, assemble_fluxes(field, dt, eos53, config, prim), config)
        assert np.array_equal(field.interior, start)

    def test_conservation_per_step_periodic(self, eos53):
        grid = Grid(32, 32, 0.0, 1.0, 0.0, 1.0)
        field = smooth_periodic_field(grid, eos53)
        config = SolverConfig()
        for _ in range(5):
            before = np.sum(field.interior, axis=(0, 1))
            fill_ghosts(field, periodic_boundaries(), eos53)
            prim, _ = recover_with_iterations(field.cells, eos53)
            dt = compute_dt(field, eos53, 0.45, 2.0, prim)
            step(field, dt, assemble_fluxes(field, dt, eos53, config, prim), config)
            after = np.sum(field.interior, axis=(0, 1))
            scale = np.maximum(np.abs(before), 1.0)
            assert np.all(np.abs(after - before) / scale <= 1e-12)

    def test_one_step_rp1_matches_flux_oracle(self, eos53):
        spec = problems.problem_by_name("rp1")
        grid = Grid(4, 4, -1.0, 1.0, -1.0, 1.0)
        field = Field.from_primitives(grid, spec.initial, eos53)
        fill_ghosts(field, spec.boundaries, eos53)
        prim, _ = recover_with_iterations(field.cells, eos53)
        dt = compute_dt(field, eos53, 0.45, 2.0, prim)
        fhat, ghat = assemble_fluxes(field, dt, eos53, SolverConfig(), prim)
        expected = field.interior.copy()
        expected -= (dt / grid.dx) * (fhat[1:, :] - fhat[:-1, :])
        expected -= (dt / grid.dy) * (ghat[:, 1:] - ghat[:, :-1])
        step(field, dt, (fhat, ghat), SolverConfig())
        assert np.array_equal(field.interior, expected)

    def test_pcp_audit_failure_carries_context(self, eos53):
        grid = Grid(4, 4, 0.0, 1.0, 0.0, 1.0)
        field = uniform_field(grid, eos53)
        bad_f = np.zeros((5, 4, 4))
        bad_f[2, 1] = [0.0, 0.0, 0.0, 1e4]  # drain energy from one cell
        bad_g = np.zeros((4, 5, 4))
        config = SolverConfig(cfl_sigma=0.4, alpha=2.0)
        with pytest.raises(PcpAuditError) as err:
            step(field, 0.05, (bad_f, bad_g), config)
        assert err.value.index == (1, 1)
        assert err.value.cfl_sigma == 0.4 and err.value.alpha == 2.0
        assert err.value.state is not None

    def test_cfl_violation_detected(self, eos53):
        spec = problems.problem_by_name("rp1")
        grid = Grid(8, 8, -1.0, 1.0, -1.0, 1.0)
        field = Field.from_primitives(grid, spec.initial, eos53)
        fill_ghosts(field, spec.boundaries, eos53)
        prim, _ = recover_with_iterations(field.cells, eos53)
        dt = compute_dt(field, eos53, 0.45, 2.0, prim)
        with pytest.raises(PcpAuditError) as err:
            assemble_fluxes(field, 50.0 * dt, eos53, SolverConfig(), prim)
        assert (err.value.cfl_sigma, err.value.alpha) == (0.45, 2.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_audit_bound_is_compute_dt_at_sigma_one(self, eos53, mode):
        """dt equal to compute_dt's bound at sigma = 1 passes the audit and one
        ulp above it raises, in either mode; with the audit off neither does."""
        spec = problems.problem_by_name("rp1")
        grid = Grid(8, 8, -1.0, 1.0, -1.0, 1.0)
        field = Field.from_primitives(grid, spec.initial, eos53)
        fill_ghosts(field, spec.boundaries, eos53)
        prim, _ = recover_with_iterations(field.cells, eos53)
        bound = compute_dt(field, eos53, 1.0, 2.0, prim)
        above = float(np.nextafter(bound, np.inf))
        audited = SolverConfig(cfl_sigma=1.0, mode=mode)
        assemble_fluxes(field, bound, eos53, audited, prim)
        with pytest.raises(PcpAuditError) as err:
            assemble_fluxes(field, above, eos53, audited, prim)
        assert (err.value.cfl_sigma, err.value.alpha) == (1.0, 2.0)
        for dt in (bound, above):
            assemble_fluxes(field, dt, eos53, replace(audited, pcp_audit=False), prim)

    def test_run_at_sigma_one_on_gas_at_rest(self):
        """Each step takes compute_dt's bound itself as dt; on this mesh some
        composite weights, formed from the corner speeds, round below zero there."""
        side = 3.6605404448336447
        spec = rest_problem(side, 0.007461759189635847, 122.95529882984123)
        grid = Grid(3, 3, 0.0, side, 0.0, side)
        result = run(spec, grid, SolverConfig(cfl_sigma=1.0), t_end=spec.t_end)
        assert result.diagnostics.steps > 0
        initial = Field.from_primitives(grid, spec.initial, spec.eos)
        assert np.array_equal(result.field.interior, initial.interior)

    def test_compute_dt_at_sigma_one_passes_the_audit(self):
        """Random periodic gases at rest, n in 3..11 and rho, p and the side
        log-uniform over 1e-3..1e3: compute_dt's dt at sigma = 1 never raises."""
        rng = np.random.default_rng(0)
        config = SolverConfig(cfl_sigma=1.0)
        for _ in range(500):
            n = int(rng.integers(3, 12))
            rho, p, side = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
            spec = rest_problem(side, rho, p)
            field = Field.from_primitives(Grid(n, n, 0.0, side, 0.0, side), spec.initial, spec.eos)
            fill_ghosts(field, spec.boundaries, spec.eos)
            prim, _ = recover_with_iterations(field.cells, spec.eos)
            dt = compute_dt(field, spec.eos, 1.0, 2.0, prim)
            assemble_fluxes(field, dt, spec.eos, config, prim)

    def test_cli_run_at_cfl_one(self, tmp_path, capsys):
        """The explosion at --cfl 1 passes the audit, which changes no bit."""
        fields = []
        for name, audit in (("audited", []), ("unaudited", ["--no-pcp-audit"])):
            out = tmp_path / name
            assert cli.main(["run", "--problem", "explosion", "--n", "36", "--cfl", "1",
                             "--emit", "field", "--out", str(out), *audit]) == 0
            fields.append((out / "field.dat").read_bytes())
        assert fields[0] == fields[1]


class TestModes:
    def test_split_equals_multi_on_y_invariant_field(self, eos53):
        grid = Grid(24, 12, -1.0, 1.0, 0.0, 1.0)

        def init(x, y):
            rho = np.where(x < 0.0, 1.0, 0.125) * np.ones_like(y)
            p = np.where(x < 0.0, 1.0, 0.1) * np.ones_like(y)
            out = np.zeros(rho.shape + (4,))
            out[..., 0], out[..., 3] = rho, p
            out[..., 2] = 0.3  # transverse drift exercises the G fluxes
            return out

        bcs = BoundarySpec(top="periodic", bottom="periodic")
        fields = {}
        for mode in ("multidimensional", "dimension_split"):
            config = SolverConfig(mode=mode)
            field = Field.from_primitives(grid, init, eos53)
            for _ in range(10):
                fill_ghosts(field, bcs, eos53)
                prim, _ = recover_with_iterations(field.cells, eos53)
                dt = compute_dt(field, eos53, 0.45, 2.0, prim)
                step(field, dt, assemble_fluxes(field, dt, eos53, config, prim), config)
            fields[mode] = field.cells
        assert np.array_equal(fields["multidimensional"], fields["dimension_split"])

    def test_split_equals_multi_on_x_invariant_field(self, eos53):
        grid = Grid(12, 24, 0.0, 1.0, -1.0, 1.0)

        def init(x, y):
            rho = np.where(y < 0.0, 1.0, 0.125) * np.ones_like(x)
            p = np.where(y < 0.0, 1.0, 0.1) * np.ones_like(x)
            out = np.zeros(rho.shape + (4,))
            out[..., 0], out[..., 3] = rho, p
            out[..., 1] = 0.3
            return out

        bcs = BoundarySpec(left="periodic", right="periodic")
        fields = {}
        for mode in ("multidimensional", "dimension_split"):
            config = SolverConfig(mode=mode)
            field = Field.from_primitives(grid, init, eos53)
            for _ in range(10):
                fill_ghosts(field, bcs, eos53)
                prim, _ = recover_with_iterations(field.cells, eos53)
                dt = compute_dt(field, eos53, 0.45, 2.0, prim)
                step(field, dt, assemble_fluxes(field, dt, eos53, config, prim), config)
            fields[mode] = field.cells
        assert np.array_equal(fields["multidimensional"], fields["dimension_split"])


class TestRun:
    def test_one_compute_dt_and_one_speed_survey_per_step(self, monkeypatch):
        """run() surveys each step's signal speeds once and takes its dt from
        that survey: one `_step_bound` per step and no compute_dt, which
        would survey the speeds a second time."""
        calls = {"compute_dt": 0, "_step_bound": 0, "extreme_speeds": 0}

        def counted(name):
            original = getattr(mesh_solver, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(mesh_solver, name, wrapper)

        for name in calls:
            counted(name)
        spec = problems.problem_by_name("rp2")
        result = run(spec, spec.default_grid(16), SolverConfig(), t_end=0.1)
        steps = result.diagnostics.steps
        assert steps > 0
        assert calls == {"compute_dt": 0, "_step_bound": steps, "extreme_speeds": steps}

    def test_zero_time_returns_initial_field(self, eos53):
        spec = problems.problem_by_name("rp1")
        grid = Grid(8, 8, -1.0, 1.0, -1.0, 1.0)
        result = run(spec, grid, SolverConfig(), t_end=0.0)
        reference = Field.from_primitives(grid, spec.initial, spec.eos)
        assert result.diagnostics.steps == 0
        assert np.array_equal(result.field.interior, reference.interior)

    def test_zero_time_reports_initial_extremes(self):
        spec = problems.problem_by_name("rp1")
        grid = Grid(8, 8, -1.0, 1.0, -1.0, 1.0)
        seen = []
        result = run(spec, grid, SolverConfig(), t_end=0.0, on_snapshot=seen.append)
        assert len(seen) == 1 and seen[0] is result.field
        reference = Field.from_primitives(grid, spec.initial, spec.eos)
        prim, _ = recover_with_iterations(reference.interior, spec.eos)
        gam = physics.lorentz_factor(prim[..., physics.VX], prim[..., physics.VY])
        diag = result.diagnostics
        assert diag.min_density == np.min(prim[..., physics.RHO]) > 0.0
        assert diag.max_density == np.max(prim[..., physics.RHO])
        assert diag.min_pressure == np.min(prim[..., physics.PRE]) > 0.0
        assert diag.max_pressure == np.max(prim[..., physics.PRE])
        assert diag.min_lorentz == np.min(gam) >= 1.0
        assert diag.max_lorentz == np.max(gam)

    @pytest.mark.parametrize("name, n", [("jet-hot-i", 8), ("jet-hot-i", 11), ("jet-cold-i", 8)])
    def test_jet_needs_a_cell_centre_in_its_nozzle(self, name, n):
        """Below 12 cells across x = [0, 12] no ghost centre lies in |x| <= 0.5,
        which is found before the snapshot at t = 0."""
        spec = problems.problem_by_name(name)
        seen = []
        with pytest.raises(ConfigurationError, match="no boundary cell centre"):
            run(spec, spec.default_grid(n), SolverConfig(), t_end=2.0, snapshot_times=(0.0,),
                on_snapshot=seen.append)
        assert seen == []
        result = run(spec, spec.default_grid(12), SolverConfig(), t_end=0.5)
        assert result.diagnostics.max_lorentz > 1.0

    def test_lands_exactly_on_snapshots_and_t_end(self):
        spec = problems.problem_by_name("sine")
        seen = []
        result = run(
            spec,
            spec.default_grid(10),
            SolverConfig(),
            t_end=0.05,
            snapshot_times=[0.013, 0.04, 0.0],
            on_snapshot=lambda field: seen.append(field.time),
        )
        assert seen == [0.0, 0.013, 0.04, 0.05]
        assert result.field.time == 0.05
        assert result.diagnostics.dt_clamped_steps >= 3

    @pytest.mark.parametrize("name, t_end, snapshots, sigma, alpha", [
        (name, t_end, snapshots, sigma, alpha)
        for sigma, alpha in ((0.45, 2.0), (0.9, 1.0))
        for name, t_end, snapshots in (
            ("rp1", None, ()), ("rp2", None, ()), ("sine", None, ()), ("vortex", None, ()),
            ("explosion", None, ()), ("jet-hot-iii", 3.0, ()), ("jet-cold-iii", 3.0, ()),
            ("rp2", 0.4, tuple(0.005 * k for k in range(1, 81))),
        )
        # sigma 0.9 with alpha 1 takes the sine wave out of the admissible set
        if (name, alpha) != ("sine", 1.0)
    ])
    def test_step_count_is_bounded(self, name, t_end, snapshots, sigma, alpha):
        """Recovery certifies |u| < 1, so every |lam| <= 1 and compute_dt gives
        dt >= sigma min(dx, dy) / alpha: a run cannot stall.  Each output time
        adds at most one clamped step and one round-off step."""
        spec = problems.problem_by_name(name)
        grid = spec.default_grid(16)
        t_end = spec.t_end if t_end is None else t_end
        config = SolverConfig(cfl_sigma=sigma, alpha=alpha)
        steps = run(spec, grid, config, t_end=t_end, snapshot_times=snapshots).diagnostics.steps
        targets = len({t for t in snapshots if 0.0 < t <= t_end} | {t_end})
        assert steps <= math.ceil(t_end * alpha / (sigma * min(grid.dx, grid.dy))) + 2 * targets

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": float("nan")},
            {"t_end": float("inf")},
            {"t_end": 0.05, "snapshot_times": [0.01, float("nan")]},
            {"t_end": 0.05, "snapshot_times": [float("inf")]},
            {"t_end": 0.05, "snapshot_times": [0.01, 0.5]},
            {"t_end": 0.05, "snapshot_times": [-0.01]},
            {"t_end": 0.0, "snapshot_times": [0.01]},
        ],
    )
    def test_non_finite_times_rejected_before_stepping(self, monkeypatch, kwargs):
        def no_step(*args, **kw):
            raise AssertionError("run() stepped with a non-finite time")

        monkeypatch.setattr("rhd2d.mesh_solver.step", no_step)
        spec = problems.problem_by_name("sine")
        with pytest.raises(ConfigurationError):
            run(spec, spec.default_grid(8), SolverConfig(), **kwargs)

    @pytest.mark.parametrize("sigma, alpha", [(5e-324, 2.0), (1e-300, 1e308)])
    def test_time_step_that_does_not_advance_the_clock_rejected(self, steps_taken, sigma, alpha):
        """sigma dx / (alpha max|lam|) underflows to dt = 0, which would loop forever.
        The step cap's floor underflows too, so the run is rejected before the
        snapshot at t = 0."""
        spec = problems.problem_by_name("sine")
        config = SolverConfig(cfl_sigma=sigma, alpha=alpha)
        seen = []
        with pytest.raises(ConfigurationError, match=r"steps as short as 0\.0 to reach "):
            run(spec, spec.default_grid(8), config, t_end=spec.t_end, snapshot_times=(0.0,),
                on_snapshot=seen.append)
        assert seen == [] and steps_taken == []

    @pytest.mark.parametrize("mode", MODES)
    def test_equals_public_call_loop(self, mode):
        """run() is the loop of public calls that an outside caller (such as
        a benchmark replay) makes positionally, without passing the speeds."""
        spec = problems.problem_by_name("rp2")
        grid = Grid(48, 48, -1.0, 1.0, -1.0, 1.0)
        config = SolverConfig(mode=mode)
        t_end, snapshots = spec.t_end, (0.2, 0.4, 0.6)
        result = run(spec, grid, config, t_end=t_end, snapshot_times=snapshots)

        eos = spec.eos
        field = Field.from_primitives(grid, spec.initial, eos)
        hint, steps, sweeps_max = None, 0, 0
        for target in (*snapshots, t_end):
            while field.time < target:
                fill_ghosts(field, spec.boundaries, eos)
                prim, sweeps = recover_with_iterations(field.cells, eos, DEFAULT_OPTIONS, hint)
                dt = compute_dt(field, eos, config.cfl_sigma, config.alpha, prim)
                dt = min(dt, target - field.time)
                step(field, dt, assemble_fluxes(field, dt, eos, config, prim), config)
                hint = prim[..., physics.PRE]
                steps, sweeps_max = steps + 1, max(sweeps_max, sweeps)
            field.time = target
        assert np.array_equal(result.field.cells[GHOST:-GHOST, GHOST:-GHOST], field.interior)
        diagnostics = result.diagnostics
        assert (diagnostics.steps, diagnostics.recovery_sweeps_max) == (steps, sweeps_max)

    def test_deterministic(self):
        spec = problems.problem_by_name("rp2")
        grid = Grid(16, 16, -1.0, 1.0, -1.0, 1.0)
        a = run(spec, grid, SolverConfig(), t_end=0.1)
        b = run(spec, grid, SolverConfig(), t_end=0.1)
        assert np.array_equal(a.field.cells, b.field.cells)
        assert a.diagnostics.steps == b.diagnostics.steps

    def test_diagnostics_track_extremes(self):
        spec = problems.problem_by_name("rp2")
        grid = Grid(20, 20, -1.0, 1.0, -1.0, 1.0)
        result = run(spec, grid, SolverConfig(), t_end=0.2)
        diag = result.diagnostics
        assert diag.steps > 0
        assert 0.0 < diag.min_pressure <= 0.05
        assert diag.max_lorentz >= 1.0 / np.sqrt(1.0 - problems.RP2_VEL**2) - 0.2
        assert diag.recovery_sweeps_max >= 1
