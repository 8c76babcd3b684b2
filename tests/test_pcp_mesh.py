"""Mesh-level PCP suite: one step on random admissible meshes stays admissible.

The point-wise suites in `rhd2d.verification` check the Riemann fans one
at a time; this one checks the assembled update, in both modes at the
guaranteed setting alpha = 2, sigma = 0.45, on meshes of random
admissible states.  Two checks:

  - admissibility: after one step every cell is admissible, on square
    periodic meshes, on periodic meshes with dx/dy = 4 and 1/4, and on
    the two jets' meshes, whose ghost rules (reflect, outflow and the
    inflow beam) join the step;
  - a certificate that needs only the speeds.  For fixed speeds and dt one
    step is linear in the 3x3 stencil,
        U_new = sum_k a_k U_k + b_k F_k + c_k G_k,
    with scalar weights.  As a U - F and F - b U are admissible for
    a >= lam4 and b <= lam1 (the flux-closure lemmas the admissible-set
    suite samples), U_new is a positive combination of admissible states
    when a_k >= cost_x(b_k) + cost_y(c_k) for every stencil cell k, where
    cost(b) = -b max(lam4, 0) for b < 0 and b max(-lam1, 0) for b > 0 with
    cell k's own eigenvalues.  The condition is sufficient, not necessary.

The weights come from 27 linear runs of `assemble_fluxes` + `step` on an
18x18 periodic mesh: each puts an indicator on one of the 9 colour classes
(i mod 3, j mod 3) as U, F or G, with `physical_flux` replaced by the
indicator arrays and the real state's primitives passed in (they give the
speeds), so every cell sees exactly one coloured cell per stencil offset.
"""

import numpy as np
import pytest

import oracles
from rhd2d import mesh_solver, physics
from rhd2d.mesh_solver import (
    MODES,
    Field,
    Grid,
    SolverConfig,
    assemble_fluxes,
    compute_dt,
    fill_ghosts,
    periodic_boundaries,
    step,
)
from rhd2d.physics import EosParams, extreme_speeds, is_admissible
from rhd2d.problems import problem_by_name
from rhd2d.recovery import recover_with_iterations
from rhd2d.riemann import hll_coefficients

EOS = EosParams(5.0 / 3.0)
SIGMA = 0.45
ROUND_OFF = 1e-12  # the weights are dimensionless and of order one


def reproduction_states(rng, n):
    return oracles.whole_primitives(
        rng, n, rho_decades=(-0.5, 0.5), gamma_cap=10.0, p_min=1e-2, p_max_decade=1.0
    )


def drifting_states(rng, n):
    """Six decades of density, pressures down to 1e-6 and u_x >= 0: about
    four in five cells have lam1 > 0 along x, so many fans are one-signed."""
    prim = oracles.whole_primitives(
        rng, n, rho_decades=(-3.0, 3.0), gamma_cap=100.0, p_min=1e-6, p_max_decade=1.0
    )
    prim[..., physics.VX] = np.abs(prim[..., physics.VX])
    return prim


FAMILIES = {"reproduction": reproduction_states, "drifting": drifting_states}


def ghosted_mesh(states, grid, boundaries):
    """Ghost-filled field, its recovered primitives and their extreme speeds."""
    field = Field.from_primitives(grid, lambda x, y: states.reshape(grid.n_x, grid.n_y, 4), EOS)
    fill_ghosts(field, boundaries, EOS)
    prim, _ = recover_with_iterations(field.cells, EOS)
    return field, prim, extreme_speeds(prim, EOS)


def periodic_mesh(states, n):
    return ghosted_mesh(states, Grid(n, n, 0.0, 1.0, 0.0, 1.0), periodic_boundaries())


def step_once(field, prim, dt, mode):
    """One step in place, audit off so every inadmissible cell is counted."""
    config = SolverConfig(mode=mode, pcp_audit=False)
    step(field, dt, assemble_fluxes(field, dt, EOS, config, prim), config)
    return ~is_admissible(field.interior)


def stencil_weights(field, prim, dt, mode, monkeypatch):
    """(a, b, c) of shape (3, 3, n, n): the weight of stencil offset
    (di, dj) in (-1, 0, 1)^2, at index (di + 1, dj + 1), in each cell's update."""
    n = field.grid.n_x
    assert n % 3 == 0 and field.grid.n_y == n
    colour = np.arange(-1, n + 1) % 3  # of each ghosted row; periodic ghosts agree
    cells = np.arange(n)
    zero = np.zeros_like(field.cells)
    weights = np.zeros((3, 3, 3, n, n))
    for ci in range(3):
        for cj in range(3):
            indicator = np.zeros_like(field.cells)
            indicator[(colour[:, None] == ci) & (colour[None, :] == cj)] = 1.0
            # the coloured cell's offset, plus one, in each cell's stencil
            di = (ci - cells + 1) % 3
            dj = (cj - cells + 1) % 3
            for role in range(3):  # U, F, G
                fluxes = (indicator if role == 1 else zero, indicator if role == 2 else zero)
                monkeypatch.setattr(
                    mesh_solver, "physical_flux", lambda p, u, axis: fluxes[axis].copy()
                )
                probe = Field(field.grid, (indicator if role == 0 else zero).copy())
                step_once(probe, prim, dt, mode)
                weights[role, di[:, None], dj[None, :], cells[:, None], cells[None, :]] = (
                    probe.interior[..., 0]
                )
    monkeypatch.undo()
    return weights


def certificate_slack(weights, speeds):
    """Per cell, min over its stencil of a_k - cost_x(b_k) - cost_y(c_k)."""
    a, b, c = weights
    n = a.shape[-1]

    def on_stencil(cell_values):
        return np.array(
            [[cell_values[1 + di : 1 + di + n, 1 + dj : 1 + dj + n] for dj in (-1, 0, 1)]
             for di in (-1, 0, 1)]
        )

    def cost(weight, lam1, lam4):
        lam1, lam4 = on_stencil(lam1), on_stencil(lam4)
        return np.where(weight < 0.0, -weight * np.maximum(lam4, 0.0),
                        weight * np.maximum(-lam1, 0.0))

    (lam1_x, lam4_x), (lam1_y, lam4_y) = speeds
    slack = a - cost(b, lam1_x, lam4_x) - cost(c, lam1_y, lam4_y)
    return slack.min(axis=(0, 1))


def failing_meshes(mode, family, meshes, grid, boundaries, sigma):
    """(trial, inadmissible cells) of each of `meshes` random meshes that
    one step at `sigma` leaves with an inadmissible cell."""
    rng = np.random.default_rng(7)  # one stream shared by all meshes
    failing = []
    for trial in range(meshes):
        field, prim, _ = ghosted_mesh(FAMILIES[family](rng, grid.n_x * grid.n_y), grid,
                                      boundaries)
        dt = compute_dt(field, EOS, sigma, 2.0, prim)
        bad = int(np.sum(step_once(field, prim, dt, mode)))
        if bad:
            failing.append((trial, bad))
    return failing


JETS = ("jet-hot-i", "jet-cold-iii")  # 12x30 and 12x25: reflect, outflow and the inflow beam
MESHES = [
    pytest.param("reproduction", 400, Grid(16, 16, 0.0, 1.0, 0.0, 1.0), periodic_boundaries(),
                 id="reproduction"),
    pytest.param("drifting", 100, Grid(18, 18, 0.0, 1.0, 0.0, 1.0), periodic_boundaries(),
                 id="drifting"),
    *[pytest.param(family, 60, Grid(16, 16, 0.0, 1.0, 0.0, 1.0 / ratio), periodic_boundaries(),
                   id=f"{family}-{cells}")
      for ratio, cells in ((4.0, "dx=4dy"), (0.25, "dy=4dx")) for family in FAMILIES],
    *[pytest.param(family, 60, problem_by_name(jet).default_grid(12),
                   problem_by_name(jet).boundaries, id=f"{family}-{jet}")
      for jet in JETS for family in FAMILIES],
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family, meshes, grid, boundaries", MESHES)
def test_one_step_keeps_every_cell_admissible(mode, family, meshes, grid, boundaries):
    failing = failing_meshes(mode, family, meshes, grid, boundaries, SIGMA)
    assert not failing, f"{len(failing)} of {meshes} meshes left cells inadmissible: {failing[:5]}"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("jet", JETS)
def test_jet_meshes_break_the_split_step_past_the_bound(jet, family):
    """The jet cases above are not vacuous: at sigma 0.75 the split step
    leaves inadmissible cells on 54 to 60 of the 60 meshes of each."""
    spec = problem_by_name(jet)
    failing = failing_meshes("dimension_split", family, 60, spec.default_grid(12),
                             spec.boundaries, 0.75)
    assert len(failing) >= 30, f"only {len(failing)} of 60 meshes failed"


@pytest.mark.parametrize("mode", MODES)
def test_certificate(mode, monkeypatch):
    failures = {}
    for family, draw in FAMILIES.items():
        for sigma in (SIGMA, 0.75):
            rng = np.random.default_rng(11)
            failures[family, sigma] = 0
            for _ in range(20):
                field, prim, speeds = periodic_mesh(draw(rng, 18 * 18), 18)
                dt = compute_dt(field, EOS, sigma, 2.0, prim)
                weights = stencil_weights(field, prim, dt, mode, monkeypatch)
                a, b, c = weights.sum(axis=(1, 2))
                assert np.max(np.abs(a - 1.0)) <= ROUND_OFF
                assert np.max(np.abs(b)) <= ROUND_OFF and np.max(np.abs(c)) <= ROUND_OFF

                certified = certificate_slack(weights, speeds) >= -ROUND_OFF
                inadmissible = step_once(field, prim, dt, mode)
                assert not np.any(inadmissible & certified), "an inadmissible cell was certified"
                failures[family, sigma] += int(np.sum(~certified))
    assert failures["reproduction", SIGMA] == 0 and failures["drifting", SIGMA] == 0, failures
    # the check is not vacuous: past the CFL bound it fails
    assert failures["reproduction", 0.75] + failures["drifting", 0.75] > 0, failures


@pytest.mark.parametrize("mode", MODES)
def test_fan_speeds_within_the_time_step_bound(mode, monkeypatch):
    """Every face and corner fan speed is at most alpha times the fastest
    cell's speed along its axis, the step of the argument that makes
    compute_dt's bound (the audit's, at sigma = 1) keep every composite
    weight non-negative."""
    fans = []

    def recorded(s_minus, s_plus):
        fans.append(np.maximum(-s_minus, s_plus).max())
        return hll_coefficients(s_minus, s_plus)

    monkeypatch.setattr(mesh_solver, "hll_coefficients", recorded)
    for draw in FAMILIES.values():
        rng = np.random.default_rng(11)
        for _ in range(20):
            field, prim, speeds = periodic_mesh(draw(rng, 18 * 18), 18)
            dt = compute_dt(field, EOS, 1.0, 2.0, prim)
            fans.clear()
            assemble_fluxes(field, dt, EOS, SolverConfig(mode=mode), prim)
            per_axis = len(fans) // 2  # the face fan, then in multidimensional mode the corners
            assert len(fans) == (4 if mode == "multidimensional" else 2)
            for axis, (lam1, lam4) in enumerate(speeds):
                fastest = 2.0 * max(lam4.max(), -lam1.min())
                assert max(fans[axis * per_axis:(axis + 1) * per_axis]) <= fastest
