import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_close, beam_numbers
from rhd2d import physics, problems
from rhd2d.errors import ConfigurationError
from rhd2d.mesh_solver import Field, Grid, Inflow
from rhd2d.problems import (
    convergence_orders,
    error_norms,
    explosion_init,
    jet_setup,
    problem_by_name,
    riemann_quadrant_init,
    sine_wave,
    symmetry_deviation,
    vortex,
)


class TestSineWave:
    def test_phase_zero(self):
        prim = sine_wave(0.0, 0.0, 0.0)
        assert prim[physics.RHO] == 1.0
        assert_close(prim[physics.VX], 0.99 / math.sqrt(2.0), rel=1e-15)
        assert prim[physics.PRE] == 0.01

    def test_peak(self):
        prim = sine_wave(0.0, 0.25, 0.0)
        assert_close(prim[physics.RHO], 1.99999, rel=1e-15)

    def test_trough_positive(self):
        # analytic minimum of the density profile
        prim = sine_wave(0.0, 0.75, 0.0)
        assert_close(prim[physics.RHO], 1.0e-5, rel=1e-9)
        assert prim[physics.RHO] > 0.0

    def test_advection_speed(self):
        a = sine_wave(0.0, 0.1, 0.2)
        b = sine_wave(1.0, 0.1 + 0.99 / math.sqrt(2.0), 0.2 + 0.99 / math.sqrt(2.0))
        assert_close(a[physics.RHO], b[physics.RHO], rel=1e-12)


class TestVortex:
    def test_strength_constant(self):
        assert abs(problems.VORTEX_ALPHA - 0.367878) < 1e-5

    def test_far_field(self):
        prim = vortex(0.0, 400.0, -400.0)
        assert_close(prim[physics.RHO], 1.0, rel=1e-12)
        assert_close(prim[physics.PRE], 1.0, rel=1e-12)
        assert_close(prim[physics.VX], -0.5, rel=1e-12)
        assert_close(prim[physics.VY], -0.5, rel=1e-12)

    def test_center_minima_bands(self):
        prim = vortex(0.0, 0.0, 0.0)
        assert 1e-15 <= prim[physics.RHO] <= 1e-13
        assert 1e-21 <= prim[physics.PRE] <= 1e-18

    @pytest.mark.parametrize("x, y", [(np.nan, 0.0), (0.0, np.array([0.0, np.nan]))])
    def test_non_finite_coordinate_rejected(self, x, y):
        """A NaN coordinate gives a NaN density base, which the positivity check rejects."""
        with pytest.raises(ConfigurationError, match="vortex density base is non-positive"):
            vortex(0.0, x, y)

    def test_isentropic(self, rng):
        x = rng.uniform(-4, 4, 50)
        y = rng.uniform(-4, 4, 50)
        prim = vortex(0.3, x, y)
        assert_close(prim[..., physics.PRE], prim[..., physics.RHO] ** 1.4, rel=1e-12)

    def test_solves_conservation_law(self, rng):
        """Fourth-order finite differences of the flux divergence vanish."""
        eos = physics.EosParams(1.4)
        h = 1e-5
        coeff = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        offset = np.array([-2 * h, -h, h, 2 * h])

        def cons(t, x, y):
            prim = vortex(t, np.asarray(x), np.asarray(y))
            return physics.prim_to_cons(prim, eos)

        def flux(t, x, y, axis):
            prim = vortex(t, np.asarray(x), np.asarray(y))
            return physics.physical_flux(prim, physics.prim_to_cons(prim, eos), axis)

        worst = 0.0
        for _ in range(25):
            t, x, y = rng.uniform(0, 2), rng.uniform(-3, 3), rng.uniform(-3, 3)
            residual = (
                sum(c * cons(t + o, x, y) for c, o in zip(coeff, offset))
                + sum(c * flux(t, x + o, y, 0) for c, o in zip(coeff, offset))
                + sum(c * flux(t, x, y + o, 1) for c, o in zip(coeff, offset))
            )
            scale = max(1.0, float(np.max(np.abs(cons(t, x, y)))))
            worst = max(worst, float(np.max(np.abs(residual))) / scale)
        assert worst < 1e-8

    def test_spot_values_against_independent_evaluation(self, rng):
        """The displayed closed forms, re-evaluated with scalar math."""
        g, w, eps_v = 1.4, 0.5 * math.sqrt(2.0), 10.0828
        alpha = (g - 1.0) * eps_v**2 / (8.0 * g * math.pi**2)
        gam = 1.0 / math.sqrt(1.0 - w * w)
        for _ in range(100):
            t, x, y = rng.uniform(0, 2), rng.uniform(-5, 5), rng.uniform(-5, 5)
            shift = 0.5 * (gam - 1.0) * (x + y) + gam * t * w / math.sqrt(2.0)
            x0, y0 = x + shift, y + shift
            r2 = x0 * x0 + y0 * y0
            bump = alpha * math.exp(1.0 - r2)
            rho = (1.0 - bump) ** (1.0 / (g - 1.0))
            beta = 2.0 * g * bump / (2.0 * g - 1.0 - g * bump)
            f = math.sqrt(beta / (1.0 + beta * r2))
            u0, v0 = -y0 * f, x0 * f
            den = 1.0 - w * (u0 + v0) / math.sqrt(2.0)
            common = -w / math.sqrt(2.0) + gam * w * w * (u0 + v0) / (2.0 * (gam + 1.0))
            expected = [rho, (u0 / gam + common) / den, (v0 / gam + common) / den, rho**g]
            assert_close(vortex(t, x, y), expected, rel=1e-12, abs_tol=1e-300)


class TestExplosion:
    def test_disc_values(self):
        assert explosion_init(0.0, 0.0)[physics.PRE] == 20.0
        assert explosion_init(0.3, 0.4)[physics.PRE] == 0.1   # r = 0.5
        assert explosion_init(0.1, 0.0)[physics.PRE] == 0.1   # boundary takes outer state
        assert explosion_init(0.0, 0.0)[physics.RHO] == 1.0


class TestRiemannQuadrants:
    def test_rp1_states(self):
        assert np.array_equal(riemann_quadrant_init("rp1", -0.5, 0.5), [0.1, 0.99, 0.0, 1.0])
        assert np.array_equal(riemann_quadrant_init("rp1", 0.5, 0.5), [0.1, 0.0, 0.0, 0.01])
        assert np.array_equal(riemann_quadrant_init("rp1", -0.5, -0.5), [0.5, 0.0, 0.0, 1.0])
        assert np.array_equal(riemann_quadrant_init("rp1", 0.5, -0.5), [0.1, 0.0, 0.99, 1.0])

    def test_rp2_states(self):
        got = riemann_quadrant_init("rp2", 0.5, -0.5)
        assert np.array_equal(got, [problems.RP2_RHO, 0.0, problems.RP2_VEL, 0.05])
        assert problems.RP2_RHO == 0.00414329639576
        assert problems.RP2_VEL == 0.9946418833556542

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            riemann_quadrant_init("rp3", 0.0, 0.0)


class TestJets:
    def test_hot_i(self):
        spec = jet_setup("hot", 0.99, 1.72)
        gam, mach = beam_numbers(spec)
        assert abs(gam - 7.0888) < 1e-3
        assert abs(mach - 9.971) < 1e-3 + 5e-4
        rho_b, _, _, p_b = spec.boundaries.bottom.state
        assert_close(p_b, 0.0039513523, rel=1e-6)
        assert spec.boundaries.left == "reflect"
        assert isinstance(spec.boundaries.bottom, Inflow)
        assert spec.boundaries.bottom.span == (-0.5, 0.5)
        assert (spec.y_max, rho_b) == (30.0, 0.01)

    def test_cold_domain_and_density(self):
        spec = jet_setup("cold", 0.99, 50.0)
        assert (spec.y_max, spec.boundaries.bottom.state[0]) == (25.0, 0.1)

    def test_all_six_configs_to_three_significant_figures(self):
        quoted = {
            "jet-hot-i": (7.089, 9.971),
            "jet-hot-ii": (22.366, 31.316),
            "jet-hot-iii": (70.712, 98.962),
            "jet-cold-i": (7.088, 354.371),
            "jet-cold-ii": (22.366, 1118.090),
            "jet-cold-iii": (70.712, 35356.152),
        }
        for name, (gam_ref, mach_ref) in quoted.items():
            gam, mach = beam_numbers(problem_by_name(name))
            assert abs(gam - gam_ref) / gam_ref < 5e-4, name
            assert abs(mach - mach_ref) / mach_ref < 5e-4, name

    def test_sonic_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            jet_setup("hot", 0.99, 1.2)  # c_s^2 would exceed Gamma - 1

    @pytest.mark.parametrize("args, message", [
        (("warm", 0.99, 1.72), "model"), (("hot", 0.0, 1.72), "speed"),
        (("hot", 1.0, 1.72), "speed"), (("cold", -0.5, 50.0), "speed"),
        (("hot", 0.99, 0.0), "Mach"), (("cold", 0.99, -50.0), "Mach"),
    ])
    def test_bad_parameters_rejected(self, args, message):
        with pytest.raises(ConfigurationError, match=message):
            jet_setup(*args)

    def test_pressure_matches_sound_speed(self):
        spec = jet_setup("hot", 0.99, 1.72)
        _, _, cs = physics.thermo(physics.primitive(*spec.boundaries.bottom.state), spec.eos)
        assert_close(cs, 0.99 / 1.72, rel=1e-12)


class TestRegistry:
    def test_all_problems_admissible_everywhere(self):
        for name in problems.problem_names():
            spec = problem_by_name(name)
            grid = spec.default_grid(16)
            field = Field.from_primitives(grid, spec.initial, spec.eos,
                                          average=spec.average_init)
            assert np.all(physics.is_admissible(field.interior)), name

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            problem_by_name("kelvin-helmholtz")

    @pytest.mark.parametrize("name", problems.problem_names())
    def test_states_are_planar(self, name):
        """Initial and exact states are (n_x, n_y, 4) arrays on a non-square grid,
        each component one C-contiguous plane, as `physics.stack_planes` builds them."""
        spec = problem_by_name(name)
        grid = Grid(7, 5, spec.x_min, spec.x_max, spec.y_min, spec.y_max)
        xs, ys = grid.centers_x()[:, None], grid.centers_y()[None, :]
        states = [spec.initial(xs, ys)]
        if spec.exact is not None:
            states.append(spec.exact(0.3, xs, ys))
        for state in states:
            assert state.shape == (7, 5, 4)
            assert all(state[..., k].flags.c_contiguous for k in range(4))

    def test_each_name_is_one_table_value(self):
        """A problem's name is its registry key; no spec carries a second one."""
        names = problems.problem_names()
        assert len(names) == 11
        assert all(problem_by_name(name) is problems._PROBLEMS[name] for name in names)
        assert "name" not in {f.name for f in dataclasses.fields(problems.ProblemSpec)}


class TestErrorNorms:
    def test_zero_for_exact_initialisation(self, eos53):
        spec = problems.problem_by_name("sine")
        grid = spec.default_grid(16)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        norms = error_norms(field, spec.eos, spec.exact)
        assert norms.l1 < 1e-13 and norms.l2 < 1e-13 and norms.linf < 1e-12

    def test_constant_offset(self, eos53):
        spec = problems.problem_by_name("sine")
        grid = spec.default_grid(16)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        offset = lambda t, x, y: spec.exact(t, x, y) + np.array([0.25, 0, 0, 0])
        norms = error_norms(field, spec.eos, offset)
        assert_close(norms.l1, 0.25, rel=1e-12)
        assert_close(norms.linf, 0.25, rel=1e-12)
        assert_close(norms.l2, 0.25, rel=1e-12)

    def test_homogeneity(self, eos53):
        spec = problems.problem_by_name("sine")
        grid = spec.default_grid(8)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        small = lambda t, x, y: spec.exact(t, x, y) + np.array([0.1, 0, 0, 0])
        big = lambda t, x, y: spec.exact(t, x, y) + np.array([0.3, 0, 0, 0])
        n_small = error_norms(field, spec.eos, small)
        n_big = error_norms(field, spec.eos, big)
        assert_close(n_big.l1, 3.0 * n_small.l1, rel=1e-12)

    def test_requires_exact(self, eos53):
        spec = problems.problem_by_name("rp1")
        grid = spec.default_grid(8)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        with pytest.raises(ConfigurationError):
            error_norms(field, spec.eos, None)


class TestConvergenceOrders:
    def test_exact_halving(self):
        assert_close(convergence_orders([0.4, 0.2, 0.1]), [1.0, 1.0], rel=1e-15)

    def test_tabulated_error_column(self):
        errors = [5.521e-2, 2.705e-2, 1.338e-2, 6.710e-3, 3.359e-3]
        orders = convergence_orders(errors)
        assert_close(orders, [1.029, 1.016, 0.996, 0.998], rel=2e-3)

    def test_single_entry(self):
        assert convergence_orders([0.5]) == []

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigurationError, match="non-positive errors"):
            convergence_orders([0.1, 0.0])


class TestSymmetryDeviation:
    def test_uniform_field_is_exactly_symmetric(self, eos53):
        grid = Grid(16, 16, -0.5, 0.5, -0.5, 0.5)
        field = Field.from_primitives(
            grid,
            lambda x, y: np.broadcast_to([1.0, 0.0, 0.0, 1.0],
                                         np.broadcast_shapes(x.shape, y.shape) + (4,)),
            eos53,
        )
        assert symmetry_deviation(field, eos53) == 0.0

    def test_linear_radial_profile(self, eos53):
        grid = Grid(32, 32, -0.5, 0.5, -0.5, 0.5)

        def init(x, y):
            r = np.sqrt(x * x + y * y)
            out = np.zeros(np.broadcast_shapes(x.shape, y.shape) + (4,))
            out[..., 0] = 1.0 + 0.5 * r
            out[..., 3] = 1.0
            return out

        field = Field.from_primitives(grid, init, eos53)
        # axis samples carry radius y while their true radius includes the
        # half-cell x offset, so only near-exactness is expected
        assert symmetry_deviation(field, eos53) < 1.5e-3

    def test_explosion_t0_bounded_by_jump(self, eos53):
        spec = problems.problem_by_name("explosion")
        grid = Grid(64, 64, -0.5, 0.5, -0.5, 0.5)
        field = Field.from_primitives(grid, spec.initial, spec.eos)
        # the density is uniform at t = 0; pressure staircase does not enter
        assert symmetry_deviation(field, eos53) <= 1e-14

    def test_requires_square_grid(self, eos53):
        grid = Grid(16, 8, -0.5, 0.5, -0.5, 0.5)
        field = Field.from_primitives(
            grid,
            lambda x, y: np.broadcast_to([1.0, 0.0, 0.0, 1.0],
                                         np.broadcast_shapes(x.shape, y.shape) + (4,)),
            eos53,
        )
        with pytest.raises(ConfigurationError):
            symmetry_deviation(field, eos53)

    def test_requires_diagonal_cells_on_y_equals_x(self, eos53):
        grid = Grid(16, 16, -0.5, 0.5, 0.0, 1.0)  # dx = dy, but the cells (i, i) lie on y = x + 0.5
        field = Field.from_primitives(
            grid,
            lambda x, y: np.broadcast_to([1.0, 0.0, 0.0, 1.0],
                                         np.broadcast_shapes(x.shape, y.shape) + (4,)),
            eos53,
        )
        with pytest.raises(ConfigurationError, match="x_min = y_min"):
            symmetry_deviation(field, eos53)
