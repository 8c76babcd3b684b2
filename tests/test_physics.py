import numpy as np
import pytest

import oracles
from conftest import assert_close
from rhd2d import physics, problems, verification
from rhd2d.errors import ConfigurationError, SuperluminalError
from rhd2d.mesh_solver import Field, Grid, fill_ghosts
from rhd2d.physics import EosParams
from rhd2d.recovery import recover_with_iterations


class TestLorentzFactor:
    def test_rest_state(self):
        assert physics.lorentz_factor(0.0, 0.0) == 1.0

    def test_fast_flow(self):
        # oracle: 1/sqrt(1 - 0.99^2) evaluated at 50 digits
        assert_close(physics.lorentz_factor(0.99, 0.0), 7.0888120500833558754, rel=1e-15)
        assert_close(
            physics.lorentz_factor(0.99, 0.0), float(oracles.lorentz(0.99, 0.0)), rel=1e-15
        )

    def test_light_speed_rejected(self):
        with pytest.raises(SuperluminalError) as err:
            physics.lorentz_factor(0.6, 0.8)
        assert err.value.speed_sq >= 1.0

    def test_vector_input(self):
        gam = physics.lorentz_factor(np.array([0.0, 0.5]), np.array([0.0, 0.0]))
        assert gam.shape == (2,)
        assert gam[0] == 1.0 and gam[1] > 1.0


class TestThermo:
    def test_reference_point(self, eos53):
        e, h, cs = physics.thermo(physics.primitive(1.0, 0.0, 0.0, 1.0), eos53)
        assert_close(e, 1.5, rel=1e-15)
        assert_close(h, 3.5, rel=1e-15)
        assert_close(cs, 0.6900655593423542178, rel=1e-15)

    def test_pressureless_limit(self, eos53):
        _, _, cs = physics.thermo(physics.primitive(1.0, 0.0, 0.0, 1e-30), eos53)
        assert cs < 1e-14

    @pytest.mark.parametrize("gamma", [1.1, 4.0 / 3.0, 5.0 / 3.0, 2.0])
    def test_sound_speed_bound(self, rng, gamma):
        eos = EosParams(gamma)
        prim = oracles.whole_primitives(rng, 10_000)
        _, _, cs = physics.thermo(prim, eos)
        assert np.all(cs * cs < gamma - 1.0)


class TestValidation:
    @pytest.mark.parametrize("gamma", [1.0, 0.5, 2.000001, np.nan])
    def test_adiabatic_index_outside_the_range(self, gamma):
        with pytest.raises(ConfigurationError, match="adiabatic index"):
            EosParams(gamma)

    @pytest.mark.parametrize("rho, p, what", [(0.0, 1.0, "density"), (-1.0, 1.0, "density"),
                                               (1.0, 0.0, "pressure"), (1.0, -1e-30, "pressure")])
    def test_primitive_needs_positive_density_and_pressure(self, rho, p, what):
        with pytest.raises(ConfigurationError, match=what):
            physics.primitive(rho, 0.0, 0.0, p)


class TestPrimToCons:
    def test_rest_state_exact(self, eos53):
        cons = physics.prim_to_cons(physics.primitive(1.0, 0.0, 0.0, 1.0), eos53)
        assert np.array_equal(cons, [1.0, 0.0, 0.0, 2.5])

    def test_fast_flow_oracle(self, eos53):
        cons = physics.prim_to_cons(physics.primitive(0.1, 0.99, 0.0, 1.0), eos53)
        expected = [float(v) for v in oracles.prim_to_cons((0.1, 0.99, 0.0, 1.0), eos53.gamma_adiabatic)]
        assert_close(cons, expected, rel=1e-14)
        assert_close(cons, [0.70888120500833563, 129.34673366834159, 0.0, 129.65326633165818], rel=1e-14)

    def test_momentum_velocity_relation(self, rng, eos53):
        prim = oracles.whole_primitives(rng, 5_000)
        cons = physics.prim_to_cons(prim, eos53)
        lhs = cons[:, physics.MOMX]
        rhs = (cons[:, physics.ENE] + prim[:, physics.PRE]) * prim[:, physics.VX]
        assert_close(lhs, rhs, rel=1e-12, abs_tol=1e-300)

    def test_always_admissible(self, rng, eos53):
        prim = oracles.whole_primitives(rng, 10_000)
        assert np.all(physics.is_admissible(physics.prim_to_cons(prim, eos53)))


class TestPhysicalFlux:
    def test_rest_state_axes(self, eos53):
        prim = physics.primitive(1.0, 0.0, 0.0, 1.0)
        cons = physics.prim_to_cons(prim, eos53)
        assert np.array_equal(physics.physical_flux(prim, cons, 0), [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(physics.physical_flux(prim, cons, 1), [0.0, 0.0, 1.0, 0.0])

    def test_moving_state_oracle(self, eos53):
        prim = physics.primitive(0.1, 0.99, 0.0, 1.0)
        cons = physics.prim_to_cons(prim, eos53)
        expected = [float(v) for v in oracles.flux((0.1, 0.99, 0.0, 1.0), eos53.gamma_adiabatic, 0)]
        assert_close(physics.physical_flux(prim, cons, 0), expected, rel=1e-14, abs_tol=1e-300)

    def test_bad_axis(self, eos53):
        prim = physics.primitive(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="axis must be 0"):
            physics.physical_flux(prim, physics.prim_to_cons(prim, eos53), 2)


class TestEigenvalues:
    def test_rest_state_exact(self, eos53):
        prim = physics.primitive(1.0, 0.0, 0.0, 1.0)
        lam = physics.eigenvalues(prim, eos53, 0)
        _, _, cs = physics.thermo(prim, eos53)
        assert lam.lam1 == -cs and lam.lam4 == cs

    def test_transverse_symmetry(self, eos53):
        prim = physics.primitive(1.0, 0.5, 0.0, 1.0)
        lam = physics.eigenvalues(prim, eos53, 1)
        assert lam.lam1 == -lam.lam4

    def test_oracle_value(self, eos53):
        prim = (0.3, 0.6, -0.45, 2.0)
        lam = physics.eigenvalues(physics.primitive(*prim), eos53, 0)
        expected = oracles.eigenvalues(prim, eos53.gamma_adiabatic, 0)
        assert_close(lam.lam1, float(expected[0]), rel=1e-14)
        assert_close(lam.lam4, float(expected[3]), rel=1e-14)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_bad_axis(self, eos53, axis):
        """-1 would otherwise index the y pair of `extreme_speeds`."""
        with pytest.raises(ConfigurationError, match="axis must be 0"):
            physics.eigenvalues(physics.primitive(1.0, 0.5, 0.0, 1.0), eos53, axis)

    def test_bracketing_and_causality(self, rng, eos53):
        prim = oracles.whole_primitives(rng, 10_000)
        for axis in (0, 1):
            lam = physics.eigenvalues(prim, eos53, axis)
            u_n = prim[:, physics.VX + axis]
            assert np.all(lam.lam1 < u_n) and np.all(u_n < lam.lam4)
            assert np.all(np.abs(lam.lam1) < 1.0) and np.all(np.abs(lam.lam4) < 1.0)


class TestExtremeSpeeds:
    """`eigenvalues` is the per-axis view of `extreme_speeds`; the formula meets the oracle."""

    @staticmethod
    def assert_matches_eigenvalues(prim, eos):
        both = physics.extreme_speeds(prim, eos)
        for axis, (lam1, lam4) in enumerate(both):
            lam = physics.eigenvalues(prim, eos, axis)
            assert np.array_equal(lam1, lam.lam1) and np.array_equal(lam4, lam.lam4)

    def test_bitwise_on_sampled_states(self, rng, eos53):
        for cap in (1.5, 10.0, 100.0):
            prim = oracles.whole_primitives(rng, 20_000, gamma_cap=cap)
            self.assert_matches_eigenvalues(prim, eos53)

    def test_bitwise_on_ghosted_rp2_mesh(self):
        spec = problems.problem_by_name("rp2")
        field = Field.from_primitives(Grid(32, 32, -1.0, 1.0, -1.0, 1.0), spec.initial, spec.eos)
        fill_ghosts(field, spec.boundaries, spec.eos)
        prim, _ = recover_with_iterations(field.cells, spec.eos)
        self.assert_matches_eigenvalues(prim, spec.eos)

    def test_oracle_on_sampled_states(self, eos53):
        """Both axes within 4 eps gamma of the 50-digit oracle.

        Rounding 1 - |u|^2 costs about eps gamma^2 relative, which the factor
        c_s / gamma brings to about eps gamma absolute.  With seed 3 the worst
        error read 1.9 eps gamma (4.4e-16 at gamma <= 1.5, 5.6e-16 at 10,
        5.2e-15 at 100 and 4.1e-13 uncapped, where gamma reaches 7e3).
        """
        rng = np.random.default_rng(3)
        for cap in (1.5, 10.0, 100.0, None):
            prim = oracles.whole_primitives(rng, 300, gamma_cap=cap)
            tolerance = 4.0 * np.finfo(float).eps * physics.lorentz_factor(prim[:, 1], prim[:, 2])
            for axis, (lam1, lam4) in enumerate(physics.extreme_speeds(prim, eos53)):
                expected = np.array([[float(v) for v in oracles.eigenvalues(
                    state, eos53.gamma_adiabatic, axis)] for state in prim])
                assert np.all(np.abs(lam1 - expected[:, 0]) <= tolerance), (cap, axis)
                assert np.all(np.abs(lam4 - expected[:, 3]) <= tolerance), (cap, axis)

    def test_superluminal_rejected(self, eos53):
        with pytest.raises(SuperluminalError):
            physics.extreme_speeds(np.array([1.0, 0.8, 0.7, 1.0]), eos53)


class TestAdmissibility:
    def test_examples(self):
        assert physics.is_admissible(np.array([1.0, 0.0, 0.0, 2.5]))
        assert not physics.is_admissible(np.array([1.0, 3.0, 0.0, 2.0]))
        # zero margin fails the strict inequality
        assert not physics.is_admissible(np.array([1.0, 0.0, 0.0, 1.0]))
        assert not physics.is_admissible(np.array([-1.0, 0.0, 0.0, 2.5]))

    def test_margin_values(self):
        mass, margin = physics.admissibility_margin(np.array([1.0, 3.0, 0.0, 2.0]))
        assert mass == 1.0
        assert_close(margin, 2.0 - np.sqrt(10.0), rel=1e-15)

    def test_cancellation_safe_for_fast_flows(self, eos53):
        # naive evaluation loses the sign of the margin here
        prim = physics.primitive(1e-6, 1.0 - 1e-8, 0.0, 1e-10)
        cons = physics.prim_to_cons(prim, eos53)
        assert physics.is_admissible(cons)

    def test_scale_sweep(self, eos53):
        """rho, v = (0, -0.5), p = 0.3 rho: the squares leave float range at
        both ends of the sweep, and neither the predicate nor the margin
        may depend on that."""

        def state(rho):
            return physics.prim_to_cons(physics.primitive(rho, 0.0, -0.5, 0.3 * rho), eos53)

        unit = state(1.0)
        ratio = physics.admissibility_margin(unit)[1] / unit[physics.ENE]
        for rho in (1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e160, 1e300):
            cons = state(rho)
            assert physics.is_admissible(cons), rho
            mass, margin = physics.admissibility_margin(cons)
            assert mass == cons[physics.DEN]
            assert_close(margin / cons[physics.ENE], ratio, rel=1e-13)
            # the same state with E just below sqrt(D^2 + |m|^2) is not admissible
            below = cons.copy()
            below[physics.ENE] = np.hypot(cons[physics.DEN], cons[physics.MOMY]) * (1.0 - 1e-12)
            assert not physics.is_admissible(below), rho


def reference_admissible(cons):
    """The compensated predicate on every lane, without the certified filter."""
    cons = np.asarray(cons, dtype=float)
    quad = physics._admissibility_quadratic(cons)
    return (cons[..., physics.DEN] > 0.0) & (cons[..., physics.ENE] > 0.0) & (quad > 0.0)


class TestCertifiedAdmissibility:
    """is_admissible's plain-float filter returns the compensated booleans."""

    def assert_matches_reference(self, cons):
        with np.errstate(all="ignore"):  # overflow and inf - inf are part of the cases
            got = physics.is_admissible(cons)
            want = reference_admissible(cons)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_verification_samplers(self, rng, eos53):
        n = 20_000
        prim = oracles.whole_primitives(rng, n)
        cons = physics.prim_to_cons(prim, eos53)
        self.assert_matches_reference(cons)
        self.assert_matches_reference(10.0 ** rng.uniform(-6.0, 6.0, n)[:, None] * cons)
        prim_b = oracles.whole_primitives(
            rng, n, gamma_cap=verification.BOUNDARY_GAMMA_CAP,
            guard=verification.BOUNDARY_GUARD,
        )
        cons_b = physics.prim_to_cons(prim_b, eos53)
        for axis in (0, 1):
            lam = physics.eigenvalues(prim_b, eos53, axis)
            flux = physics.physical_flux(prim_b, cons_b, axis)
            self.assert_matches_reference(lam.lam4[:, None] * cons_b - flux)
            self.assert_matches_reference(flux - lam.lam1[:, None] * cons_b)
            # one ulp either side of the extreme eigenvalue
            for speed in (np.nextafter(lam.lam4, 2.0), np.nextafter(lam.lam4, -2.0)):
                self.assert_matches_reference(speed[:, None] * cons_b - flux)

    # the second range puts the squares among the subnormals
    @pytest.mark.parametrize("decades", [(-8.0, 8.0), (-163.0, -158.0)])
    def test_near_boundary_perturbations(self, rng, decades):
        n = 20_000
        dens = 10.0 ** rng.uniform(*decades, n)
        mom = dens * 10.0 ** rng.uniform(-3.0, 3.0, n)
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        edge = np.hypot(dens, mom)
        ulps = rng.integers(-20, 21, n)
        energy = edge * (1.0 + ulps * np.finfo(float).eps)
        cons = np.stack([dens, mom * np.cos(angle), mom * np.sin(angle), energy], axis=-1)
        self.assert_matches_reference(cons)

    def test_special_values(self):
        tiny = np.finfo(float).smallest_subnormal
        inf, nan = np.inf, np.nan
        cons = np.array([
            # exact zero margins: E^2 = D^2 + |m|^2
            [1.0, 0.0, 0.0, 1.0], [3.0, 4.0, 0.0, 5.0], [1.0, 2.0, 2.0, 3.0], [0.0, 3.0, 4.0, 5.0],
            [3e-150, 4e-150, 0.0, 5e-150], [3e100, 0.0, -4e100, 5e100],
            # subnormal and underflowing components
            [tiny, 0.0, 0.0, 2.0 * tiny], [1e-310, 0.0, 0.0, 2e-310], [1e-160, 1e-161, 0.0, 2e-160],
            [1e-155, 0.0, 0.0, 1e-154], [1e-300, 1e-300, -1e-300, 1e-299], [1e-200, 0.0, 0.0, 1.0],
            # overflowing squares
            [1e160, 0.0, 0.0, 2e160], [1e200, 1e199, 0.0, 1e201], [1.0, 0.0, 0.0, 1e170],
            [1e155, 1e155, 0.0, 1.5e155], [1e154, 1e154, 1e154, 1.8e154], [1e300, 0.0, 0.0, 1e301],
            [1.0, 1e160, 0.0, 1e160],
            # infinities and NaN
            [inf, 0.0, 0.0, inf], [1.0, 0.0, 0.0, inf], [1.0, inf, 0.0, inf], [1.0, 0.0, 0.0, -inf],
            [-inf, 0.0, 0.0, 1.0], [nan, 0.0, 0.0, 2.0], [1.0, nan, 0.0, 2.0], [1.0, 0.0, 0.0, nan],
            # signs and signed zeros
            [-0.0, 0.0, 0.0, 1.0], [1.0, -0.0, -0.0, 2.0], [1.0, 0.0, 0.0, -2.0], [0.0, 0.0, 0.0, 0.0],
        ])
        self.assert_matches_reference(cons)
        for row in cons:
            self.assert_matches_reference(row)

    def test_shapes(self, rng, eos53):
        cons = physics.prim_to_cons(
            oracles.whole_primitives(rng, 24), eos53
        ).reshape(4, 6, 4)
        cons[0, 0] = [1.0, 0.0, 0.0, 1.0]  # a lane the filter cannot decide
        single = physics.is_admissible(cons[1, 2])
        assert np.ndim(single) == 0 and bool(single) == bool(reference_admissible(cons[1, 2]))
        assert not physics.is_admissible(cons[0, 0])
        self.assert_matches_reference(cons)
        self.assert_matches_reference(cons.reshape(-1, 4))
        self.assert_matches_reference(cons[1:3, ::2])  # strided view, as a mesh interior
        self.assert_matches_reference(np.asfortranarray(cons))

    def test_uncertain_lanes_of_any_layout(self, rng, eos53, monkeypatch):
        """Only the lanes the filter cannot decide reach the compensated
        reference, gathered in place: a non-contiguous interior and a planar
        array (each component one contiguous plane) that mix certain and
        uncertain lanes give the reference booleans."""
        cons = physics.prim_to_cons(oracles.whole_primitives(rng, 9 * 8), eos53)
        cons = np.ascontiguousarray(cons).reshape(9, 8, 4)
        cons[::2, ::3] = [3.0, 4.0, 0.0, 5.0]  # zero margin, which the filter cannot decide
        planar = physics.stack_planes([cons[..., k] for k in range(4)])
        assert np.array_equal(planar, cons) and planar[..., 0].flags.c_contiguous
        quadratic = physics._admissibility_quadratic
        for layout in (cons[1:-1, 1:-1], planar, planar[1:-1, 1:-1]):
            assert not layout.flags.c_contiguous
            gathered = []
            monkeypatch.setattr(physics, "_admissibility_quadratic",
                                lambda lanes: gathered.append(lanes.shape) or quadratic(lanes))
            got = physics.is_admissible(layout)
            monkeypatch.undo()
            lanes = layout.shape[0] * layout.shape[1]
            assert len(gathered) == 1 and 0 < gathered[0][0] < lanes and gathered[0][1:] == (4,)
            assert np.array_equal(got, reference_admissible(layout))
            assert not np.all(got)


class TestAdmissibleSetProperties:
    """Closure of the admissible set, at reduced sample count (the acceptance
    suite reruns these at 1e5)."""

    def test_all_suites_pass(self, rng):
        for result in verification.admissible_set_suite(rng, 10_000):
            assert result.passed, result.line()
