import numpy as np
import pytest

import oracles
from conftest import assert_close
from rhd2d import physics, verification
from rhd2d.errors import AdmissibilityError, RecoveryConvergenceError
from rhd2d.recovery import RecoveryOptions, recover_primitives, recover_with_iterations


def roundtrip_error(prim, eos):
    cons = physics.prim_to_cons(prim, eos)
    back = recover_primitives(cons, eos)
    scale = np.maximum(np.abs(prim), np.finfo(float).tiny)
    return np.max(np.abs(back - prim) / scale)


class TestOptions:
    def test_defaults(self):
        opts = RecoveryOptions()
        assert opts.rel_tolerance == 1e-12
        assert opts.max_iterations == 100
        assert opts.pressure_floor == 1e-30

    @pytest.mark.parametrize(
        "kwargs", [{"rel_tolerance": 0.0}, {"max_iterations": 0}, {"pressure_floor": -1.0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryOptions(**kwargs)


class TestRecovery:
    def test_rest_state_exact(self, eos53):
        prim = recover_primitives(np.array([1.0, 0.0, 0.0, 2.5]), eos53)
        assert np.array_equal(prim, [1.0, 0.0, 0.0, 1.0])

    def test_fast_flow(self, eos53):
        prim = physics.primitive(0.1, 0.99, 0.0, 1.0)
        assert roundtrip_error(prim, eos53) <= 1e-10

    def test_ultra_relativistic_near_vacuum(self, eos53):
        prim = physics.primitive(1e-8, 0.9999, 0.0, 1e-10)
        assert roundtrip_error(prim, eos53) <= 1e-8

    def test_against_high_precision_root(self, eos53):
        cons = physics.prim_to_cons(physics.primitive(0.7, 0.6, -0.5, 0.3), eos53)
        p_ref = float(oracles.pressure_root([float(v) for v in cons], eos53.gamma_adiabatic))
        prim = recover_primitives(cons, eos53)
        assert_close(prim[physics.PRE], p_ref, rel=1e-12)

    def test_forward_map_closure(self, rng, eos53):
        """prim_to_cons(recover(cons)) reproduces cons to 10x the tolerance."""
        prim = verification.sample_primitives(rng, 5_000, eos=eos53, gamma_cap=100.0,
                                              guard=verification.RECOVERY_GUARD)
        cons = physics.prim_to_cons(prim, eos53)
        again = physics.prim_to_cons(recover_primitives(cons, eos53), eos53)
        scale = np.maximum(np.max(np.abs(cons), axis=-1, keepdims=True), 1e-300)
        assert np.max(np.abs(again - cons) / scale) <= 1e-11

    def test_velocity_from_momentum(self, rng, eos53):
        prim = verification.sample_primitives(rng, 2_000, eos=eos53, gamma_cap=50.0,
                                              guard=verification.RECOVERY_GUARD)
        cons = physics.prim_to_cons(prim, eos53)
        back = recover_primitives(cons, eos53)
        w = cons[:, physics.ENE] + back[:, physics.PRE]
        assert_close(back[:, physics.VX], cons[:, physics.MOMX] / w, rel=1e-14, abs_tol=1e-300)

    def test_hint_matches_cold_start(self, rng, eos53):
        prim = verification.sample_primitives(rng, 2_000, eos=eos53, gamma_cap=50.0,
                                              guard=verification.RECOVERY_GUARD)
        cons = physics.prim_to_cons(prim, eos53)
        cold = recover_primitives(cons, eos53)
        hinted = recover_primitives(cons, eos53, pressure_hint=prim[:, physics.PRE])
        assert_close(hinted, cold, rel=1e-9, abs_tol=1e-300)

    def test_non_admissible_rejected(self, eos53):
        with pytest.raises(AdmissibilityError) as err:
            recover_primitives(np.array([1.0, 3.0, 0.0, 2.0]), eos53)
        assert err.value.margin < 0

    def test_iteration_budget_enforced(self, eos53):
        cons = physics.prim_to_cons(physics.primitive(0.1, 0.9, 0.2, 0.5), eos53)
        opts = RecoveryOptions(rel_tolerance=1e-12, max_iterations=1)
        with pytest.raises(RecoveryConvergenceError) as err:
            recover_primitives(cons, eos53, opts)
        assert err.value.bracket is not None

    def test_iterations_reported(self, eos53):
        cons = physics.prim_to_cons(physics.primitive(0.1, 0.9, 0.2, 0.5), eos53)
        _, iterations = recover_with_iterations(cons, eos53)
        assert 1 <= iterations <= 100


class TestLaneIndependence:
    """A batch recovers each lane exactly as that lane recovers on its own."""

    @pytest.fixture
    def mixed_batch(self, rng, eos53):
        prim = verification.sample_primitives(rng, 120, eos=eos53, gamma_cap=100.0,
                                              guard=verification.RECOVERY_GUARD)
        prim[::17, 1:3] = 0.0  # zero momentum: an endpoint of the bracket is the root
        return prim, physics.prim_to_cons(prim, eos53)

    @pytest.mark.parametrize("hinted", [False, True])
    def test_batch_equals_single_lanes(self, mixed_batch, rng, eos53, hinted):
        prim, cons = mixed_batch
        hint = prim[:, physics.PRE] * (1.0 + 0.3 * rng.standard_normal(len(prim)))
        hint[::11] = np.nan
        hint = hint if hinted else None
        batch, sweeps = recover_with_iterations(cons, eos53, pressure_hint=hint)
        singles = [
            recover_with_iterations(cons[k], eos53, pressure_hint=None if hint is None else hint[k])
            for k in range(len(cons))
        ]
        assert np.array_equal(batch, np.stack([lane for lane, _ in singles]))
        assert sweeps == max(count for _, count in singles)
        grid_hint = None if hint is None else hint.reshape(8, 15)
        meshed, mesh_sweeps = recover_with_iterations(cons.reshape(8, 15, 4), eos53,
                                                      pressure_hint=grid_hint)
        assert np.array_equal(meshed.reshape(-1, 4), batch) and mesh_sweeps == sweeps

    def test_error_names_first_lane_that_fails_alone(self, mixed_batch, eos53):
        _, cons = mixed_batch
        opts = RecoveryOptions(max_iterations=1)
        failing = []
        for k in range(len(cons)):
            try:
                recover_with_iterations(cons[k], eos53, opts)
            except RecoveryConvergenceError as err:
                failing.append((k, err.bracket))
        assert failing and failing[0][0] > 0  # the batch starts with a lane that passes
        with pytest.raises(RecoveryConvergenceError) as err:
            recover_with_iterations(cons.reshape(8, 15, 4), eos53, opts)
        assert err.value.index == failing[0][0]
        assert err.value.bracket == failing[0][1]
        assert err.value.iterations == 1


class TestRoundTripSuite:
    def test_round_trip_accuracy(self, rng):
        for result in verification.recovery_suite(rng, 20_000):
            assert result.passed, result.line()

    def test_residual_certificate(self, rng, eos53):
        """|psi(p)| <= rtol * max(E, 1) measured in extended precision."""
        prim = verification.sample_primitives(rng, 5_000, eos=eos53, gamma_cap=100.0,
                                              guard=verification.RECOVERY_GUARD)
        cons = physics.prim_to_cons(prim, eos53)
        back = recover_primitives(cons, eos53)
        ld = np.longdouble
        dens, energy = ld(cons[:, 0]), ld(cons[:, 3])
        m_sq = ld(cons[:, 1]) ** 2 + ld(cons[:, 2]) ** 2
        p = ld(back[:, physics.PRE])
        w = energy + p
        gam_sq = 1.0 / (1.0 - m_sq / (w * w))
        psi = dens * np.sqrt(gam_sq) + ld(eos53.gamma_ratio) * p * gam_sq - w
        assert np.all(np.abs(psi) <= 1e-12 * np.maximum(energy, 1.0))
