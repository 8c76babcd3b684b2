import numpy as np
import pytest

import oracles
from conftest import assert_close
from rhd2d import physics, riemann, verification
from rhd2d.errors import AdmissibilityError, DegenerateFanError, DispatchError

SOD_LEFT = physics.primitive(1.0, 0.0, 0.0, 1.0)
SOD_RIGHT = physics.primitive(0.125, 0.0, 0.0, 0.1)
CORNER_SOLVERS = (riemann.hll_state_2d, riemann.quadrant_fan_states)


def ufg(eos, prim):
    """(U, F, G) of a primitive state: the per-state input of the solvers."""
    cons = physics.prim_to_cons(prim, eos)
    return cons, physics.physical_flux(prim, cons, 0), physics.physical_flux(prim, cons, 1)


def pair_speeds(eos, prims, axis, alpha=2.0):
    lam = [physics.eigenvalues(p, eos, axis) for p in prims]
    return riemann.fan_speeds([l.lam1 for l in lam], [l.lam4 for l in lam], alpha)


def corner_fan(eos, prims, alpha=2.0):
    """(corners, speeds) of four primitive states in (ld, rd, lu, ru) order."""
    return verification._corner_fan(prims, eos, alpha)


def random_prims(rng, eos, n, **kwargs):
    return verification.sample_primitives(rng, n, eos=eos, **kwargs)


class TestWaveSpeeds1D:
    def test_rest_pair_amplified(self, eos53):
        rest = physics.primitive(1.0, 0.0, 0.0, 1.0)
        s_minus, s_plus = pair_speeds(eos53, (rest, rest), 0, alpha=2.0)
        assert_close(s_minus, -1.3801311186847084356, rel=1e-15)
        assert_close(s_plus, 1.3801311186847084356, rel=1e-15)

    def test_identical_states_alpha_one(self, eos53):
        s = physics.primitive(0.4, 0.3, 0.1, 0.2)
        lam = physics.eigenvalues(s, eos53, 1)
        s_minus, s_plus = pair_speeds(eos53, (s, s), 1, alpha=1.0)
        assert s_minus == lam.lam1 and s_plus == lam.lam4

    def test_ordering(self, rng, eos53):
        left = random_prims(rng, eos53, 2_000)
        right = random_prims(rng, eos53, 2_000)
        s_minus, s_plus = pair_speeds(eos53, (left, right), 0)
        assert np.all(s_minus < s_plus)

    def test_alpha_validated(self, eos53):
        rest = physics.primitive(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pair_speeds(eos53, (rest, rest), 0, alpha=0.5)


class TestWaveSpeeds2D:
    def test_rest_corners(self, eos53):
        rest = physics.primitive(1.0, 0.0, 0.0, 1.0)
        s_l, s_r, s_d, s_u = corner_fan(eos53, [rest] * 4, alpha=2.0)[1]
        for got in (s_l, s_d):
            assert_close(got, -1.3801311186847084356, rel=1e-15)
        for got in (s_r, s_u):
            assert_close(got, 1.3801311186847084356, rel=1e-15)

    def test_transverse_symmetry(self, eos53):
        moving = physics.primitive(1.0, 0.5, 0.0, 1.0)
        s_l, s_r, s_d, s_u = corner_fan(eos53, [moving] * 4)[1]
        assert s_d == -s_u
        assert s_l != -s_r

    def test_alpha_scaling_exact(self, rng, eos53):
        prims = [random_prims(rng, eos53, 500) for _ in range(4)]
        one = corner_fan(eos53, prims, alpha=1.0)[1]
        two = corner_fan(eos53, prims, alpha=2.0)[1]
        assert np.array_equal(two[0], 2.0 * one[0])
        assert np.array_equal(two[3], 2.0 * one[3])

    def test_speed_ordering_validated(self, eos53):
        rest = ufg(eos53, physics.primitive(1.0, 0.0, 0.0, 1.0))
        for solver in CORNER_SOLVERS:
            with pytest.raises(ValueError):
                solver([rest] * 4, (1.0, -1.0, -1.0, 1.0))


class TestHll1D:
    def test_state_consistency_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.2, -0.1, 0.5)
        u, f, _ = ufg(eos53, s)
        speeds = pair_speeds(eos53, (s, s), 0)
        assert np.array_equal(riemann.hll_state_1d(u, f, u, f, *speeds), u)

    def test_state_sod_oracle(self, eos53):
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, SOD_LEFT), ufg(eos53, SOD_RIGHT)
        speeds = pair_speeds(eos53, (SOD_LEFT, SOD_RIGHT), 0, alpha=2.0)
        got = riemann.hll_state_1d(u_l, f_l, u_r, f_r, *speeds)
        ref = oracles.hll_state(SOD_LEFT, SOD_RIGHT, eos53.gamma_adiabatic, 0,
                                float(speeds[0]), float(speeds[1]))
        assert_close(got, [float(v) for v in ref], rel=1e-13, abs_tol=1e-300)
        assert physics.is_admissible(got)
        rho_l, rho_r = SOD_LEFT[physics.RHO], SOD_RIGHT[physics.RHO]
        assert min(rho_l, rho_r) < got[physics.DEN] < 2.0 * max(rho_l, rho_r)

    def test_state_compression_raises_energy(self, eos53):
        left = physics.primitive(1.0, 0.5, 0.0, 1.0)
        right = physics.primitive(1.0, -0.5, 0.0, 1.0)
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, left), ufg(eos53, right)
        speeds = pair_speeds(eos53, (left, right), 0, alpha=2.0)
        got = riemann.hll_state_1d(u_l, f_l, u_r, f_r, *speeds)
        assert got[physics.ENE] > min(u_l[physics.ENE], u_r[physics.ENE])

    def test_state_degenerate_fan(self, eos53):
        u, f, _ = ufg(eos53, physics.primitive(1.0, 0.0, 0.0, 1.0))
        with pytest.raises(DegenerateFanError):
            riemann.hll_state_1d(u, f, u, f, np.array(0.3), np.array(0.3))

    def test_flux_consistency_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.2, -0.1, 0.5)
        u, f, _ = ufg(eos53, s)
        speeds = pair_speeds(eos53, (s, s), 0)
        assert np.array_equal(riemann.hll_flux_1d(u, f, u, f, *speeds), f)

    def test_flux_supersonic_upwind_bitwise(self, eos53):
        left = physics.primitive(0.1, 0.99, 0.0, 1.0)
        right = physics.primitive(0.2, 0.99, 0.0, 0.5)
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, left), ufg(eos53, right)
        speeds = pair_speeds(eos53, (left, right), 0, alpha=2.0)
        assert np.all(speeds[0] > 0)
        got = riemann.hll_flux_1d(u_l, f_l, u_r, f_r, *speeds)
        assert np.array_equal(got, f_l)
        # mirrored: supersonic leftward selects the right flux
        lm = physics.primitive(0.1, -0.99, 0.0, 1.0)
        rm = physics.primitive(0.2, -0.99, 0.0, 0.5)
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, lm), ufg(eos53, rm)
        speeds = pair_speeds(eos53, (lm, rm), 0, alpha=2.0)
        got = riemann.hll_flux_1d(u_l, f_l, u_r, f_r, *speeds)
        assert np.array_equal(got, f_r)

    def test_flux_sod_oracle(self, eos53):
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, SOD_LEFT), ufg(eos53, SOD_RIGHT)
        speeds = pair_speeds(eos53, (SOD_LEFT, SOD_RIGHT), 0, alpha=2.0)
        got = riemann.hll_flux_1d(u_l, f_l, u_r, f_r, *speeds)
        ref = oracles.hll_flux(SOD_LEFT, SOD_RIGHT, eos53.gamma_adiabatic, 0,
                               float(speeds[0]), float(speeds[1]))
        assert_close(got, [float(v) for v in ref], rel=1e-13, abs_tol=1e-300)


def random_subsonic_prims(rng, eos, n, tame=False):
    kwargs = {"gamma_cap": 10.0, "guard": verification.BOUNDARY_GUARD} if tame else {}
    return verification._subsonic_corners(rng, n, eos, 2.0, **kwargs)


def mixed_reduction_batch(rng, eos, n=100):
    """One corner batch mixing y-invariant (a, b, a, b), x-invariant
    (a, a, b, b) and generic lanes, keeping the lanes that stay two-sided.

    Returns (corners, speeds, y_inv, x_inv) with boolean lane masks.
    """
    ld, rd, lu, _ = random_subsonic_prims(rng, eos, n)
    generic = random_subsonic_prims(rng, eos, n)
    quads = zip([ld, rd, ld, rd], [ld, ld, lu, lu], generic)
    prims = [np.concatenate(lanes) for lanes in quads]
    kind = np.repeat([0, 1, 2], n)
    s_l, s_r, s_d, s_u = corner_fan(eos, prims)[1]
    keep = (s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0)
    corners, speeds = corner_fan(eos, [p[keep] for p in prims])
    y_inv, x_inv = kind[keep] == 0, kind[keep] == 1
    assert y_inv.any() and x_inv.any() and (kind[keep] == 2).any()
    return corners, speeds, y_inv, x_inv


class TestHll2D:
    def test_corner_states_validate(self, eos53):
        good = ufg(eos53, physics.primitive(1.0, 0.0, 0.0, 1.0))
        bad_cons = np.array([1.0, 3.0, 0.0, 2.0])
        bad_prim = np.array([1.0, 0.9, 0.0, 1.0])
        bad = (
            bad_cons,
            physics.physical_flux(bad_prim, bad_cons, 0),
            physics.physical_flux(bad_prim, bad_cons, 1),
        )
        for solver in CORNER_SOLVERS:
            with pytest.raises(AdmissibilityError):
                solver([good, good, good, bad], (-1.0, 1.0, -1.0, 1.0))

    def test_state_identical_corners_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.1, -0.2, 0.6)
        corners, speeds = corner_fan(eos53, [s] * 4)
        assert np.array_equal(riemann.hll_state_2d(corners, speeds), corners[0][0])

    def test_state_y_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_RIGHT, SOD_LEFT, SOD_RIGHT])
        got = riemann.hll_state_2d(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        ref = riemann.hll_state_1d(u_l, f_l, u_r, f_r, speeds[0], speeds[1])
        assert np.array_equal(got, ref)

        corners, speeds, y_inv, _ = mixed_reduction_batch(rng, eos53)
        got = riemann.hll_state_2d(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        for k in np.flatnonzero(y_inv):
            ref = riemann.hll_state_1d(u_l[k], f_l[k], u_r[k], f_r[k], speeds[0][k], speeds[1][k])
            assert np.array_equal(got[k], ref)

    def test_state_x_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_LEFT, SOD_RIGHT, SOD_RIGHT])
        got = riemann.hll_state_2d(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        ref = riemann.hll_state_1d(u_d, g_d, u_u, g_u, speeds[2], speeds[3])
        assert np.array_equal(got, ref)

        corners, speeds, _, x_inv = mixed_reduction_batch(rng, eos53)
        got = riemann.hll_state_2d(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        for k in np.flatnonzero(x_inv):
            ref = riemann.hll_state_1d(u_d[k], g_d[k], u_u[k], g_u[k], speeds[2][k], speeds[3][k])
            assert np.array_equal(got[k], ref)

    @pytest.mark.parametrize("tame,rel", [(True, 1e-13), (False, 3e-12)])
    def test_state_oracle_and_fan_decomposition(self, rng, eos53, tame, rel):
        corners, speeds = corner_fan(eos53, random_subsonic_prims(rng, eos53, 200, tame=tame))
        got = riemann.hll_state_2d(corners, speeds)

        # spot-check lanes against the exact combination of the constituents
        u, fx_all, fy_all = oracles.corner_constituents(corners)
        for k in (7, 23, 101):
            sp = [float(np.asarray(s)[k]) for s in speeds]
            ref = oracles.corner_state_from_states(
                {key: v[k] for key, v in u.items()},
                {key: v[k] for key, v in fx_all.items()},
                {key: v[k] for key, v in fy_all.items()},
                sp,
            )
            ref = np.array([float(v) for v in ref])
            assert np.max(np.abs(got[k] - ref)) <= 1e-13 * np.max(np.abs(ref))

        # every lane equals the convex combination of the quadrant composites
        h_ld, h_rd, h_lu, h_ru = riemann.quadrant_fan_states(corners, speeds)
        sl, sr, sd, su = (np.asarray(s)[:, None] for s in speeds)
        span = (sr - sl) * (su - sd)
        combo = (sl * sd * h_ld - sr * sd * h_rd - sl * su * h_lu + sr * su * h_ru) / span
        scale = np.max(np.abs(got), axis=-1, keepdims=True)
        assert np.max(np.abs(got - combo) / scale) <= rel

    def test_state_requires_subsonic(self, eos53):
        fast = physics.primitive(0.1, 0.99, 0.0, 1.0)
        corners, speeds = corner_fan(eos53, [fast] * 4)
        with pytest.raises(DispatchError):
            riemann.hll_state_2d(corners, speeds)
        with pytest.raises(DispatchError):
            riemann.quadrant_fan_states(corners, speeds)

    def test_flux_identical_corners_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.1, -0.2, 0.6)
        corners, speeds = corner_fan(eos53, [s] * 4)
        fx, fy = riemann.corner_fluxes(corners, speeds)
        _, f, g = ufg(eos53, s)
        assert np.array_equal(fx, f)
        assert np.array_equal(fy, g)

    def test_flux_y_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_RIGHT, SOD_LEFT, SOD_RIGHT])
        fx, _ = riemann.corner_fluxes(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        ref = riemann.hll_flux_1d(u_l, f_l, u_r, f_r, speeds[0], speeds[1])
        assert np.array_equal(fx, ref)

        corners, speeds, y_inv, _ = mixed_reduction_batch(rng, eos53)
        fx, _ = riemann.corner_fluxes(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        for k in np.flatnonzero(y_inv):
            ref = riemann.hll_flux_1d(u_l[k], f_l[k], u_r[k], f_r[k], speeds[0][k], speeds[1][k])
            assert np.array_equal(fx[k], ref)

    def test_flux_x_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_LEFT, SOD_RIGHT, SOD_RIGHT])
        _, fy = riemann.corner_fluxes(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        ref = riemann.hll_flux_1d(u_d, g_d, u_u, g_u, speeds[2], speeds[3])
        assert np.array_equal(fy, ref)

        corners, speeds, _, x_inv = mixed_reduction_batch(rng, eos53)
        _, fy = riemann.corner_fluxes(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        for k in np.flatnonzero(x_inv):
            ref = riemann.hll_flux_1d(u_d[k], g_d[k], u_u[k], g_u[k], speeds[2][k], speeds[3][k])
            assert np.array_equal(fy[k], ref)

    def test_flux_oracle(self, rng, eos53):
        corners, speeds = corner_fan(eos53, random_subsonic_prims(rng, eos53, 50))
        fx, fy = riemann.corner_fluxes(corners, speeds)
        u, fx_all, fy_all = oracles.corner_constituents(corners)
        for k in (3, 11, 29):
            sp = [float(np.asarray(s)[k]) for s in speeds]
            ref_x, ref_y = oracles.corner_fluxes_from_states(
                {key: v[k] for key, v in u.items()},
                {key: v[k] for key, v in fx_all.items()},
                {key: v[k] for key, v in fy_all.items()},
                sp,
            )
            scale_x = max(abs(float(v)) for v in ref_x)
            scale_y = max(abs(float(v)) for v in ref_y)
            assert np.max(np.abs(fx[k] - [float(v) for v in ref_x])) <= 1e-13 * scale_x
            assert np.max(np.abs(fy[k] - [float(v) for v in ref_y])) <= 1e-13 * scale_y

    def test_scaling_covariance_at_fixed_speeds(self, rng, eos53):
        prims = random_subsonic_prims(rng, eos53, 200)
        corners, speeds = corner_fan(eos53, prims)
        kappa = 3.7
        # primitives of the scaled states share the velocity and scale rho, p;
        # fluxes are linear in (cons, p) so build them from scaled primitives
        scaled, _ = corner_fan(
            eos53,
            [
                np.stack([kappa * p[:, 0], p[:, 1], p[:, 2], kappa * p[:, 3]], axis=-1)
                for p in prims
            ],
        )
        u1 = riemann.hll_state_2d(corners, speeds)
        u2 = riemann.hll_state_2d(scaled, speeds)

        def close(a, b):
            scale = np.max(np.abs(b), axis=-1, keepdims=True)
            assert np.max(np.abs(a - b) / scale) <= 1e-12

        close(u2, kappa * u1)
        f1x, f1y = riemann.corner_fluxes(corners, speeds)
        f2x, f2y = riemann.corner_fluxes(scaled, speeds)
        close(f2x, kappa * f1x)
        close(f2y, kappa * f1y)


class TestCornerPcp:
    def test_corner_suite(self, rng):
        for result in verification.corner_solver_suite(rng, 10_000):
            assert result.passed, result.line()
