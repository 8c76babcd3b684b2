import numpy as np
import pytest

import oracles
from conftest import assert_close
from rhd2d import physics, riemann, verification
from rhd2d.verification import hll_state_1d, hll_state_2d, quadrant_fan_states

SOD_LEFT = physics.primitive(1.0, 0.0, 0.0, 1.0)
SOD_RIGHT = physics.primitive(0.125, 0.0, 0.0, 0.1)


def ufg(eos, prim):
    """(U, F, G) of a primitive state: the per-state input of the solvers."""
    cons = physics.prim_to_cons(prim, eos)
    return cons, physics.physical_flux(prim, cons, 0), physics.physical_flux(prim, cons, 1)


def pair_speeds(eos, prims, axis, alpha=2.0):
    lam = [physics.eigenvalues(p, eos, axis) for p in prims]
    return riemann.fan_speeds([l.lam1 for l in lam], [l.lam4 for l in lam], alpha)


def corner_fan(eos, prims, alpha=2.0):
    """(corners, speeds) of four primitive states in (ld, rd, lu, ru) order."""
    speeds = pair_speeds(eos, prims, 0, alpha) + pair_speeds(eos, prims, 1, alpha)
    return [ufg(eos, prim) for prim in prims], speeds


def two_sided(speeds):
    s_l, s_r, s_d, s_u = speeds
    return (s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0)


def flux_1d(u_l, f_l, u_r, f_r, s_minus, s_plus):
    """The mesh's 1D HLL flux of two states: `hll_flux_from_jumps` on their jumps."""
    coefficients = riemann.hll_coefficients(s_minus, s_plus)
    return riemann.hll_flux_from_jumps(f_l, f_r, u_r - u_l, f_r - f_l, coefficients,
                                       np.empty_like(f_l), np.empty_like(f_l))


def subsonic_prims(rng, n, **sample_kwargs):
    """n corner quadruples with two-sided fans, drawn by `rhd2d verify`'s sampler
    and joined from its chunks."""
    pieces = verification._subsonic_corners(rng, n, **sample_kwargs)
    return [np.concatenate(prim) for prim in zip(*pieces)]


def fan_fluxes(corners, speeds):
    """`riemann.corner_fluxes` of four (U, F, G) triples, fed its jumps as the mesh feeds them."""
    (u_ld, f_ld, g_ld), (u_rd, f_rd, g_rd), (u_lu, f_lu, g_lu), (u_ru, f_ru, g_ru) = corners
    s_l, s_r, s_d, s_u = speeds
    coefficients = (riemann.hll_coefficients(s_l, s_r), riemann.hll_coefficients(s_d, s_u))
    du_down, df_down = u_rd - u_ld, f_rd - f_ld
    du_left, dg_left = u_lu - u_ld, g_lu - g_ld
    edges = (
        riemann.hll_flux_from_jumps(f_ld, f_rd, du_down, df_down, coefficients[0],
                                    np.empty_like(f_ld), np.empty_like(f_ld)),
        riemann.hll_flux_from_jumps(g_ld, g_lu, du_left, dg_left, coefficients[1],
                                    np.empty_like(g_ld), np.empty_like(g_ld)),
    )
    d2u = (u_ru - u_lu) - du_down
    d2fs = ((f_ru - f_lu) - df_down, (g_ru - g_rd) - dg_left)
    return riemann.corner_fluxes(edges, (f_lu - f_ld, g_rd - g_ld), d2u, d2fs, coefficients,
                                 np.empty_like(edges[0]))


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
        left = oracles.whole_primitives(rng, 2_000)
        right = oracles.whole_primitives(rng, 2_000)
        s_minus, s_plus = pair_speeds(eos53, (left, right), 0)
        assert np.all(s_minus < s_plus)


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
        prims = [oracles.whole_primitives(rng, 500) for _ in range(4)]
        one = corner_fan(eos53, prims, alpha=1.0)[1]
        two = corner_fan(eos53, prims, alpha=2.0)[1]
        assert np.array_equal(two[0], 2.0 * one[0])
        assert np.array_equal(two[3], 2.0 * one[3])

class TestHll1D:
    def test_state_consistency_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.2, -0.1, 0.5)
        u, f, _ = ufg(eos53, s)
        speeds = pair_speeds(eos53, (s, s), 0)
        assert np.array_equal(hll_state_1d(u, f, u, f, *speeds), u)

    def test_state_sod_oracle(self, eos53):
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, SOD_LEFT), ufg(eos53, SOD_RIGHT)
        speeds = pair_speeds(eos53, (SOD_LEFT, SOD_RIGHT), 0, alpha=2.0)
        got = hll_state_1d(u_l, f_l, u_r, f_r, *speeds)
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
        got = hll_state_1d(u_l, f_l, u_r, f_r, *speeds)
        assert got[physics.ENE] > min(u_l[physics.ENE], u_r[physics.ENE])

    def test_flux_consistency_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.2, -0.1, 0.5)
        u, f, _ = ufg(eos53, s)
        speeds = pair_speeds(eos53, (s, s), 0)
        assert np.array_equal(flux_1d(u, f, u, f, *speeds), f)

    def test_flux_supersonic_upwind_bitwise(self, eos53):
        left = physics.primitive(0.1, 0.99, 0.0, 1.0)
        right = physics.primitive(0.2, 0.99, 0.0, 0.5)
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, left), ufg(eos53, right)
        speeds = pair_speeds(eos53, (left, right), 0, alpha=2.0)
        assert np.all(speeds[0] > 0)
        got = flux_1d(u_l, f_l, u_r, f_r, *speeds)
        assert np.array_equal(got, f_l)
        # mirrored: supersonic leftward selects the right flux
        lm = physics.primitive(0.1, -0.99, 0.0, 1.0)
        rm = physics.primitive(0.2, -0.99, 0.0, 0.5)
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, lm), ufg(eos53, rm)
        speeds = pair_speeds(eos53, (lm, rm), 0, alpha=2.0)
        got = flux_1d(u_l, f_l, u_r, f_r, *speeds)
        assert np.array_equal(got, f_r)

    def test_flux_mixed_regime_batch_lane_by_lane(self, rng, eos53):
        """One batch holding every regime: each lane equals its own one-lane
        call bitwise, and the upwind, equal-state and empty-fan lanes are
        exactly f_l or f_r."""
        n = 40
        regimes = ("subsonic", "right_supersonic", "left_supersonic", "equal", "empty")
        regime = np.repeat(regimes, n)
        left, right = oracles.whole_primitives(rng, 5 * n), oracles.whole_primitives(rng, 5 * n)
        equal = regime == "equal"
        right[equal] = left[equal]
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, left), ufg(eos53, right)
        a, b = (np.abs(s) for s in pair_speeds(eos53, (left, right), 0))
        s_minus, s_plus = -a, b
        lanes = regime == "right_supersonic"
        s_minus[lanes], s_plus[lanes] = a[lanes], a[lanes] + b[lanes]
        lanes = regime == "left_supersonic"
        s_minus[lanes], s_plus[lanes] = -a[lanes] - b[lanes], -b[lanes]
        s_minus[regime == "empty"] = s_plus[regime == "empty"] = 0.0
        # the clipped-speed boundaries themselves: sl = 0 and sr = 0 exactly
        s_minus[n], s_plus[2 * n] = 0.0, 0.0

        got = flux_1d(u_l, f_l, u_r, f_r, s_minus, s_plus)
        for k in range(5 * n):
            one = flux_1d(u_l[k], f_l[k], u_r[k], f_r[k], s_minus[k], s_plus[k])
            assert np.array_equal(got[k], one), (regime[k], k)
        upwind_left = np.isin(regime, ("right_supersonic", "equal", "empty"))
        assert np.array_equal(got[upwind_left], f_l[upwind_left])
        lanes = regime == "left_supersonic"
        assert np.array_equal(got[lanes], f_r[lanes])
        lanes = regime == "subsonic"
        assert not np.any(np.all(got[lanes] == f_l[lanes], axis=-1))
        assert not np.any(np.all(got[lanes] == f_r[lanes], axis=-1))

    def test_flux_sod_oracle(self, eos53):
        (u_l, f_l, _), (u_r, f_r, _) = ufg(eos53, SOD_LEFT), ufg(eos53, SOD_RIGHT)
        speeds = pair_speeds(eos53, (SOD_LEFT, SOD_RIGHT), 0, alpha=2.0)
        got = flux_1d(u_l, f_l, u_r, f_r, *speeds)
        ref = oracles.hll_flux(SOD_LEFT, SOD_RIGHT, eos53.gamma_adiabatic, 0,
                               float(speeds[0]), float(speeds[1]))
        assert_close(got, [float(v) for v in ref], rel=1e-13, abs_tol=1e-300)


class TestSubsonicSampler:
    @pytest.mark.parametrize("kwargs", [
        {}, {"gamma_cap": verification.BOUNDARY_GAMMA_CAP, "guard": verification.BOUNDARY_GUARD}
    ])
    def test_speeds_are_the_fan_speeds_of_the_primitives(self, eos53, kwargs):
        """The sampler keeps two-sided quadruples only, and the suite's fan input
        is that of their primitives' eigenvalues and (U, F, G) triples, bit for bit."""
        rng = np.random.default_rng(5)
        prims = subsonic_prims(rng, 5000, **kwargs)
        assert [p.shape for p in prims] == [(5000, 4)] * 4
        corners, speeds = verification._subsonic_fans(prims)
        want_corners, want_speeds = corner_fan(eos53, prims)
        assert np.all(two_sided(speeds))
        got = [*speeds, *(a for triple in corners for a in triple)]
        want = [*want_speeds, *(a for triple in want_corners for a in triple)]
        for got_part, want_part in zip(got, want, strict=True):
            assert got_part.tobytes() == want_part.tobytes()


def mixed_reduction_batch(rng, eos, n=100):
    """One corner batch mixing y-invariant (a, b, a, b), x-invariant
    (a, a, b, b) and generic lanes, keeping the lanes that stay two-sided.

    Returns (corners, speeds, y_inv, x_inv) with boolean lane masks.
    """
    ld, rd, lu, _ = subsonic_prims(rng, n)
    generic = subsonic_prims(rng, n)
    quads = zip([ld, rd, ld, rd], [ld, ld, lu, lu], generic)
    prims = [np.concatenate(lanes) for lanes in quads]
    kind = np.repeat([0, 1, 2], n)
    keep = two_sided(corner_fan(eos, prims)[1])
    corners, speeds = corner_fan(eos, [p[keep] for p in prims])
    y_inv, x_inv = kind[keep] == 0, kind[keep] == 1
    assert y_inv.any() and x_inv.any() and (kind[keep] == 2).any()
    return corners, speeds, y_inv, x_inv


class TestHll2D:
    def test_state_identical_corners_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.1, -0.2, 0.6)
        corners, speeds = corner_fan(eos53, [s] * 4)
        assert np.array_equal(hll_state_2d(corners, speeds), corners[0][0])

    def test_state_y_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_RIGHT, SOD_LEFT, SOD_RIGHT])
        got = hll_state_2d(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        ref = hll_state_1d(u_l, f_l, u_r, f_r, speeds[0], speeds[1])
        assert np.array_equal(got, ref)

        corners, speeds, y_inv, _ = mixed_reduction_batch(rng, eos53)
        got = hll_state_2d(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        for k in np.flatnonzero(y_inv):
            ref = hll_state_1d(u_l[k], f_l[k], u_r[k], f_r[k], speeds[0][k], speeds[1][k])
            assert np.array_equal(got[k], ref)

    def test_state_x_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_LEFT, SOD_RIGHT, SOD_RIGHT])
        got = hll_state_2d(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        ref = hll_state_1d(u_d, g_d, u_u, g_u, speeds[2], speeds[3])
        assert np.array_equal(got, ref)

        corners, speeds, _, x_inv = mixed_reduction_batch(rng, eos53)
        got = hll_state_2d(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        for k in np.flatnonzero(x_inv):
            ref = hll_state_1d(u_d[k], g_d[k], u_u[k], g_u[k], speeds[2][k], speeds[3][k])
            assert np.array_equal(got[k], ref)

    @pytest.mark.parametrize("tame,rel", [(True, 1e-13), (False, 3e-12)])
    def test_state_oracle_and_fan_decomposition(self, rng, eos53, tame, rel):
        kwargs = {"gamma_cap": 10.0, "guard": verification.BOUNDARY_GUARD} if tame else {}
        corners, speeds = corner_fan(eos53, subsonic_prims(rng, 200, **kwargs))
        got = hll_state_2d(corners, speeds)

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
        h_ld, h_rd, h_lu, h_ru = quadrant_fan_states(corners, speeds)
        sl, sr, sd, su = (np.asarray(s)[:, None] for s in speeds)
        span = (sr - sl) * (su - sd)
        combo = (sl * sd * h_ld - sr * sd * h_rd - sl * su * h_lu + sr * su * h_ru) / span
        scale = np.max(np.abs(got), axis=-1, keepdims=True)
        assert np.max(np.abs(got - combo) / scale) <= rel

    def test_flux_identical_corners_bitwise(self, eos53):
        s = physics.primitive(0.8, 0.1, -0.2, 0.6)
        corners, speeds = corner_fan(eos53, [s] * 4)
        fx, fy = fan_fluxes(corners, speeds)
        _, f, g = ufg(eos53, s)
        assert np.array_equal(fx, f)
        assert np.array_equal(fy, g)

    def test_flux_y_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_RIGHT, SOD_LEFT, SOD_RIGHT])
        fx, _ = fan_fluxes(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        ref = flux_1d(u_l, f_l, u_r, f_r, speeds[0], speeds[1])
        assert np.array_equal(fx, ref)

        corners, speeds, y_inv, _ = mixed_reduction_batch(rng, eos53)
        fx, _ = fan_fluxes(corners, speeds)
        (u_l, f_l, _), (u_r, f_r, _) = corners[:2]
        for k in np.flatnonzero(y_inv):
            ref = flux_1d(u_l[k], f_l[k], u_r[k], f_r[k], speeds[0][k], speeds[1][k])
            assert np.array_equal(fx[k], ref)

    def test_flux_x_invariant_reduces_bitwise(self, rng, eos53):
        corners, speeds = corner_fan(eos53, [SOD_LEFT, SOD_LEFT, SOD_RIGHT, SOD_RIGHT])
        _, fy = fan_fluxes(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        ref = flux_1d(u_d, g_d, u_u, g_u, speeds[2], speeds[3])
        assert np.array_equal(fy, ref)

        corners, speeds, _, x_inv = mixed_reduction_batch(rng, eos53)
        _, fy = fan_fluxes(corners, speeds)
        (u_d, _, g_d), (u_u, _, g_u) = corners[0], corners[2]
        for k in np.flatnonzero(x_inv):
            ref = flux_1d(u_d[k], g_d[k], u_u[k], g_u[k], speeds[2][k], speeds[3][k])
            assert np.array_equal(fy[k], ref)

    def test_flux_oracle(self, rng, eos53):
        corners, speeds = corner_fan(eos53, subsonic_prims(rng, 50))
        fx, fy = fan_fluxes(corners, speeds)
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
        prims = subsonic_prims(rng, 200)
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
        u1 = hll_state_2d(corners, speeds)
        u2 = hll_state_2d(scaled, speeds)

        def close(a, b):
            scale = np.max(np.abs(b), axis=-1, keepdims=True)
            assert np.max(np.abs(a - b) / scale) <= 1e-12

        close(u2, kappa * u1)
        f1x, f1y = fan_fluxes(corners, speeds)
        f2x, f2y = fan_fluxes(scaled, speeds)
        close(f2x, kappa * f1x)
        close(f2y, kappa * f1y)


class TestCornerPcp:
    def test_corner_suite(self, rng):
        for result in verification.corner_solver_suite(rng, 10_000):
            assert result.passed, result.line()
