"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: ...` line.  Criteria 8 and 9 carry
sub-assertions that are genuinely unattainable at their stated desk meshes
for this (validated) scheme; they run exactly as stated, fail honestly,
and print the supporting evidence (the same quantities at the nearest
resolving meshes, where they pass).  The analysis lives in the decisions
ledger next to the repository.
"""

import time

import numpy as np

from rhd2d import mesh_solver as ms
from rhd2d import physics, problems, verification
from rhd2d.mesh_solver import BoundarySpec, Field, Grid, SolverConfig, periodic_boundaries
from rhd2d.recovery import recover_with_iterations

SEED = 20260808


def report(line):
    print(f"\n{line}")


def run_norm_series(spec, sizes, t_end):
    errs = {"l1": [], "l2": [], "linf": []}
    for n in sizes:
        result = ms.run(spec, spec.default_grid(n), SolverConfig(), t_end=t_end)
        norms = problems.error_norms(result.field, spec.eos, spec.exact)
        for key, value in zip(errs, norms):
            errs[key].append(value)
    return errs


class TestCriterion1SmoothWaveTable:
    def test_sine_wave_convergence(self):
        started = time.perf_counter()
        spec = problems.sine_wave_problem()
        errs = run_norm_series(spec, (20, 40, 80, 160), t_end=0.1)
        elapsed = time.perf_counter() - started

        reference_orders = {
            "l1": [1.029, 1.016, 0.996],
            "l2": [1.033, 1.015, 0.996],
            "linf": [1.034, 1.013, 0.996],
        }
        reference_errors = {
            "l1": [5.521e-2, 2.705e-2, 1.338e-2, 6.710e-3],
            "l2": [6.146e-2, 3.003e-2, 1.486e-2, 7.452e-3],
            "linf": [8.683e-2, 4.241e-2, 2.101e-2, 1.054e-2],
        }
        lines, ok = [], True
        for key in errs:
            orders = problems.convergence_orders(errs[key])
            deviations = [abs(o - p) for o, p in zip(orders, reference_orders[key])]
            ratios = [e / p for e, p in zip(errs[key], reference_errors[key])]
            ok &= max(deviations) <= 0.06
            lines.append(
                f"  {key}: orders {['%.3f' % o for o in orders]} "
                f"(max dev {max(deviations):.3f}); err/reference {['%.3f' % r for r in ratios]}"
            )
            # informative band: error magnitudes within a factor two
            if not all(0.5 <= r <= 2.0 for r in ratios):
                lines.append(f"  NOTE {key}: error magnitude outside the 2x band")
        report(
            f"criterion 1: {'PASS' if ok else 'FAIL'} - smooth-wave orders within 0.06 "
            f"({elapsed:.1f} s)\n" + "\n".join(lines)
        )
        assert ok
        assert elapsed < 120.0


class TestCriterion2VortexTable:
    def test_vortex_convergence_and_minima(self):
        started = time.perf_counter()
        center = problems.vortex(0.0, 0.0, 0.0)
        min_rho, min_p = center[physics.RHO], center[physics.PRE]
        minima_ok = 1e-15 <= min_rho <= 1e-13 and 1e-21 <= min_p <= 1e-18

        spec = problems.vortex_problem()
        errs = run_norm_series(spec, (20, 40, 80), t_end=1.0)
        orders = problems.convergence_orders(errs["l1"])
        deviations = [abs(o - p) for o, p in zip(orders, (0.818, 0.894))]
        orders_ok = max(deviations) <= 0.1
        elapsed = time.perf_counter() - started
        ok = minima_ok and orders_ok
        report(
            f"criterion 2: {'PASS' if ok else 'FAIL'} - vortex l1 orders "
            f"{['%.3f' % o for o in orders]} vs (0.818, 0.894), "
            f"initial minima rho {min_rho:.2e}, p {min_p:.2e}; audit clean ({elapsed:.1f} s)"
        )
        assert minima_ok
        assert orders_ok
        assert elapsed < 300.0


class TestCriterion3CornerSolverPcp:
    def test_hundred_thousand_quadruples(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        results = verification.corner_solver_suite(rng, 100_000)
        elapsed = time.perf_counter() - started
        ok = all(r.passed for r in results)
        report(
            f"criterion 3: {'PASS' if ok else 'FAIL'} - corner intermediate state and "
            f"quadrant composites admissible over 1e5 draws ({elapsed:.1f} s)"
        )
        for r in results:
            assert r.passed, r.line()


class TestCriterion4AdmissibleSetClosure:
    def test_hundred_thousand_draws_per_property(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        results = verification.admissible_set_suite(rng, 100_000)
        elapsed = time.perf_counter() - started
        ok = all(r.passed for r in results)
        report(
            f"criterion 4: {'PASS' if ok else 'FAIL'} - convexity/scaling/flux-closure "
            f"suites, {len(results)} properties x 1e5 draws ({elapsed:.1f} s)"
        )
        for r in results:
            assert r.passed, r.line()


class TestCriterion5RecoveryOracle:
    def test_hundred_thousand_round_trips(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        results = verification.recovery_suite(rng, 100_000)
        elapsed = time.perf_counter() - started
        ok = all(r.passed for r in results)
        detail = "; ".join(r.detail for r in results if r.detail)
        report(
            f"criterion 5: {'PASS' if ok else 'FAIL'} - 1e5 recovery round trips "
            f"({detail}) ({elapsed:.1f} s)"
        )
        for r in results:
            assert r.passed, r.line()


class TestCriterion6SchemeSanity:
    def test_uniform_field_frozen(self, eos53):
        grid = Grid(16, 16, 0.0, 1.0, 0.0, 1.0)
        field = Field.from_primitives(
            grid,
            lambda x, y: np.broadcast_to([1.0, 0.3, -0.2, 0.7],
                                         np.broadcast_shapes(x.shape, y.shape) + (4,)),
            eos53,
        )
        start = field.interior.copy()
        config = SolverConfig()
        for _ in range(100):
            ms.fill_ghosts(field, periodic_boundaries(), eos53)
            prim, _ = recover_with_iterations(field.cells, eos53)
            dt = ms.compute_dt(field, eos53, 0.45, 2.0, prim)
            ms.step(field, dt, ms.assemble_fluxes(field, dt, eos53, config, prim), config)
        drift = np.max(np.abs(field.interior - start) / np.maximum(np.abs(start), 1e-300))
        report(f"criterion 6a: {'PASS' if drift <= 1e-13 else 'FAIL'} - uniform field drift {drift:.1e} after 100 steps")
        assert drift <= 1e-13

    def test_conservation_per_step(self, eos53):
        grid = Grid(32, 32, 0.0, 1.0, 0.0, 1.0)

        def init(x, y):
            out = np.empty(np.broadcast_shapes(x.shape, y.shape) + (4,))
            out[..., 0] = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            out[..., 1] = 0.2 * np.cos(2 * np.pi * x)
            out[..., 2] = -0.15 * np.sin(2 * np.pi * y)
            out[..., 3] = 0.8 + 0.3 * np.cos(2 * np.pi * (x + y))
            return out

        field = Field.from_primitives(grid, init, eos53)
        config = SolverConfig()
        worst = 0.0
        for _ in range(100):
            before = np.sum(field.interior, axis=(0, 1))
            ms.fill_ghosts(field, periodic_boundaries(), eos53)
            prim, _ = recover_with_iterations(field.cells, eos53)
            dt = ms.compute_dt(field, eos53, 0.45, 2.0, prim)
            ms.step(field, dt, ms.assemble_fluxes(field, dt, eos53, config, prim), config)
            after = np.sum(field.interior, axis=(0, 1))
            worst = max(worst, float(np.max(np.abs(after - before) / np.maximum(np.abs(before), 1.0))))
        report(f"criterion 6b: {'PASS' if worst <= 1e-12 else 'FAIL'} - conservation drift {worst:.1e} per step")
        assert worst <= 1e-12

    def test_mode_equivalence_bitwise_on_1d_data(self, eos53):
        grid = Grid(24, 12, -1.0, 1.0, 0.0, 1.0)

        def init(x, y):
            out = np.zeros(np.broadcast_shapes(x.shape, y.shape) + (4,))
            out[..., 0] = np.where(x < 0.0, 1.0, 0.125) * np.ones_like(y)
            out[..., 2] = 0.3
            out[..., 3] = np.where(x < 0.0, 1.0, 0.1) * np.ones_like(y)
            return out

        bcs = BoundarySpec(top="periodic", bottom="periodic")
        fields = {}
        for mode in ("multidimensional", "dimension_split"):
            config = SolverConfig(mode=mode)
            field = Field.from_primitives(grid, init, eos53)
            for _ in range(20):
                ms.fill_ghosts(field, bcs, eos53)
                prim, _ = recover_with_iterations(field.cells, eos53)
                dt = ms.compute_dt(field, eos53, 0.45, 2.0, prim)
                ms.step(field, dt, ms.assemble_fluxes(field, dt, eos53, config, prim), config)
            fields[mode] = field.cells
        identical = np.array_equal(fields["multidimensional"], fields["dimension_split"])
        report(f"criterion 6c: {'PASS' if identical else 'FAIL'} - modes bit-identical on 1D data")
        assert identical


class TestCriterion7PcpStress:
    def test_rp2_desk_scale(self):
        started = time.perf_counter()
        spec = problems.problem_by_name("rp2")
        grid = Grid(100, 100, -1.0, 1.0, -1.0, 1.0)
        result = ms.run(spec, grid, SolverConfig(pcp_audit=True), t_end=0.8)
        elapsed = time.perf_counter() - started
        diag = result.diagnostics
        ok = diag.min_pressure > 0.0 and diag.min_density > 0.0
        report(
            f"criterion 7: {'PASS' if ok else 'FAIL'} - shocked quadrant problem 100x100 to "
            f"t=0.8, {diag.steps} steps, min p {diag.min_pressure:.3e}, min rho "
            f"{diag.min_density:.3e}, max gamma {diag.max_lorentz:.2f} ({elapsed:.1f} s)"
        )
        assert ok
        assert elapsed < 300.0


class TestCriterion8ExplosionSymmetry:
    def test_multidimensional_mode_is_rounder(self):
        """As stated: 64x64 to t=0.1, deviation ratio < 1.

        The faithful solver fails this at exactly 64x64: both modes carry an
        axis/diagonal shock-front offset of about half a cell, and the
        max-gap metric lands on front-sampling noise at that mesh.  The same
        comparison passes at every tested finer mesh (evidence printed), so
        the failure is a calibration defect of the stated resolution, not a
        missing property of the solver.  See the decisions ledger.
        """
        started = time.perf_counter()
        spec = problems.problem_by_name("explosion")

        def ratio_at(n):
            devs = {}
            for mode in ("multidimensional", "dimension_split"):
                grid = Grid(n, n, -0.5, 0.5, -0.5, 0.5)
                result = ms.run(spec, grid, SolverConfig(mode=mode), t_end=0.1)
                devs[mode] = problems.symmetry_deviation(result.field, spec.eos)
            return devs["multidimensional"] / devs["dimension_split"], devs

        ratio64, devs64 = ratio_at(64)
        evidence = {n: ratio_at(n)[0] for n in (96, 128)}
        elapsed = time.perf_counter() - started
        ok = ratio64 < 1.0
        report(
            f"criterion 8: {'PASS' if ok else 'FAIL'} - 64x64 deviation ratio {ratio64:.3f} "
            f"(md {devs64['multidimensional']:.3e}, split {devs64['dimension_split']:.3e}); "
            f"evidence at finer meshes: "
            + ", ".join(f"{n}x{n} ratio {r:.3f}" for n, r in evidence.items())
            + f" ({elapsed:.1f} s)"
        )
        assert elapsed < 60.0
        assert all(r < 1.0 for r in evidence.values()), "multidimensional advantage absent"
        assert ok, (
            f"deviation ratio {ratio64:.3f} at the stated 64x64 mesh; the comparison "
            f"passes at 96x96 ({evidence[96]:.3f}) and 128x128 ({evidence[128]:.3f})"
        )


class TestCriterion9JetFeasibility:
    def test_all_six_configs_quoted_values(self):
        quoted = {
            "jet-hot-i": (7.089, 9.971),
            "jet-hot-ii": (22.366, 31.316),
            "jet-hot-iii": (70.712, 98.962),
            "jet-cold-i": (7.088, 354.371),
            "jet-cold-ii": (22.366, 1118.090),
            "jet-cold-iii": (70.712, 35356.152),
        }
        worst = 0.0
        for name, (gam_ref, mach_ref) in quoted.items():
            config, _ = problems.jet_setup(*problems.JET_CONFIGS[name])
            worst = max(
                worst,
                abs(config.lorentz_beam - gam_ref) / gam_ref,
                abs(config.mach_relativistic - mach_ref) / mach_ref,
            )
        report(f"criterion 9a: PASS - all six jet configs match quoted values (worst rel dev {worst:.1e})")
        assert worst < 5e-4

    def test_hot_jet_run(self):
        """As stated: 60x150 to t=5 completes with the audit on and the beam
        keeps max gamma >= 6.5.

        The run completes cleanly, but at 60x150 the nozzle is 2.5 cells wide
        and first-order transverse diffusion caps the interior Lorentz factor
        near 3.5 in both solver modes; the same run at 120x300 (nozzle
        resolved by 5 cells, well inside the stated runtime budget) reaches
        the inflow value.  See the decisions ledger.
        """
        started = time.perf_counter()
        config, spec = problems.jet_setup("hot", 0.99, 1.72)
        result = ms.run(spec, Grid(60, 150, 0.0, 12.0, 0.0, 30.0), SolverConfig(), t_end=5.0)
        gamma_desk = result.diagnostics.max_lorentz
        fine = ms.run(spec, Grid(120, 300, 0.0, 12.0, 0.0, 30.0), SolverConfig(), t_end=5.0)
        gamma_fine = fine.diagnostics.max_lorentz
        elapsed = time.perf_counter() - started
        ok = gamma_desk >= 6.5
        report(
            f"criterion 9b: {'PASS' if ok else 'FAIL'} - hot jet 60x150 to t=5 completed "
            f"with audit on ({result.diagnostics.steps} steps), interior max gamma "
            f"{gamma_desk:.2f} vs required 6.5 (inflow 7.089); evidence: 120x300 reaches "
            f"{gamma_fine:.2f} ({elapsed:.1f} s)"
        )
        assert elapsed < 600.0
        assert gamma_fine >= 6.5, "beam does not survive even on the resolving mesh"
        assert ok, (
            f"interior max gamma {gamma_desk:.2f} at the stated 60x150 mesh; "
            f"the resolving 120x300 mesh reaches {gamma_fine:.2f}"
        )
