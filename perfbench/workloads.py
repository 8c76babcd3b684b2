"""The benchmark's workloads, their correctness gates, and the traced replay.

Each workload is one closed-loop repetition of a fixed job.  `run_plain`
executes it through the package's public entry points (`run`,
`verification.run_all`) with no tracing; `run_traced` performs the same job
by replaying the step loop of `mesh_solver.run` (or the suite sequence of
`verification.run_all`) from outside, timing every call into the package,
and checks that the replay reproduced the plain repetition bit for bit.

Importing this module imports rhd2d and numpy; `run.py` measures set-up
time in fresh processes for that reason.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from rhd2d import output, problems, verification
from rhd2d.mesh_solver import (
    Field,
    SolverConfig,
    assemble_fluxes,
    compute_dt,
    fill_ghosts,
    run,
    step,
)
from rhd2d.physics import PRE, eigenvalues, is_admissible
from rhd2d.recovery import DEFAULT_OPTIONS, recover_with_iterations

# The mesh workload runs the default scheme with the PCP audit on.
CONFIG = SolverConfig(cfl_sigma=0.45, alpha=2.0, mode="multidimensional", pcp_audit=True)

STEP_LAYERS = (
    "mesh_solver.fill_ghosts",
    "recovery.recover_with_iterations",
    "mesh_solver.compute_dt",
    "mesh_solver.assemble_fluxes",
    "mesh_solver.step",
)

# rp2: mesh size and the number of evenly spaced snapshots before the
# problem's own t_end = 0.8 (356 steps at 200^2).
RP2_SIZES = {"full": (200, 3), "toy": (16, 3)}
VERIFY_SAMPLES = {"full": 100_000, "toy": 2_000}

# The `problems` layer: the ladder of `rhd2d converge --problem sine --n 20
# --levels 4`, replayed in every traced rp2 repetition.  Its density errors
# (l1, l2, linf) and orders, to the digits `rhd2d converge` prints, as the
# solver gave them when this benchmark was defined.
SINE_LADDER = {"full": (20, 40, 80, 160), "toy": (20, 40)}
SINE_ERRORS = {
    20: ("5.5214e-02", "6.1463e-02", "8.6834e-02"),
    40: ("2.7055e-02", "3.0029e-02", "4.2408e-02"),
    80: ("1.3380e-02", "1.4860e-02", "2.1011e-02"),
    160: ("6.7095e-03", "7.4519e-03", "1.0537e-02"),
}
SINE_ORDERS = {  # keyed by the finer mesh of each pair
    40: ("1.029", "1.033", "1.034"),
    80: ("1.016", "1.015", "1.013"),
    160: ("0.996", "0.996", "0.996"),
}


class Tracer:
    """Wall time per named call into the package, plus exact counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - started


@dataclass
class Rep:
    """One repetition: its timings, its work, and the gates it failed."""

    wall_s: float
    compute_s: float  # wall time minus field output
    items: int  # cell updates, or samples on `verify`
    failures: list = dataclass_field(default_factory=list)
    fingerprint: tuple = ()  # exact result, compared across repetitions
    layers: dict = dataclass_field(default_factory=dict)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _two_sided_corners(prim: np.ndarray, eos) -> int:
    """Corner fans that are two-sided in both axes, as `assemble_fluxes` tests them.

    The amplifier alpha > 0 does not change the signs, so it is left out.
    """
    signs = []
    for axis in (0, 1):
        lam = eigenvalues(prim, eos, axis)
        quads1 = (lam.lam1[:-1, :-1], lam.lam1[1:, :-1], lam.lam1[:-1, 1:], lam.lam1[1:, 1:])
        quads4 = (lam.lam4[:-1, :-1], lam.lam4[1:, :-1], lam.lam4[:-1, 1:], lam.lam4[1:, 1:])
        signs.append((np.minimum.reduce(quads1) < 0.0) & (np.maximum.reduce(quads4) > 0.0))
    return int(np.count_nonzero(signs[0] & signs[1]))


def replay_run(spec, grid, t_end, snapshot_times, on_snapshot, tracer: Tracer) -> Field:
    """`mesh_solver.run` rebuilt from its public steps, each call timed.

    Mirrors run()'s loop: dt is clamped onto every snapshot time and onto
    t_end, and each step's recovered pressure seeds the next recovery.
    """
    eos = spec.eos
    field = tracer.call(
        "mesh_solver.Field.from_primitives",
        Field.from_primitives, grid, spec.initial, eos, average=spec.average_init,
    )
    targets = sorted({float(t) for t in snapshot_times if 0.0 < t <= t_end} | {t_end})
    pressure_hint = None
    for target in targets:
        while field.time < target:
            tracer.call("mesh_solver.fill_ghosts", fill_ghosts, field, spec.boundaries, eos)
            prim, sweeps = tracer.call(
                "recovery.recover_with_iterations",
                recover_with_iterations, field.cells, eos, DEFAULT_OPTIONS, pressure_hint,
            )
            dt = tracer.call(
                "mesh_solver.compute_dt",
                compute_dt, field, eos, CONFIG.cfl_sigma, CONFIG.alpha, prim,
            )
            dt = min(dt, target - field.time)
            fluxes = tracer.call(
                "mesh_solver.assemble_fluxes", assemble_fluxes, field, dt, eos, CONFIG, prim
            )
            tracer.call("mesh_solver.step", step, field, dt, fluxes, CONFIG)
            pressure_hint = prim[..., PRE]

            tracer.counts["mesh_solver.steps"] += 1
            tracer.counts["mesh_solver.cell_updates"] += grid.n_x * grid.n_y
            tracer.counts["recovery.sweeps_total"] += sweeps
            tracer.counts["recovery.sweeps_max"] = max(tracer.counts["recovery.sweeps_max"], sweeps)
            tracer.counts["corner_fans_two_sided"] += _two_sided_corners(prim, eos)
            tracer.counts["corner_fans"] += (grid.n_x + 1) * (grid.n_y + 1)
        field.time = target
        on_snapshot(field)
    return field


def _scan_ms(interior: np.ndarray, repeats: int = 15) -> float:
    """Median time of one standalone `is_admissible` scan of a mesh, in ms."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        is_admissible(interior)
        times.append(time.perf_counter() - started)
    return 1e3 * float(np.median(times))


def _layer_values(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    sec, cnt = tracer.seconds, tracer.counts
    step_s = sum(sec[name] for name in STEP_LAYERS)
    values = {}
    for name in STEP_LAYERS:
        values[f"{name}.s"] = sec[name]
        values[f"{name}.share"] = sec[name] / step_s if step_s else 0.0
    steps = cnt["mesh_solver.steps"]
    values.update({
        "mesh_solver.steps": steps,
        "mesh_solver.cell_updates": cnt["mesh_solver.cell_updates"],
        "mesh_solver.corner_two_sided_ratio": (
            cnt["corner_fans_two_sided"] / cnt["corner_fans"] if cnt["corner_fans"] else 0.0
        ),
        "mesh_solver.Field.from_primitives.s": sec["mesh_solver.Field.from_primitives"],
        "recovery.sweeps_total": cnt["recovery.sweeps_total"],
        "recovery.sweeps_max": cnt["recovery.sweeps_max"],
        "recovery.sweeps_per_step": cnt["recovery.sweeps_total"] / steps if steps else 0.0,
        "output.write_field.s": sec["output.write_field"],
        "output.write_field.bytes": cnt["output.write_field.bytes"],
        "verification.admissible_set_suite.s": sec["verification.admissible_set_suite"],
        "verification.corner_solver_suite.s": sec["verification.corner_solver_suite"],
        "verification.recovery_suite.s": sec["verification.recovery_suite"],
        "verification.samples": cnt["verification.samples"],
    })
    return values


def sine_ladder(sizes, tracer: Tracer) -> list:
    """Replay `rhd2d converge --problem sine` on `sizes`; return its gate failures.

    Each level starts from the Gauss-averaged `Field.from_primitives`; the
    printed digits of its errors and orders must equal the reference.
    """
    spec = problems.problem_by_name("sine")
    errors = []
    for n in sizes:
        field = replay_run(spec, spec.default_grid(n), spec.t_end, (), lambda f: None, tracer)
        errors.append(tracer.call(
            "problems.error_norms", problems.error_norms, field, spec.eos, spec.exact
        ))
    printed = {n: tuple(f"{e:.4e}" for e in norms) for n, norms in zip(sizes, errors)}
    orders = [problems.convergence_orders(column) for column in zip(*errors)]
    printed_orders = {
        n: tuple(f"{column[k]:.3f}" for column in orders) for k, n in enumerate(sizes[1:])
    }
    failures = [f"sine N={n}: errors {printed[n]}, expected {SINE_ERRORS[n]}"
                for n in sizes if printed[n] != SINE_ERRORS[n]]
    failures += [f"sine N={n}: orders {printed_orders[n]}, expected {SINE_ORDERS[n]}"
                 for n in sizes[1:] if printed_orders[n] != SINE_ORDERS[n]]
    return failures


# --- rp2-snapshots -----------------------------------------------------------


class Rp2Snapshots:
    """rp2 with field output at evenly spaced snapshots and at t_end."""

    name = "rp2-snapshots"

    def __init__(self, size: str, seed: int, out_dir: Path):
        n, count = RP2_SIZES[size]
        self.spec = problems.problem_by_name("rp2")
        self.t_end = self.spec.t_end
        self.grid = self.spec.default_grid(n)
        self.ladder = SINE_LADDER[size]
        self.snapshots = tuple(self.t_end * k / (count + 1) for k in range(1, count + 1))
        self.out_dir = out_dir

    def setup(self):
        return Field.from_primitives(
            self.grid, self.spec.initial, self.spec.eos, average=self.spec.average_init
        )

    def _writer(self, tracer=None):
        """on_snapshot callback writing files as `rhd2d run --snapshots` names them."""
        written = []

        def write(field):
            name = "field.dat" if field.time == self.t_end else f"field_t{field.time:.12g}.dat"
            path = self.out_dir / name
            if tracer is None:
                output.write_field(field, self.spec.eos, path)
            else:
                tracer.call("output.write_field", output.write_field, field, self.spec.eos, path)
                tracer.counts["output.write_field.bytes"] += path.stat().st_size
            written.append(path)

        return write, written

    def _check(self, field, written) -> tuple:
        failures = []
        interior = field.interior
        if not np.all(np.isfinite(interior)):
            failures.append("final interior has non-finite values")
        elif not np.all(is_admissible(interior)):
            failures.append("final interior leaves the admissible set")
        if len(written) != len(self.snapshots) + 1:
            failures.append(f"{len(written)} field files written, expected {len(self.snapshots) + 1}")
        files = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in written)
        return failures, files

    def run_plain(self) -> Rep:
        write, written = self._writer()
        output_s = 0.0

        def on_snapshot(field):
            nonlocal output_s
            started = time.perf_counter()
            write(field)
            output_s += time.perf_counter() - started

        started = time.perf_counter()
        result = run(
            self.spec, self.grid, CONFIG,
            t_end=self.t_end, snapshot_times=self.snapshots, on_snapshot=on_snapshot,
        )
        wall = time.perf_counter() - started
        diag = result.diagnostics
        failures, files = self._check(result.field, written)
        return Rep(
            wall_s=wall,
            compute_s=wall - output_s,
            items=diag.steps * self.grid.n_x * self.grid.n_y,
            failures=failures,
            fingerprint=(diag.steps, _digest(result.field.interior), files),
        )

    def run_traced(self, plain: Rep) -> Rep:
        tracer = Tracer()
        write, written = self._writer(tracer)
        started = time.perf_counter()
        field = replay_run(self.spec, self.grid, self.t_end, self.snapshots, write, tracer)
        wall = time.perf_counter() - started
        failures, files = self._check(field, written)
        steps = tracer.counts["mesh_solver.steps"]
        if (steps, _digest(field.interior), files) != plain.fingerprint:
            failures.append("traced replay differs from run(): steps, final interior or files")
        layers = _layer_values(tracer)
        layers["physics.is_admissible.scan_ms"] = _scan_ms(field.interior)
        ladder = Tracer()
        failures += sine_ladder(self.ladder, ladder)
        layers["problems.error_norms.s"] = ladder.seconds["problems.error_norms"]
        layers["mesh_solver.Field.from_primitives.averaged.s"] = (
            ladder.seconds["mesh_solver.Field.from_primitives"]
        )
        return Rep(wall, wall - tracer.seconds["output.write_field"],
                   tracer.counts["mesh_solver.cell_updates"], failures,
                   plain.fingerprint, layers)


# --- verify ------------------------------------------------------------------


# The suites of `verification.run_all`, in its order (they share one generator).
SUITES = (
    ("verification.admissible_set_suite", verification.admissible_set_suite),
    ("verification.corner_solver_suite", verification.corner_solver_suite),
    ("verification.recovery_suite", verification.recovery_suite),
)


class Verify:
    """`verification.run_all` at a fixed sample count, seeded by the benchmark seed."""

    name = "verify"

    def __init__(self, size: str, seed: int, out_dir: Path):
        self.samples = VERIFY_SAMPLES[size]
        self.seed = seed

    def setup(self):
        return np.random.default_rng(self.seed)

    @staticmethod
    def _summary(results) -> tuple:
        return tuple((r.name, r.samples, r.failures, r.detail) for r in results)

    def _check(self, results) -> list:
        return [r.line() for r in results if not r.passed]

    def run_plain(self) -> Rep:
        started = time.perf_counter()
        results = verification.run_all(seed=self.seed, samples=self.samples)
        wall = time.perf_counter() - started
        failures = self._check(results)
        return Rep(wall, wall, self.samples, failures, self._summary(results))

    def run_traced(self, plain: Rep) -> Rep:
        tracer = Tracer()
        started = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        results = []
        for name, suite in SUITES:
            results += tracer.call(name, suite, rng, self.samples)
        wall = time.perf_counter() - started
        tracer.counts["verification.samples"] = self.samples
        failures = self._check(results)
        if self._summary(results) != plain.fingerprint:
            failures.append("traced suite sequence differs from run_all()")
        layers = _layer_values(tracer)
        layers["physics.is_admissible.scan_ms"] = 0.0
        layers["problems.error_norms.s"] = 0.0
        layers["mesh_solver.Field.from_primitives.averaged.s"] = 0.0
        return Rep(wall, wall, self.samples, failures, plain.fingerprint, layers)


WORKLOADS = {w.name: w for w in (Rp2Snapshots, Verify)}
