"""rhd2d benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload rp2-snapshots --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload repeats for about `--seconds` (at least
once).  Every repetition is checked; one that fails its gate or raises
counts as a failed operation.  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: with `--trace 0`
the end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
replay.  The line before it records the environment and the exact counts.
See perfbench/README.md for the definition of every metric.
"""

import os

# Pinned before numpy is imported, here and in the set-up probes we spawn.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("rp2-snapshots", "verify")
PROBE_TIMEOUT_S = 60
SETUP_PROBES = 21  # at least this many set-up probes per run

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "wall_s": "s",
    "mcups": "M/s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "mesh_solver.steps": "count",
    "mesh_solver.cell_updates": "count",
    "mesh_solver.fill_ghosts.s": "s",
    "mesh_solver.fill_ghosts.share": "ratio",
    "recovery.recover_with_iterations.s": "s",
    "recovery.recover_with_iterations.share": "ratio",
    "mesh_solver.compute_dt.s": "s",
    "mesh_solver.compute_dt.share": "ratio",
    "mesh_solver.assemble_fluxes.s": "s",
    "mesh_solver.assemble_fluxes.share": "ratio",
    "mesh_solver.step.s": "s",
    "mesh_solver.step.share": "ratio",
    "recovery.sweeps_total": "count",
    "recovery.sweeps_max": "count",
    "recovery.sweeps_per_step": "count",
    "mesh_solver.corner_two_sided_ratio": "ratio",
    "physics.is_admissible.scan_ms": "ms",
    "mesh_solver.Field.from_primitives.s": "s",
    "mesh_solver.Field.from_primitives.averaged.s": "s",
    "problems.error_norms.s": "s",
    "output.write_field.s": "s",
    "output.write_field.bytes": "bytes",
    "verification.admissible_set_suite.s": "s",
    "verification.corner_solver_suite.s": "s",
    "verification.recovery_suite.s": "s",
    "verification.samples": "count",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    """Import rhd2d from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "rhd2d" / "__init__.py").is_file():
        raise SystemExit(f"error: no rhd2d sources under {src}")
    sys.path.insert(0, str(src))
    import rhd2d

    if Path(rhd2d.__file__).resolve().parent != (src / "rhd2d").resolve():
        raise SystemExit(f"error: rhd2d imported from {rhd2d.__file__}, not from {src}")
    return rhd2d


def report_setup_time(workload: str, size: str, seed: int) -> None:
    """In the probe child: time `import rhd2d` plus the workload's initial state.

    numpy, a dependency whose import cost rhd2d does not control, is loaded
    before the clock starts.
    """
    import numpy  # noqa: F401

    started = time.perf_counter()
    import_package()
    import workloads

    workloads.WORKLOADS[workload](size, seed, None).setup()
    print(time.perf_counter() - started)


def probe_setup(workload: str, size: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, where `import rhd2d` is not yet paid."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--size", size, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def attempt(fn, *args):
    """Run one repetition; an exception is a failed repetition, not a crash."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - every failure of the program counts as a failed operation
        traceback.print_exc(file=sys.stderr)
        return None


def measure(workload, seconds: float, traced: bool, after_each=None):
    """Repeat the workload for about `seconds`, at least once.

    With `traced`, every plain repetition that passed is followed by a
    traced one, which must reproduce it.  `after_each` runs after every
    round, inside the measured window.  No round starts that would end more
    than half a round past the deadline.  Returns the passing plain and
    traced repetitions and the counts of attempted and failed ones.
    """
    plain, traced_reps = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        round_started = time.perf_counter()
        rep = attempt(workload.run_plain)
        attempted += 1
        if rep is not None and plain and rep.fingerprint != plain[0].fingerprint:
            rep.failures.append("result differs from the first repetition's")
        if rep is None or rep.failures:
            failed += 1
            if rep is not None:
                print(f"{workload.name}: " + "; ".join(rep.failures), file=sys.stderr)
        else:
            plain.append(rep)
            if traced:
                trep = attempt(workload.run_traced, rep)
                attempted += 1
                if trep is None or trep.failures:
                    failed += 1
                    if trep is not None:
                        print(f"{workload.name} traced: " + "; ".join(trep.failures), file=sys.stderr)
                else:
                    traced_reps.append(trep)
        if after_each is not None:
            after_each()
        now = time.perf_counter()
        if now + 0.5 * (now - round_started) >= deadline:
            return plain, traced_reps, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_probe:
        report_setup_time(args.workload, args.size, args.seed)
        return 0

    import_package()
    import numpy
    import workloads

    out_root = BENCH_DIR / ".out"
    out_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        # Warm-up: imports done above, then one toy-size repetition untimed.
        attempt(workloads.WORKLOADS[args.workload]("toy", args.seed, out_dir).run_plain)
        # Set-up is probed in fresh interpreters: half of SETUP_PROBES
        # before the measured window, one per round inside it, and the rest
        # after it, so that the median spans the same stretch of machine
        # time as the repetitions even when there is one round.
        setup_times = []
        probe = None if args.trace else (
            lambda: setup_times.append(probe_setup(args.workload, args.size, args.seed))
        )
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, out_dir)
        while probe is not None and len(setup_times) < SETUP_PROBES // 2:
            probe()
        plain, traced, attempted, failed = measure(workload, args.seconds, bool(args.trace), probe)
        while probe is not None and len(setup_times) < SETUP_PROBES:
            probe()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass

    reps = traced if args.trace else plain
    correct = failed == 0 and bool(reps)
    metrics = {}
    if reps:
        median = statistics.median
        if args.trace:
            for name in PER_LAYER:
                if name != "trace.overhead_ratio":
                    metrics[name] = median([r.layers[name] for r in traced])
            metrics["trace.overhead_ratio"] = (
                median([r.wall_s for r in traced]) / median([r.wall_s for r in plain])
            )
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": median([r.wall_s for r in plain]),
                "mcups": median([r.items / r.compute_s / 1e6 for r in plain]),
                "samples_per_s": median([r.items / r.wall_s for r in plain]),
                "setup_s": median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        metrics = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}

    info = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "repetitions": len(reps),
        "items_per_repetition": reps[0].items if reps else 0,
        "env": environment(numpy.__version__),
    }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
