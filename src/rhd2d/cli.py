"""Command line front end: run, converge, verify, compare-symmetry.

Configuration precedence is flags over config file over defaults, with
fail-fast validation.  Exit codes: 0 success, 2 validation error, 3 PCP
audit failure, 4 recovery failure.
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from . import output, problems, verification
from .errors import (
    AdmissibilityError,
    CflViolationError,
    ConfigurationError,
    PcpAuditError,
    RecoveryConvergenceError,
    RhdError,
)
from .mesh_solver import Grid, SolverConfig, run as run_solver

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PCP = 3
EXIT_RECOVERY = 4

_EMIT_CHOICES = ("field", "cuts", "report", "schlieren", "schlieren_data")
_MODE_ALIASES = {
    "multidimensional": "multidimensional",
    "split": "dimension_split",
    "dimension_split": "dimension_split",
}


@dataclass
class RunConfig:
    """Validated description of a single run."""

    problem: str = ""
    n: int = 100
    n_x: Optional[int] = None
    n_y: Optional[int] = None
    cfl_sigma: float = 0.45
    alpha: float = 2.0
    mode: str = "multidimensional"
    pcp_audit: bool = True
    t_end: Optional[float] = None
    snapshots: tuple = ()
    out_dir: str = "."
    emit: tuple = ("field", "report")
    levels: int = 4
    samples: int = 100_000
    seed: int = 20260808

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            cfl_sigma=self.cfl_sigma,
            alpha=self.alpha,
            mode=self.mode,
            pcp_audit=self.pcp_audit,
        )

    def grid_for(self, spec) -> Grid:
        if self.n_x is not None or self.n_y is not None:
            if self.n_x is None or self.n_y is None:
                raise ConfigurationError("--nx and --ny must be given together")
            return Grid(self.n_x, self.n_y, spec.x_min, spec.x_max, spec.y_min, spec.y_max)
        return spec.default_grid(self.n)


_FILE_KEYS = {
    "problem": str,
    "n": int,
    "n_x": int,
    "n_y": int,
    "cfl_sigma": float,
    "alpha": float,
    "mode": str,
    "pcp_audit": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "t_end": float,
    "snapshots": lambda v: tuple(float(t) for t in v.split(",") if t.strip()),
    "out_dir": str,
    "emit": lambda v: tuple(s.strip() for s in v.split(",") if s.strip()),
    "levels": int,
    "samples": int,
    "seed": int,
}


def _parse_value(key: str, text: str, origin: str):
    """Parse one key's text as a config-file line or a flag gives it."""
    try:
        return _FILE_KEYS[key](text)
    except ValueError as exc:
        raise ConfigurationError(f"{origin}: bad value for {key!r}: {text!r}") from exc


def _read_config_file(path) -> dict:
    """Flat `key = value` UTF-8 file; unknown keys are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, value, f"{path}:{lineno}")
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigurationError instead of exiting.

    Subparsers inherit the class, so every usage error reaches main() and
    exits 2 like any other validation error.
    """

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhd2d",
        description="Finite-volume solver for 2D special relativistic hydrodynamics "
        "with a PCP multidimensional HLL Riemann solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_problem=True):
        if with_problem:
            p.add_argument("--problem", help=f"one of {', '.join(problems.problem_names())}")
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--n", type=int, help="cells across x (y scaled to square cells)")
        p.add_argument("--nx", dest="n_x", type=int, help="cells in x (with --ny)")
        p.add_argument("--ny", dest="n_y", type=int, help="cells in y (with --nx)")
        p.add_argument("--cfl", dest="cfl_sigma", type=float, help="CFL number (default 0.45)")
        p.add_argument("--alpha", type=float, help="wave-speed amplifier (default 2)")
        p.add_argument("--mode", choices=sorted(_MODE_ALIASES), help="solver mode")
        p.add_argument("--no-pcp-audit", dest="pcp_audit", action="store_false", default=None)
        p.add_argument("--t-end", dest="t_end", type=float, help="final time")
        p.add_argument("--out", dest="out_dir", help="output directory (default .)")

    runp = sub.add_parser("run", help="run one simulation and emit data files")
    add_common(runp)
    runp.add_argument("--snapshots", help="comma-separated intermediate output times")
    runp.add_argument(
        "--emit", help=f"comma-separated subset of {', '.join(_EMIT_CHOICES)} (default field,report)"
    )

    convp = sub.add_parser("converge", help="mesh-doubling error/order study")
    add_common(convp)
    convp.add_argument("--levels", type=int, help="number of meshes N, 2N, 4N, ... (default 4)")

    verp = sub.add_parser("verify", help="randomized property suites")
    verp.add_argument("--samples", type=int, help="draws per suite (default 100000)")
    verp.add_argument("--seed", type=int, help="RNG seed")
    verp.add_argument("--out", dest="out_dir", help="optional report directory")
    verp.add_argument("--config", help="flat key = value configuration file")

    symp = sub.add_parser(
        "compare-symmetry", help="explosion test in both modes; reports the deviation ratio"
    )
    add_common(symp, with_problem=False)
    return parser


def parse_config(argv: Sequence[str]) -> "tuple[str, RunConfig]":
    """Parse argv (+ optional config file) into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    values = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _FILE_KEYS:
        flag = getattr(args, key, None)
        if isinstance(flag, str):  # flag text reads like the config-file value
            flag = _parse_value(key, flag, "command line")
        if flag is not None:
            values[key] = flag

    if "mode" in values:
        mode = values["mode"]
        if mode not in _MODE_ALIASES:
            raise ConfigurationError(f"unknown mode {mode!r}")
        values["mode"] = _MODE_ALIASES[mode]
    for name in values.get("emit", ()):
        if name not in _EMIT_CHOICES:
            raise ConfigurationError(f"unknown emit target {name!r}")

    if args.command == "compare-symmetry":
        values.setdefault("problem", "explosion")
        values.setdefault("n", 64)
    if args.command in ("run", "converge") and not values.get("problem"):
        raise ConfigurationError("a problem name is required (--problem)")

    config = RunConfig(**values)
    config.solver_config()  # fail fast on invariant violations
    if config.levels < 1:
        raise ConfigurationError("--levels must be at least 1")
    if config.samples < 1:
        raise ConfigurationError("--samples must be at least 1")
    return args.command, config


def _ensure_out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _diagnostics_entries(result) -> dict:
    return {f"diag_{key}": value for key, value in asdict(result.diagnostics).items()}


def _cmd_run(config: RunConfig) -> int:
    spec = problems.problem_by_name(config.problem)
    grid = config.grid_for(spec)
    out = _ensure_out_dir(config)
    solver_config = config.solver_config()
    t_end = config.t_end if config.t_end is not None else spec.t_end

    emitted = []

    def on_snapshot(field):
        if field.time != t_end and "field" in config.emit:
            path = out / f"field_t{field.time:.12g}.dat"
            output.write_field(field, spec.eos, path)
            emitted.append(path)

    started = _time.perf_counter()
    result = run_solver(
        spec,
        grid,
        solver_config,
        t_end=t_end,
        snapshot_times=config.snapshots,
        on_snapshot=on_snapshot,
    )
    elapsed = _time.perf_counter() - started

    if "field" in config.emit:
        output.write_field(result.field, spec.eos, out / "field.dat")
    if "cuts" in config.emit:
        output.write_cuts(result.field, spec.eos, out / "cuts.dat")
    if "schlieren" in config.emit or "schlieren_data" in config.emit:
        output.write_schlieren(result.field, spec.eos, out / "schlieren.dat")
    if "report" in config.emit:
        entries = {
            "problem": spec.name,
            "n_x": grid.n_x,
            "n_y": grid.n_y,
            "cfl_sigma": solver_config.cfl_sigma,
            "alpha": solver_config.alpha,
            "mode": solver_config.mode,
            "t_end": float(t_end),
            "wall_seconds": elapsed,
        }
        if spec.exact is not None:
            norms = problems.error_norms(result.field, spec.eos, spec.exact)
            entries.update(l1_error=norms.l1, l2_error=norms.l2, linf_error=norms.linf)
        entries.update(_diagnostics_entries(result))
        output.write_report(entries, out / "report.txt")
    print(
        f"{spec.name}: {grid.n_x}x{grid.n_y} to t = {t_end:g} in {result.diagnostics.steps} steps "
        f"({elapsed:.2f} s); min rho {result.diagnostics.min_density:.3e}, "
        f"min p {result.diagnostics.min_pressure:.3e}, max gamma {result.diagnostics.max_lorentz:.3f}"
    )
    return EXIT_OK


def _cmd_converge(config: RunConfig) -> int:
    spec = problems.problem_by_name(config.problem)
    if spec.exact is None:
        raise ConfigurationError(f"problem {spec.name!r} has no exact solution to converge against")
    out = _ensure_out_dir(config)
    solver_config = config.solver_config()
    t_end = config.t_end if config.t_end is not None else spec.t_end

    sizes = [config.n * 2**level for level in range(config.levels)]
    errors = {"l1": [], "l2": [], "linf": []}
    for n in sizes:
        result = run_solver(spec, spec.default_grid(n), solver_config, t_end=t_end)
        norms = problems.error_norms(result.field, spec.eos, spec.exact)
        for key, value in zip(errors, norms):
            errors[key].append(value)

    orders = {key: problems.convergence_orders(vals) for key, vals in errors.items()}
    entries = {
        "problem": spec.name,
        "t_end": float(t_end),
        "cfl_sigma": solver_config.cfl_sigma,
        "alpha": solver_config.alpha,
        "mode": solver_config.mode,
    }
    header = f"{'N':>6} " + " ".join(f"{k + ' error':>13} {k + ' order':>11}" for k in errors)
    print(header)
    for row, n in enumerate(sizes):
        cells = [f"{n:>6}"]
        for key in errors:
            entries[f"{key}_error_n{n}"] = errors[key][row]
            cells.append(f"{errors[key][row]:>13.4e}")
            if row == 0:
                cells.append(f"{'-':>11}")
            else:
                entries[f"{key}_order_n{n}"] = orders[key][row - 1]
                cells.append(f"{orders[key][row - 1]:>11.3f}")
        print(" ".join(cells))
    output.write_report(entries, out / "convergence.txt")
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    results = verification.run_all(seed=config.seed, samples=config.samples)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    if config.out_dir != ".":
        out = _ensure_out_dir(config)
        entries = {r.name.replace(" ", "_"): r.failures for r in results}
        output.write_report(entries, out / "verify.txt")
    if failed:
        if any("round trip" in r.name or "residual" in r.name for r in failed):
            return EXIT_RECOVERY
        return EXIT_PCP
    print(f"all {len(results)} suites passed")
    return EXIT_OK


def _cmd_compare_symmetry(config: RunConfig) -> int:
    spec = problems.problem_by_name("explosion")
    grid = config.grid_for(spec)
    t_end = config.t_end if config.t_end is not None else spec.t_end
    deviations = {}
    for mode in ("multidimensional", "dimension_split"):
        solver_config = replace(config.solver_config(), mode=mode)
        result = run_solver(spec, grid, solver_config, t_end=t_end)
        deviations[mode] = problems.symmetry_deviation(result.field, spec.eos)
        print(f"{mode}: symmetry deviation {deviations[mode]:.6e}")
    ratio = deviations["multidimensional"] / deviations["dimension_split"]
    print(f"deviation ratio (multidimensional / dimension_split) = {ratio:.4f}")
    if config.out_dir != ".":
        out = _ensure_out_dir(config)
        output.write_report(
            {
                "deviation_multidimensional": deviations["multidimensional"],
                "deviation_dimension_split": deviations["dimension_split"],
                "deviation_ratio": ratio,
            },
            out / "symmetry.txt",
        )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, config = parse_config(list(argv))
        if command == "run":
            return _cmd_run(config)
        if command == "converge":
            return _cmd_converge(config)
        if command == "verify":
            return _cmd_verify(config)
        if command == "compare-symmetry":
            return _cmd_compare_symmetry(config)
        raise ConfigurationError(f"unknown command {command!r}")
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PcpAuditError, CflViolationError) as exc:
        print(f"PCP audit failure: {exc}", file=sys.stderr)
        return EXIT_PCP
    except (RecoveryConvergenceError, AdmissibilityError) as exc:
        print(f"recovery failure: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except RhdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
