"""Command line front end: run, converge, verify, compare-symmetry.

Every setting is declared once, as a `RunConfig` field: its name is the
config-file key, its default the default, and its metadata hold its flag,
the commands that read it, the parser of its text and its help.  A flag's
text is parsed exactly as the config-file line `key = text` is, so
`--no-pcp-audit` reads like `pcp_audit = false`.  A setting that the
command does not read is rejected, from a flag or from a file.  Flags
override an optional flat `key = value` file (`--config`), which overrides
the defaults.  Exit codes: 0 success, 2 validation error (an `--out` that
cannot be made included), 3 PCP audit failure, 4 recovery failure.
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import output, problems, verification
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    PcpAuditError,
    RecoveryConvergenceError,
    RhdError,
)
from .mesh_solver import MODES, Grid, SolverConfig, run as run_solver

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PCP = 3
EXIT_RECOVERY = 4

_EMIT_CHOICES = ("field", "cuts", "report", "schlieren")
_MODE_ALIASES = {**{mode: mode for mode in MODES}, "split": "dimension_split"}
_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def _items(text: str) -> tuple:
    """The stripped, non-blank items of a comma-separated list."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _emit(text: str) -> tuple:
    names = _items(text)
    if not set(names) <= set(_EMIT_CHOICES):
        raise ValueError(text)
    return names


def _count(text: str) -> int:
    """An integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _setting(default, flag: str, commands: tuple, parse: Callable, help: str):
    """A RunConfig field read by `commands`; a "--no-" flag takes no value and means "false"."""
    return field(default=default,
                 metadata={"flag": flag, "commands": commands, "parse": parse, "help": help})


_SOLVE = ("run", "converge", "compare-symmetry")


@dataclass
class RunConfig:
    """Validated description of a single run."""

    problem: str = _setting("", "--problem", ("run", "converge"), str,
                            f"one of {', '.join(problems.problem_names())}")
    n: int = _setting(100, "--n", _SOLVE, int, "cells across x (y scaled to square cells)")
    n_x: Optional[int] = _setting(None, "--nx", ("run", "compare-symmetry"), int,
                                  "cells in x (with --ny)")
    n_y: Optional[int] = _setting(None, "--ny", ("run", "compare-symmetry"), int,
                                  "cells in y (with --nx)")
    cfl_sigma: float = _setting(SolverConfig.cfl_sigma, "--cfl", _SOLVE, float, "CFL number")
    alpha: float = _setting(SolverConfig.alpha, "--alpha", _SOLVE, float, "wave-speed amplifier")
    mode: str = _setting(SolverConfig.mode, "--mode", ("run", "converge"),
                         lambda text: _MODE_ALIASES[text],
                         f"solver mode, one of {', '.join(_MODE_ALIASES)}")
    pcp_audit: bool = _setting(SolverConfig.pcp_audit, "--no-pcp-audit", _SOLVE,
                               lambda text: _BOOLEANS[text.lower()],
                               "switch the per-step PCP audit off")
    t_end: Optional[float] = _setting(None, "--t-end", _SOLVE, float,
                                      "final time (default: the problem's)")
    snapshots: tuple = _setting((), "--snapshots", ("run",),
                                lambda text: tuple(float(t) for t in _items(text)),
                                "comma-separated output times in [0, t_end]")
    out_dir: Optional[str] = _setting(".", "--out", (*_SOLVE, "verify"), str, "output directory")
    emit: tuple = _setting(("field", "report"), "--emit", ("run",), _emit,
                           f"comma-separated subset of {', '.join(_EMIT_CHOICES)}")
    levels: int = _setting(4, "--levels", ("converge",), _count, "number of meshes N, 2N, 4N, ...")
    samples: int = _setting(100_000, "--samples", ("verify",), _count, "draws per suite")
    seed: int = _setting(20260808, "--seed", ("verify",), int, "RNG seed")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(cfl_sigma=self.cfl_sigma, alpha=self.alpha, mode=self.mode,
                            pcp_audit=self.pcp_audit)

    def grid_for(self, spec) -> Grid:
        if self.n_x is not None or self.n_y is not None:
            if self.n_x is None or self.n_y is None:
                raise ConfigurationError("--nx and --ny must be given together")
            return Grid(self.n_x, self.n_y, spec.x_min, spec.x_max, spec.y_min, spec.y_max)
        return spec.default_grid(self.n)


# config-file key: its flag, commands, parser and help
_SETTINGS = {f.name: f.metadata for f in fields(RunConfig)}


def _settings_of(command: str) -> dict:
    return {key: s for key, s in _SETTINGS.items() if command in s["commands"]}


def _parse_value(key: str, text: str, origin: str):
    """Parse one setting's text, from a config-file line or a flag alike."""
    try:
        return _SETTINGS[key]["parse"](text)
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(f"{origin}: bad value for {key!r}: {text!r}") from exc


def _read_config_file(path, command: str) -> dict:
    """Flat `key = value` UTF-8 file; rejects unknown, repeated and unread keys."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    reads = _settings_of(command)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in reads:
            raise ConfigurationError(f"{path}:{lineno}: {command} does not read {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = _parse_value(key, value, f"{path}:{lineno}")
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ConfigurationError instead of exiting.

    Subparsers inherit the class, so every usage error reaches main() and
    exits 2 like any other validation error.
    """

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _with_default(text: str, default) -> str:
    shown = ",".join(default) if isinstance(default, tuple) else default
    return text if shown in (None, "") else f"{text} (default {shown})"


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a text-valued flag per setting it reads."""
    parser = _Parser(
        prog="rhd2d",
        description="Finite-volume solver for 2D special relativistic hydrodynamics "
        "with a PCP multidimensional HLL Riemann solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key = value configuration file")
        base = RunConfig(**defaults)
        for key, s in _settings_of(command).items():
            if s["flag"].startswith("--no-"):
                p.add_argument(s["flag"], dest=key, action="store_const", const="false",
                               help=s["help"])
            else:
                p.add_argument(s["flag"], dest=key,
                               help=_with_default(s["help"], getattr(base, key)))
    return parser


def parse_config(argv: Sequence[str]) -> "tuple[str, RunConfig]":
    """Parse argv (+ optional config file) into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    command, reads = args.command, _settings_of(args.command)
    values = dict(_COMMANDS[command][2])
    if args.config:
        values.update(_read_config_file(args.config, command))
    for key, s in reads.items():
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse_value(key, text, f"argument {s['flag']}")
    if "problem" in reads and not values.get("problem"):
        raise ConfigurationError("a problem name is required (--problem)")
    config = RunConfig(**values)
    config.solver_config()  # fail fast on invariant violations
    return command, config


def _problem_setup(config: RunConfig):
    """(spec, t_end, solver config) of a command that runs the solver."""
    spec = problems.problem_by_name(config.problem)
    t_end = config.t_end if config.t_end is not None else spec.t_end
    return spec, t_end, config.solver_config()


def _ensure_out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(config: RunConfig) -> int:
    spec, t_end, solver_config = _problem_setup(config)
    grid = config.grid_for(spec)
    if "cuts" in config.emit:
        problems.check_cut_grid(grid)
    out = Path(config.out_dir)

    def on_snapshot(field):
        out.mkdir(parents=True, exist_ok=True)  # run() has accepted the times; t_end always fires
        if field.time != t_end and "field" in config.emit:
            output.write_field(field, spec.eos, out / f"field_t{field.time:.12g}.dat")

    started = _time.perf_counter()
    result = run_solver(spec, grid, solver_config, t_end=t_end, snapshot_times=config.snapshots,
                        on_snapshot=on_snapshot)
    elapsed = _time.perf_counter() - started

    if "field" in config.emit:
        output.write_field(result.field, spec.eos, out / "field.dat")
    if "cuts" in config.emit:
        output.write_cuts(result.field, spec.eos, out / "cuts.dat")
    if "schlieren" in config.emit:
        output.write_schlieren(result.field, spec.eos, out / "schlieren.dat")
    if "report" in config.emit:
        entries = {
            "problem": spec.name,
            "n_x": grid.n_x,
            "n_y": grid.n_y,
            "cfl_sigma": solver_config.cfl_sigma,
            "alpha": solver_config.alpha,
            "mode": solver_config.mode,
            "pcp_audit": solver_config.pcp_audit,
            "t_end": float(t_end),
            "wall_seconds": elapsed,
        }
        if spec.exact is not None:
            norms = problems.error_norms(result.field, spec.eos, spec.exact)
            entries.update(l1_error=norms.l1, l2_error=norms.l2, linf_error=norms.linf)
        entries.update({f"diag_{key}": value for key, value in asdict(result.diagnostics).items()})
        output.write_report(entries, out / "report.txt")
    print(
        f"{spec.name}: {grid.n_x}x{grid.n_y} to t = {t_end:g} in {result.diagnostics.steps} steps "
        f"({elapsed:.2f} s); min rho {result.diagnostics.min_density:.3e}, "
        f"min p {result.diagnostics.min_pressure:.3e}, max gamma {result.diagnostics.max_lorentz:.3f}"
    )
    return EXIT_OK


def _cmd_converge(config: RunConfig) -> int:
    spec, t_end, solver_config = _problem_setup(config)
    if spec.exact is None:
        raise ConfigurationError(f"problem {spec.name!r} has no exact solution to converge against")

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
    output.write_report(entries, _ensure_out_dir(config) / "convergence.txt")
    return EXIT_OK


def _optional_report(config: RunConfig, entries: dict, name: str) -> None:
    """Write a report only when an output directory was asked for."""
    if config.out_dir is not None:
        output.write_report(entries, _ensure_out_dir(config) / name)


def _cmd_verify(config: RunConfig) -> int:
    results = verification.run_all(seed=config.seed, samples=config.samples)
    for result in results:
        print(result.line())
    _optional_report(config, {r.name.replace(" ", "_"): r.failures for r in results}, "verify.txt")
    failed = [r for r in results if not r.passed]
    if failed:
        if any("round trip" in r.name or "residual" in r.name for r in failed):
            return EXIT_RECOVERY
        return EXIT_PCP
    print(f"all {len(results)} suites passed")
    return EXIT_OK


def _cmd_compare_symmetry(config: RunConfig) -> int:
    spec, t_end, solver_config = _problem_setup(config)
    grid = config.grid_for(spec)
    problems.check_cut_grid(grid)
    deviations = {}
    for mode in MODES:
        result = run_solver(spec, grid, replace(solver_config, mode=mode), t_end=t_end)
        deviations[mode] = problems.symmetry_deviation(result.field, spec.eos)
        print(f"{mode}: symmetry deviation {deviations[mode]:.6e}")
    ratio = deviations["multidimensional"] / deviations["dimension_split"]
    print(f"deviation ratio (multidimensional / dimension_split) = {ratio:.4f}")
    entries = {f"deviation_{mode}": deviation for mode, deviation in deviations.items()}
    _optional_report(config, {**entries, "deviation_ratio": ratio}, "symmetry.txt")
    return EXIT_OK


# command: (handler, help, defaults that replace RunConfig's)
_COMMANDS = {
    "run": (_cmd_run, "run one simulation and emit data files", {}),
    "converge": (_cmd_converge, "mesh-doubling error/order study", {}),
    "verify": (_cmd_verify, "randomized property suites", {"out_dir": None}),
    "compare-symmetry": (
        _cmd_compare_symmetry,
        "explosion test in both modes; reports the deviation ratio",
        {"problem": "explosion", "n": 64, "out_dir": None},
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, config = parse_config(list(argv))
        return _COMMANDS[command][0](config)
    except PcpAuditError as exc:
        print(f"PCP audit failure: {exc}", file=sys.stderr)
        return EXIT_PCP
    # AdmissibilityError is a ValueError too, so it must be caught first.
    except (RecoveryConvergenceError, AdmissibilityError) as exc:
        print(f"recovery failure: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except (RhdError, ValueError, OSError) as exc:  # a bad setting, or an --out it cannot make
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
