from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_close
from rhd2d import cli, output, physics, problems, verification
from rhd2d.errors import (
    AdmissibilityError,
    ConfigurationError,
    PcpAuditError,
    RecoveryConvergenceError,
)
from rhd2d.mesh_solver import Field, Grid, SolverConfig, run
from rhd2d.recovery import recover_with_iterations


@pytest.fixture
def small_run():
    spec = problems.problem_by_name("rp1")
    grid = Grid(6, 6, -1.0, 1.0, -1.0, 1.0)
    result = run(spec, grid, SolverConfig(), t_end=0.05)
    return spec, result.field


class TestWriteField:
    def test_layout_and_header(self, tmp_path, eos53):
        grid = Grid(2, 2, 0.0, 1.0, 0.0, 1.0)
        field = Field.from_primitives(
            grid,
            lambda x, y: np.broadcast_to([1.0, 0.0, 0.0, 1.0],
                                         np.broadcast_shapes(x.shape, y.shape) + (4,)),
            eos53,
        )
        path = tmp_path / "field.dat"
        output.write_field(field, eos53, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        meta, data = output.read_field(path)
        assert meta["n_x"] == 2 and meta["gamma"] == eos53.gamma_adiabatic
        assert data.shape == (4, 10)
        # j-outer, i-inner ordering: x varies fastest
        assert_close(data[:, 0], [0.25, 0.75, 0.25, 0.75], rel=1e-15)
        assert_close(data[:, 1], [0.25, 0.25, 0.75, 0.75], rel=1e-15)
        # all state columns identical for the uniform field
        assert np.all(data[:, 2:] == data[0, 2:])

    def test_round_trip_consistency(self, tmp_path, small_run):
        """Printed primitives and conserved values agree under the forward map."""
        spec, field = small_run
        path = tmp_path / "field.dat"
        output.write_field(field, spec.eos, path)
        _, data = output.read_field(path)
        prim = data[:, 2:6]
        cons = data[:, 6:10]
        again = physics.prim_to_cons(prim, spec.eos)
        scale = np.max(np.abs(cons), axis=1, keepdims=True)
        assert np.max(np.abs(again - cons) / scale) < 1e-14

    def test_byte_identical_reruns(self, tmp_path):
        spec = problems.problem_by_name("rp2")
        grid = Grid(8, 8, -1.0, 1.0, -1.0, 1.0)
        blobs = []
        for tag in ("a", "b"):
            result = run(spec, grid, SolverConfig(), t_end=0.05)
            path = tmp_path / f"field_{tag}.dat"
            output.write_field(result.field, spec.eos, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


    def test_bytes_match_per_value_formatting(self, tmp_path, eos53):
        """Row-at-a-time formatting writes what "%.17g" per value writes."""
        grid = Grid(3, 2, -0.1, 0.2, 1.0 / 3.0, 1.7)
        prim = np.array([
            [[1e-300, -0.0, 0.0, 1.0], [1.0 / 3.0, 0.1234567890123456, -0.0, 2.0 / 3.0]],
            [[1e150, 0.0, -0.5, 3e149], [1.0, -0.9, 0.3, 1e-5]],
            [[2.0, 0.0, 0.0, 1.0], [0.7, 0.6, -0.5, 0.3]],
        ])
        cells = np.zeros((5, 4, 4))
        cells[1:-1, 1:-1] = physics.prim_to_cons(prim, eos53)
        field = Field(grid, cells, time=1.0 / 7.0)
        path = tmp_path / "field.dat"
        output.write_field(field, eos53, path)

        def fmt(value):
            return "%.17g" % float(value)

        back, _ = recover_with_iterations(field.interior, eos53)
        header = ["#", "3", "2"] + [fmt(v) for v in (-0.1, 0.2, 1.0 / 3.0, 1.7, 1.0 / 7.0,
                                                      eos53.gamma_adiabatic)]
        lines = [" ".join(header)]
        xs, ys = grid.centers_x(), grid.centers_y()
        for j in range(grid.n_y):
            for i in range(grid.n_x):
                values = (xs[i], ys[j], *back[i, j], *field.interior[i, j])
                lines.append(" ".join(fmt(v) for v in values))
        text = path.read_text()
        assert text == "\n".join(lines) + "\n"
        assert " -0 " in text and " 1e-300 " in text and " 0.12345678901234557 " in text


class TestCutsAndSchlieren:
    def test_cut_blocks(self, tmp_path, small_run):
        spec, field = small_run
        path = tmp_path / "cuts.dat"
        output.write_cuts(field, spec.eos, path)
        text = path.read_text()
        assert "# cut: y-axis" in text and "# cut: diagonal" in text
        blocks = text.strip().split("\n\n")
        for block in blocks:
            rows = [line.split() for line in block.splitlines() if not line.startswith("#")]
            assert len(rows) == field.grid.n_y
            assert all(len(row) == 2 for row in rows)

    def test_cuts_need_cells_on_the_diagonal(self, tmp_path, capsys):
        """On a jet grid the cells (i, i) lie on y = 2.5 x, not on y = x."""
        code = cli.main(["run", "--problem", "jet-hot-i", "--nx", "8", "--ny", "8", "--t-end", "0",
                         "--emit", "cuts", "--out", str(tmp_path)])
        assert code == 2
        assert "x_min = y_min" in capsys.readouterr().err
        assert not (tmp_path / "cuts.dat").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "jet-hot-i", "--nx", "8", "--ny", "8", "--t-end", "2",
         "--emit", "cuts,field"],
        ["compare-symmetry", "--nx", "8", "--ny", "6"],
    ])
    def test_bad_cut_grid_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        solve = cli.run_solver

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "run_solver", counted)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        assert "x_min = y_min" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "field.dat").exists()

    def test_schlieren_columns(self, tmp_path, small_run):
        spec, field = small_run
        path = tmp_path / "schlieren.dat"
        output.write_schlieren(field, spec.eos, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# x y ln_rho ln_p grad_rho_mag"
        data = np.loadtxt(lines[1:])
        assert data.shape == (36, 5)
        assert np.all(np.isfinite(data))

    def test_report_format(self, tmp_path):
        path = tmp_path / "report.txt"
        output.write_report({"steps": 12, "l1_error": 0.5, "mode": "multidimensional"}, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "steps = 12"
        assert lines[1] == "l1_error = 0.5"
        assert lines[2] == "mode = multidimensional"


class TestParseConfig:
    def test_defaults(self):
        command, config = cli.parse_config(["run", "--problem", "sine", "--n", "80", "--t-end", "0.1"])
        assert command == "run"
        assert config.problem == "sine" and config.n == 80
        assert config.cfl_sigma == 0.45 and config.alpha == 2.0
        assert config.mode == "multidimensional" and config.t_end == 0.1

    def test_split_alias(self):
        _, config = cli.parse_config(
            ["run", "--problem", "rp2", "--n", "400", "--t-end", "0.8", "--mode", "split"]
        )
        assert config.mode == "dimension_split"

    def test_cfl_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            cli.parse_config(["run", "--problem", "sine", "--cfl", "1.5"])

    def test_config_file_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = sine\nn = 32\ncfl_sigma = 0.3\n# comment\nmode = split\n")
        _, config = cli.parse_config(["run", "--config", str(cfg), "--cfl", "0.25"])
        assert config.problem == "sine" and config.n == 32
        assert config.cfl_sigma == 0.25  # flag wins over file
        assert config.mode == "dimension_split"

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = sine\nwavelet = 3\n")
        with pytest.raises(ConfigurationError):
            cli.parse_config(["run", "--config", str(cfg)])

    def test_missing_problem_rejected(self):
        with pytest.raises(ConfigurationError):
            cli.parse_config(["run", "--n", "10"])

    @pytest.mark.parametrize(
        "key, text", [("snapshots", "0.05,"), ("snapshots", "0.02, 0.05"), ("emit", "report,"),
                      ("emit", "field, cuts")]
    )
    def test_flag_parses_like_config_file_line(self, tmp_path, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = sine\n{key} = {text}\n")
        _, from_file = cli.parse_config(["run", "--config", str(cfg)])
        _, from_flag = cli.parse_config(["run", "--problem", "sine", f"--{key}", text])
        assert from_flag == from_file

    def test_bad_flag_value_is_a_configuration_error(self):
        """argparse's usage errors raise, where they used to exit the process."""
        with pytest.raises(ConfigurationError, match="--n"):
            cli.parse_config(["run", "--problem", "sine", "--n", "abc"])

    def test_bad_list_flag_is_a_configuration_error(self):
        """A list flag's text is checked like its config-file line, not left a ValueError."""
        with pytest.raises(ConfigurationError, match="snapshots"):
            cli.parse_config(["run", "--problem", "sine", "--snapshots", ":"])

    def test_unreadable_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"problem = sine\nmode = \x80\n")
        with pytest.raises(ConfigurationError, match="cannot read"):
            cli.parse_config(["run", "--config", str(cfg)])
        with pytest.raises(ConfigurationError, match="cannot read"):
            cli.parse_config(["run", "--config", str(tmp_path / "missing.cfg")])

    def test_nx_requires_ny(self):
        _, config = cli.parse_config(["run", "--problem", "sine", "--nx", "10"])
        with pytest.raises(ConfigurationError):
            config.grid_for(problems.problem_by_name("sine"))


# A command that reads each setting, and its flag; pcp_audit's flag takes no
# value, so only its file line is fuzzed.
_FLAGS = {key: (s["commands"][0], s["flag"]) for key, s in cli._SETTINGS.items()
          if not s["flag"].startswith("--no-")}
_NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "0", "0.5", "1e-320", "0x10", "1_0"]),
)
_VALUES = st.one_of(
    st.just(""), _NUMBERS, st.text(max_size=12), st.lists(_NUMBERS, max_size=3).map(",".join)
)
_FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


def parses_or_rejects(argv):
    """The CLI contract: a validated RunConfig or a ConfigurationError (exit 2)."""
    try:
        _, config = cli.parse_config(argv)
    except ConfigurationError:
        return
    assert isinstance(config, cli.RunConfig)


class TestParseConfigFuzz:
    @_FUZZ
    @given(key=st.sampled_from(sorted(cli._SETTINGS)), value=_VALUES)
    def test_config_file_line(self, tmp_path_factory, key, value):
        cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        problem = "" if key == "problem" else "problem = sine\n"  # a key's second line is an error
        cfg.write_text(f"{problem}{key} = {value}\n", encoding="utf-8")
        parses_or_rejects(["run", "--config", str(cfg)])

    @_FUZZ
    @given(content=st.binary(max_size=40))
    def test_config_file_bytes(self, tmp_path_factory, content):
        cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        cfg.write_bytes(b"problem = sine\n" + content)
        parses_or_rejects(["run", "--config", str(cfg)])

    @_FUZZ
    @given(key=st.sampled_from(sorted(_FLAGS)), value=_VALUES)
    def test_flag(self, key, value):
        command, flag = _FLAGS[key]
        problem = [] if command == "verify" or key == "problem" else ["--problem=sine"]
        parses_or_rejects([command, *problem, f"{flag}={value}"])


class TestCommands:
    def test_run_emits_files(self, tmp_path, capsys):
        code = cli.main([
            "run", "--problem", "sine", "--n", "12", "--t-end", "0.02",
            "--out", str(tmp_path), "--emit", "field,cuts,report,schlieren",
        ])
        assert code == 0
        for name in ("field.dat", "cuts.dat", "report.txt", "schlieren.dat"):
            assert (tmp_path / name).exists(), name
        report = (tmp_path / "report.txt").read_text()
        assert "l1_error" in report and "diag_steps" in report

    def test_run_snapshots(self, tmp_path):
        code = cli.main([
            "run", "--problem", "sine", "--n", "10", "--t-end", "0.02",
            "--snapshots", "0.01", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "field_t0.01.dat").exists()

    def test_snapshot_at_zero_writes_the_initial_field(self, tmp_path):
        argv = ["run", "--problem", "sine", "--n", "8", "--emit", "field"]
        assert cli.main([*argv, "--t-end", "0.02", "--snapshots", "0", "--out", str(tmp_path)]) == 0
        assert cli.main([*argv, "--t-end", "0", "--out", str(tmp_path / "initial")]) == 0
        initial = (tmp_path / "initial" / "field.dat").read_bytes()
        assert (tmp_path / "field_t0.dat").read_bytes() == initial

    def test_trailing_commas_in_list_flags(self, tmp_path):
        code = cli.main([
            "run", "--problem", "sine", "--n", "8", "--t-end", "0.1",
            "--snapshots", "0.05,", "--emit", "report,", "--out", str(tmp_path),
        ])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]

    def test_converge_report(self, tmp_path, capsys):
        code = cli.main([
            "converge", "--problem", "sine", "--n", "8", "--levels", "2",
            "--t-end", "0.02", "--out", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "convergence.txt").read_text()
        assert "l1_error_n8" in text and "l1_order_n16" in text
        table = capsys.readouterr().out
        assert "l1 error" in table

    def test_verify_small(self, tmp_path, capsys):
        code = cli.main(["verify", "--samples", "2000", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_compare_symmetry(self, tmp_path, capsys):
        code = cli.main([
            "compare-symmetry", "--n", "16", "--t-end", "0.04", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "deviation ratio" in capsys.readouterr().out
        assert (tmp_path / "symmetry.txt").exists()

    @pytest.mark.parametrize("command, argv, name", [
        ("verify", ["--samples", "200"], "verify.txt"),
        ("compare-symmetry", ["--n", "8", "--t-end", "0.02"], "symmetry.txt"),
    ])
    def test_report_in_the_current_directory(self, tmp_path, monkeypatch, capsys, command, argv,
                                             name):
        """`--out .` asks for the report like any other directory; no `--out` writes none."""
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, *argv]) == 0
        assert not (tmp_path / name).exists()
        assert cli.main([command, *argv, "--out", "."]) == 0
        assert (tmp_path / name).exists()

    def test_validation_exit_code(self, capsys):
        assert cli.main(["run", "--problem", "sine", "--cfl", "2.0"]) == 2
        assert cli.main(["run", "--problem", "not-a-problem", "--n", "8"]) == 2

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", "--problem", "sine", "--n", "abc"]) == 2
        assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_alpha_exit_code(self, tmp_path, capsys):
        """A non-finite amplifier is a configuration error, not a PCP audit failure."""
        code = cli.main(["run", "--problem", "rp1", "--n", "8", "--alpha", "inf",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "speed amplifier" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--t-end", "nan"], ["--t-end", "inf"], ["--t-end", "0.02", "--snapshots", "0.01,nan"],
        ["--t-end", "0.1", "--snapshots", "0.5"], ["--t-end", "0.1", "--snapshots", "-0.01"],
    ])
    def test_non_finite_time_exit_code(self, tmp_path, monkeypatch, capsys, args):
        def no_step(*a, **kw):
            raise AssertionError("run stepped with a non-finite time")

        monkeypatch.setattr("rhd2d.mesh_solver.step", no_step)
        code = cli.main(["run", "--problem", "sine", "--n", "8", "--out", str(tmp_path), *args])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "field.dat").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "sine", "--n", "8", "--t-end", "0.1", "--snapshots", "0.5"],
        ["converge", "--problem", "sine", "--n", "8", "--levels", "2", "--t-end", "nan"],
    ])
    def test_rejected_run_makes_no_out_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "new"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "sine", "--n", "8", "--t-end", "0.01"],
        ["converge", "--problem", "sine", "--n", "8", "--levels", "1", "--t-end", "0.01"],
        ["verify", "--samples", "10"],
        ["compare-symmetry", "--n", "8", "--t-end", "0.01"],
    ], ids=lambda argv: argv[0])
    def test_out_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, argv):
        """An --out below a regular file is a validation error naming the path."""
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / "afile" / "x")
        assert cli.main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and out in err[0]

    def test_verify_exit_code_per_suite(self, monkeypatch, capsys):
        """A failed recovery-suite result exits 4; a failure of any other suite exits 3."""
        results = verification.run_all(seed=1, samples=200)
        recovery = {r.name for r in verification.recovery_suite(np.random.default_rng(1), 200)}
        assert len(recovery) == 2 and recovery <= {r.name for r in results}
        for failing in results:
            failed = [replace(r, failures=int(r is failing)) for r in results]
            monkeypatch.setattr(verification, "run_all", lambda seed, samples: failed)
            want = cli.EXIT_RECOVERY if failing.name in recovery else cli.EXIT_PCP
            assert cli.main(["verify", "--samples", "10"]) == want, failing.name

    def test_pcp_exit_code(self, monkeypatch):
        def boom(*args, **kwargs):
            raise PcpAuditError("synthetic audit failure", index=(0, 0))

        monkeypatch.setattr(cli, "run_solver", boom)
        assert cli.main(["run", "--problem", "sine", "--n", "8", "--t-end", "0.01"]) == 3

    @pytest.mark.parametrize("error", [RecoveryConvergenceError, AdmissibilityError])
    def test_recovery_exit_code(self, monkeypatch, error):
        def boom(*args, **kwargs):
            raise error("synthetic recovery failure")

        monkeypatch.setattr(cli, "run_solver", boom)
        assert cli.main(["run", "--problem", "sine", "--n", "8", "--t-end", "0.01"]) == 4
