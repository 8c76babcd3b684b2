"""Each setting is read only by the commands that use it, from a flag or a file alike."""

import pytest

from rhd2d import cli
from rhd2d.errors import ConfigurationError

# A valid text and the flag of every setting; "--no-pcp-audit" takes no value.
_VALID = {
    "problem": ("--problem", "rp1"), "n": ("--n", "8"), "n_x": ("--nx", "8"),
    "n_y": ("--ny", "6"), "cfl_sigma": ("--cfl", "0.3"), "alpha": ("--alpha", "3"),
    "mode": ("--mode", "split"), "pcp_audit": ("--no-pcp-audit", "false"),
    "t_end": ("--t-end", "0.1"), "snapshots": ("--snapshots", "0.05"), "out_dir": ("--out", "x"),
    "emit": ("--emit", "report"), "levels": ("--levels", "2"), "samples": ("--samples", "10"),
    "seed": ("--seed", "3"),
}
_BASE = {"run": ["--problem", "sine"], "converge": ["--problem", "sine"], "verify": [],
         "compare-symmetry": []}
# The settings each command reads, as the README's table lists them.
_SOLVE = {"n", "cfl_sigma", "alpha", "pcp_audit", "t_end", "out_dir"}
_READS = {
    "run": _SOLVE | {"problem", "n_x", "n_y", "mode", "snapshots", "emit"},
    "converge": _SOLVE | {"problem", "mode", "levels"},
    "compare-symmetry": _SOLVE | {"n_x", "n_y"},
    "verify": {"samples", "seed", "out_dir"},
}


def _parse(argv, tmp_path=None, lines=""):
    if tmp_path is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    return cli.parse_config(argv)


def _outcome(argv, tmp_path=None, lines=""):
    """(command, RunConfig), or None where the input is rejected."""
    try:
        return _parse(argv, tmp_path, lines)
    except ConfigurationError:
        return None


def test_every_setting_has_a_case():
    assert sorted(_VALID) == sorted(cli._FILE_KEYS)


@pytest.mark.parametrize("command", sorted(_BASE))
@pytest.mark.parametrize("key", sorted(_VALID))
def test_flag_and_file_line_agree(tmp_path, command, key):
    """A command accepts the settings it reads, from a flag and a file line alike."""
    flag, text = _VALID[key]
    base = [command, *(_BASE[command] if key != "problem" else [])]
    flag_argv = [*base, flag] if flag.startswith("--no-") else [*base, flag, text]
    from_flag = _outcome(flag_argv)
    assert from_flag == _outcome(base, tmp_path, f"{key} = {text}\n")
    assert (from_flag is not None) == (key in _READS[command])


class TestUnreadSettingsRejected:
    def test_converge_grid_shape(self, tmp_path, capsys):
        argv = ["converge", "--problem", "sine", "--nx", "10", "--ny", "30"]
        with pytest.raises(ConfigurationError, match="--nx"):
            cli.parse_config(argv)
        with pytest.raises(ConfigurationError, match="n_x"):
            _parse(["converge", "--problem", "sine"], tmp_path, "n_x = 10\nn_y = 30\n")
        assert cli.main([*argv, "--t-end", "0.01", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "convergence.txt").exists()

    def test_compare_symmetry_mode_flag(self):
        with pytest.raises(ConfigurationError, match="--mode"):
            cli.parse_config(["compare-symmetry", "--mode", "split"])

    def test_compare_symmetry_problem_line(self, tmp_path):
        with pytest.raises(ConfigurationError, match="problem"):
            _parse(["compare-symmetry"], tmp_path, "problem = rp1\n")

    def test_verify_snapshots_line(self, tmp_path):
        with pytest.raises(ConfigurationError, match="snapshots"):
            _parse(["verify"], tmp_path, "snapshots = 0.1\n")

    def test_compare_symmetry_keeps_its_problem_and_mesh(self):
        _, config = cli.parse_config(["compare-symmetry"])
        assert config.problem == "explosion" and config.n == 64


class TestPcpAuditSpellings:
    @pytest.mark.parametrize("text", ["1", "true", "Yes", "ON", "TRUE"])
    def test_on(self, tmp_path, text):
        _, config = _parse(["run", "--problem", "sine"], tmp_path, f"pcp_audit = {text}\n")
        assert config.pcp_audit is True

    @pytest.mark.parametrize("text", ["0", "false", "No", "OFF", "False"])
    def test_off(self, tmp_path, text):
        _, config = _parse(["run", "--problem", "sine"], tmp_path, f"pcp_audit = {text}\n")
        assert config.pcp_audit is False

    @pytest.mark.parametrize("text", ["banana", "", "2", "truthy", "n"])
    def test_other_text_rejected(self, tmp_path, capsys, text):
        with pytest.raises(ConfigurationError, match="pcp_audit"):
            _parse(["run", "--problem", "sine"], tmp_path, f"pcp_audit = {text}\n")
        cfg = tmp_path / "run.cfg"
        assert cli.main(["run", "--problem", "sine", "--config", str(cfg)]) == 2

    def test_flag_reads_like_false(self):
        _, config = cli.parse_config(["run", "--problem", "sine", "--no-pcp-audit"])
        assert config.pcp_audit is False
