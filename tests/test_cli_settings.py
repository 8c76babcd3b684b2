"""Each setting is read only by the commands that use it, from a flag or a file alike."""

import re
from pathlib import Path

import pytest

from rhd2d import cli
from rhd2d.errors import ConfigurationError

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_table():
    """{file key: (flag, commands)} from the README's settings table, the spec."""
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`--"):
            continue
        flags = re.findall(r"`([^`]+)`", cells[0])
        keys = re.findall(r"`([^`]+)`", cells[1])[: len(flags)]  # the rest name values
        commands = (set(cli._COMMANDS) if cells[2] == "every command"
                    else {command.strip() for command in cells[2].split(",")})
        table.update({key: (flag, commands) for flag, key in zip(flags, keys)})
    return table


_TABLE = _readme_table()
# The settings each command reads, as the README's table lists them.
_READS = {command: {key for key, (_, reads) in _TABLE.items() if command in reads}
          for command in cli._COMMANDS}
# A valid text of every setting; "--no-pcp-audit" takes none.
_VALID = {
    "problem": "rp1", "n": "8", "cfl_sigma": "0.3", "alpha": "3",
    "mode": "split", "pcp_audit": "false", "t_end": "0.1", "snapshots": "0.05", "out_dir": "x",
    "emit": "report", "levels": "2", "samples": "10", "seed": "3",
}
# The grid-shape settings that `--n` replaced, with their flags: no command reads them.
_RETIRED = {"n_x": ("--nx", "8"), "n_y": ("--ny", "6")}
_BASE = {"run": ["--problem", "sine"], "converge": ["--problem", "sine"], "verify": [],
         "compare-symmetry": []}


def test_readme_table_is_the_declaration():
    """Each README row's flag and commands are those of the setting's one declaration."""
    declared = {key: (s["flag"], set(s["commands"])) for key, s in cli._SETTINGS.items()}
    assert _TABLE == declared


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
    assert sorted(_VALID) == sorted(cli._SETTINGS)


@pytest.mark.parametrize("command", sorted(_BASE))
@pytest.mark.parametrize("key", sorted({**_VALID, **_RETIRED}))
def test_flag_and_file_line_agree(tmp_path, command, key):
    """A command accepts the settings it reads, and only those, from a flag and a file line alike."""
    flag, text = _RETIRED[key] if key in _RETIRED else (_TABLE[key][0], _VALID[key])
    base = [command, *(_BASE[command] if key != "problem" else [])]
    flag_argv = [*base, flag] if flag.startswith("--no-") else [*base, flag, text]
    from_flag = _outcome(flag_argv)
    assert from_flag == _outcome(base, tmp_path, f"{key} = {text}\n")
    assert (from_flag is not None) == (key in _READS[command])


@pytest.mark.parametrize("command, key, text", [
    ("run", "emit", "field,bogus"), ("converge", "levels", "0"), ("verify", "samples", "-3"),
])
def test_out_of_range_list_and_count_rejected(tmp_path, command, key, text):
    """A flag and a file line alike, each named with its origin."""
    base = [command, *_BASE[command]]
    with pytest.raises(ConfigurationError, match=f"argument {_TABLE[key][0]}: bad value"):
        _parse([*base, _TABLE[key][0], text])
    with pytest.raises(ConfigurationError, match=f"run.cfg:1: bad value for '{key}'"):
        _parse(base, tmp_path, f"{key} = {text}\n")


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


@pytest.mark.parametrize("second", ["12", "8"])
def test_repeated_file_key_rejected(tmp_path, capsys, second):
    """A key's second line is an error naming its path:line, as an unknown key is."""
    lines = f"problem = sine\nn = 8\nn = {second}\n"
    with pytest.raises(ConfigurationError, match=r"run\.cfg:3: repeated key 'n'"):
        _parse(["run"], tmp_path, lines)
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--t-end", "0.01", "--out", str(out)]) == 2
    assert not out.exists()


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
