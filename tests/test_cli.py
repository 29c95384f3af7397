"""End-to-end tests for the anc-sim command line interface.

Every test drives ``ancsim.cli.main`` with an argv list and checks the
exit code, the files left in the output directory, and the stdout/stderr
summary. One subprocess test confirms ``python3 -m ancsim`` resolves.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ancsim import load_u_blocks
from ancsim.cli import main

SMALL_CONFIG = """\
# short horizon so every invocation stays well under a second
sim.T = 10
sim.L = 4
adapt.mu = 0.1
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


def _run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_writes_all_files_and_summary(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, err = _run_cli(
            ["run", "--config", small_config, "--out", out_dir], capsys
        )
        assert code == 0
        assert err == ""
        for name in ("fast.csv", "discrete.csv", "taps.csv", "u_blocks.csv", "report.csv"):
            assert os.path.isfile(os.path.join(out_dir, name)), name
        assert "error L2" in out
        assert "diverged = no" in out
        assert "conditions:" in out
        assert "wall time" in out

    def test_cells_override_changes_block_width(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, _, _ = _run_cli(
            ["run", "--config", small_config, "--out", out_dir, "--L", "2"], capsys
        )
        assert code == 0
        blocks = load_u_blocks(os.path.join(out_dir, "u_blocks.csv"))
        assert blocks.shape == (10, 2)

    def test_seed_override_changes_output(self, small_config, tmp_path, capsys):
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        for out_dir, seed in ((dir_a, "1"), (dir_b, "2")):
            code, _, _ = _run_cli(
                ["run", "--config", small_config, "--out", out_dir, "--seed", seed],
                capsys,
            )
            assert code == 0
        bytes_a = Path(dir_a, "fast.csv").read_bytes()
        bytes_b = Path(dir_b, "fast.csv").read_bytes()
        assert bytes_a != bytes_b

    def test_mu_override_is_reported(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, _ = _run_cli(
            ["run", "--config", small_config, "--out", out_dir, "--mu", "0.05"], capsys
        )
        assert code == 0
        assert "mu = 0.05" in out


class TestCompareCommand:
    def test_writes_both_arms_and_ratio(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, err = _run_cli(
            ["compare", "--config", small_config, "--out", out_dir], capsys
        )
        assert code == 0
        assert err == ""
        assert os.path.isfile(os.path.join(out_dir, "comparison.csv"))
        names = os.listdir(out_dir)
        assert any(n.startswith("proposed_") for n in names)
        assert any(n.startswith("conventional_") for n in names)
        assert "ratio =" in out


class TestSweepCommand:
    def test_mu_list_override(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, err = _run_cli(
            ["sweep", "--config", small_config, "--out", out_dir, "--mu", "0.05,0.1"],
            capsys,
        )
        assert code == 0
        assert err == ""
        lines = Path(out_dir, "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("mu,")
        assert os.path.isfile(os.path.join(out_dir, "sweep_summary.csv"))
        assert "2 step sizes" in out
        assert "widening" in out

    def test_threshold_override_accepted(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, _ = _run_cli(
            [
                "sweep",
                "--config",
                small_config,
                "--out",
                out_dir,
                "--mu",
                "0.1",
                "--threshold",
                "5.0",
            ],
            capsys,
        )
        assert code == 0
        assert "threshold = 5.0" in out


class TestBodeCommand:
    def test_writes_table(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        code, out, err = _run_cli(
            ["bode", "--config", small_config, "--out", out_dir], capsys
        )
        assert code == 0
        assert err == ""
        path = os.path.join(out_dir, "bode.csv")
        assert os.path.isfile(path)
        assert path in out


class TestCheckCommand:
    @pytest.fixture()
    def recorded_trace(self, small_config, tmp_path, capsys):
        out_dir = str(tmp_path / "trace_run")
        code, _, _ = _run_cli(
            ["run", "--config", small_config, "--out", out_dir], capsys
        )
        assert code == 0
        return os.path.join(out_dir, "u_blocks.csv")

    def test_passing_trace_exits_zero(self, small_config, recorded_trace, capsys):
        code, out, _ = _run_cli(
            ["check", "--config", small_config, "--trace", recorded_trace], capsys
        )
        assert code == 0
        assert "overall: PASS" in out
        assert "10 periods" in out

    def test_oversized_step_exits_one(self, small_config, recorded_trace, capsys):
        code, out, _ = _run_cli(
            [
                "check",
                "--config",
                small_config,
                "--trace",
                recorded_trace,
                "--mu",
                "100",
            ],
            capsys,
        )
        assert code == 1
        assert "step=FAIL" in out
        assert "overall: FAIL" in out

    def test_missing_trace_flag_is_usage_error(self, small_config, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "--config", small_config])
        assert err.value.code == 2

    def test_nonexistent_trace_file_exits_two(self, small_config, tmp_path, capsys):
        code, out, err = _run_cli(
            [
                "check",
                "--config",
                small_config,
                "--trace",
                str(tmp_path / "missing.csv"),
            ],
            capsys,
        )
        assert code == 2
        assert "error" in err


class TestErrorPaths:
    def test_bad_config_value_exits_two_with_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("adapt.mu = -1\n")
        code, out, err = _run_cli(
            ["run", "--config", str(path), "--out", str(tmp_path / "out")], capsys
        )
        assert code == 2
        assert "configuration error" in err
        assert "adapt.mu" in err

    def test_non_numeric_mu_exits_two(self, small_config, tmp_path, capsys):
        code, _, err = _run_cli(
            ["run", "--config", small_config, "--out", str(tmp_path / "o"), "--mu", "abc"],
            capsys,
        )
        assert code == 2
        assert "adapt.mu" in err

    def test_non_numeric_mu_list_exits_two(self, small_config, tmp_path, capsys):
        code, _, err = _run_cli(
            [
                "sweep",
                "--config",
                small_config,
                "--out",
                str(tmp_path / "o"),
                "--mu",
                "0.1,oops",
            ],
            capsys,
        )
        assert code == 2
        assert "adapt.mu_list" in err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code, _, err = _run_cli(
            ["run", "--config", str(tmp_path / "nope.cfg")], capsys
        )
        assert code == 2
        assert "error" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


def test_module_entry_point(small_config, tmp_path):
    out_dir = str(tmp_path / "out")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ancsim",
            "run",
            "--config",
            small_config,
            "--out",
            out_dir,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "error L2" in proc.stdout
    assert os.path.isfile(os.path.join(out_dir, "report.csv"))


def test_run_with_defaults_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run_cli(["bode", "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert os.path.isfile(os.path.join(str(tmp_path / "out"), "bode.csv"))


def test_run_np_output_is_finite(small_config, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code, _, _ = _run_cli(["run", "--config", small_config, "--out", out_dir], capsys)
    assert code == 0
    blocks = load_u_blocks(os.path.join(out_dir, "u_blocks.csv"))
    assert np.all(np.isfinite(blocks))
