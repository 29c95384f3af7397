"""End-to-end tests for the anc-sim command line interface.

Every test drives ``ancsim.cli.main`` with an argv list and checks the
exit code, the files left in the output directory, and the stdout/stderr
summary. One subprocess test confirms ``python3 -m ancsim`` resolves;
others check which modules a cold process loads: no scipy for ``run``, and
for ``compare`` no process-pool module and neither ``decimal`` nor
``fractions``.
"""

import errno
import mmap
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ancsim
import ancsim.config
import ancsim.lifting
from ancsim import from_second_order_bank, load_u_blocks
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

    @pytest.mark.parametrize("blocked,intact", [("conventional_", "proposed_"),
                                                ("proposed_", "conventional_")])
    def test_failed_arm_exits_two_naming_file(
        self, blocked, intact, small_config, tmp_path, capsys, monkeypatch
    ):
        """Either arm's write failure exits 2 naming the file, the other arm's
        tables are complete, and the forked writer is reaped."""
        clean = tmp_path / "clean"
        assert _run_cli(["compare", "--config", small_config, "--out", str(clean)], capsys)[0] == 0
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        out_dir = tmp_path / "out"
        (out_dir / (blocked + "fast.csv")).mkdir(parents=True)
        code, _, err = _run_cli(["compare", "--config", small_config, "--out", str(out_dir)], capsys)
        assert forks == [1]
        assert code == 2
        assert blocked + "fast.csv" in err
        names = [n for n in os.listdir(clean) if n.startswith(intact)]
        assert len(names) == 5
        for name in names:
            assert (out_dir / name).read_bytes() == (clean / name).read_bytes(), name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["success", "blocked", "raised"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_no_writer_outlives_the_command(command, case, small_config, tmp_path, capsys, monkeypatch):
    """``run`` and ``compare`` fork one fast-table writer and reap it on success,
    on a writer failure (exit 2 naming the file) and on an error in the arm
    loop, which leaves no fast table behind."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    out_dir = tmp_path / "out"
    fast = ("proposed_" if command == "compare" else "") + "fast.csv"
    if case == "blocked":
        (out_dir / fast).mkdir(parents=True)
    elif case == "raised":
        steps, step = [], ancsim.lifting.HybridLoop.step

        def failing_step(self, *args):
            steps.append(1)
            if len(steps) == 3:
                # let the writer open its tables first: the failed run must remove them
                deadline = time.monotonic() + 10
                while not (out_dir / fast).exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise ValueError("step failed")
            return step(self, *args)

        monkeypatch.setattr(ancsim.lifting.HybridLoop, "step", failing_step)
    code, _, err = _run_cli([command, "--config", small_config, "--out", str(out_dir)], capsys)
    assert forks == [1]
    if case == "success":
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert (fast if case == "blocked" else "step failed") in err
    if case == "raised":
        assert not list(out_dir.glob("*fast.csv"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


    def test_header_only_trace_exits_two_naming_file(self, tmp_path, capsys):
        """A run that diverges in its first period records no regressor block."""
        cfg = tmp_path / "early.cfg"
        cfg.write_text(SMALL_CONFIG + "run.divergence_cutoff = 1e-9\n")
        out_dir = str(tmp_path / "early")
        code, out, _ = _run_cli(["run", "--config", str(cfg), "--out", out_dir], capsys)
        assert code == 0
        assert "run: 1 periods" in out
        trace = os.path.join(out_dir, "u_blocks.csv")
        assert Path(trace).read_text() == "n,u_0,u_1,u_2,u_3\n"
        code, out, err = _run_cli(["check", "--config", str(cfg), "--trace", trace], capsys)
        assert code == 2
        assert out == ""
        assert f"{trace}: no periods recorded" in err

    @pytest.mark.parametrize("table", ["taps.csv", "fast.csv", "wrong_width", "ragged"])
    def test_other_table_exits_two_naming_file(self, table, recorded_trace, small_config, capsys):
        """Only a u_blocks.csv header over rows of its width reads as a trace."""
        trace = os.path.join(os.path.dirname(recorded_trace), table)
        if table == "wrong_width":
            trace = recorded_trace
            lines = Path(trace).read_text().splitlines()
            Path(trace).write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:]) + "\n")
        elif table == "ragged":
            Path(trace).write_text("n,u_0,u_1\n0,1,2\n1,2\n")
        code, out, err = _run_cli(["check", "--config", small_config, "--trace", trace], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {trace}: ")
        assert "usecols" not in err
        if table in ("wrong_width", "ragged"):
            fields = Path(trace).read_text().split("\n", 1)[0].count(",") + 1
            assert err == f"error: {trace}: expected {fields} fields on every row, as in the header\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_trace_exits_two_naming_file(self, value, small_config, tmp_path, capsys):
        """A trace is read as finite numbers, so the checker sees no other."""
        trace = tmp_path / "u_blocks.csv"
        trace.write_text(f"n,u_0,u_1\n0,1,2\n1,{value},3\n")
        code, out, err = _run_cli(["check", "--config", small_config, "--trace", str(trace)], capsys)
        assert (code, out, err) == (2, "", f"error: {trace}: expected finite numbers\n")

    @pytest.mark.parametrize("value", ["1e150", "1e200"])
    def test_trace_near_overflow(self, value, small_config, tmp_path, capsys):
        """A trace whose Gram matrix overflows exits 2 naming the file, and one
        whose Gram matrix (not the checker's bound on it) stays finite is read
        as before; neither warns."""
        trace = tmp_path / "u_blocks.csv"
        trace.write_text(f"n,u_0,u_1\n0,{value},{value}\n1,{value},{value}\n")
        code, out, err = _run_cli(["check", "--config", small_config, "--trace", str(trace)], capsys)
        if value == "1e200":
            assert (code, out, err) == (2, "", f"error: {trace}: the Gram matrix overflows\n")
            with pytest.raises(ValueError, match="^the Gram matrix overflows$"):
                ancsim.check_lms_conditions(np.full((2, 2), 1e200), 0.1, 8, 1.0)
        else:
            assert (code, err) == (1, "")
            assert "conditions: bounded=pass (gamma = 1.04721e+301)" in out

    def test_all_zero_trace_holds_vacuously(self, small_config, tmp_path, capsys):
        trace = tmp_path / "u_blocks.csv"
        trace.write_text("n,u_0,u_1\n" + "".join(f"{n},0,0\n" for n in range(10)))
        code, out, _ = _run_cli(["check", "--config", small_config, "--trace", str(trace)], capsys)
        assert code == 0
        assert "trace: 10 periods, 2 cells" in out
        assert "note: trace carries no regressor energy; conditions hold vacuously" in out
        assert "overall: PASS" in out


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

    @pytest.mark.parametrize("command,mu,key", [("run", "nan", "adapt.mu"),
                                                ("sweep", "0.1,nan", "adapt.mu_list"),
                                                ("check", "0", "adapt.mu")])
    def test_nan_mu_exits_two(self, command, mu, key, small_config, tmp_path, capsys):
        # check reads its trace only once the step size is valid
        trace = ["--trace", str(tmp_path / "missing.csv")] if command == "check" else []
        code, _, err = _run_cli(
            [command, "--config", small_config, "--out", str(tmp_path / "o"), "--mu", mu] + trace,
            capsys,
        )
        assert code == 2
        assert f"configuration error: {key}:" in err

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

    def test_removed_workers_key_exits_two_with_key(self, tmp_path, capsys):
        path = tmp_path / "workers.cfg"
        path.write_text(SMALL_CONFIG + "sweep.workers = 2\n")
        code, _, err = _run_cli(
            ["sweep", "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert "sweep.workers" in err

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


COMMANDS = ["run", "compare", "sweep", "bode", "check"]
BAD_FLAGS = [
    (["--seed", "x"], "sim.seed"),
    (["--L", "2.5"], "sim.L"),
    (["--threshold", "x"], "sweep.threshold"),
    (["--mu", "abc"], "adapt.mu"),
    (["--out", ""], "output.dir"),
]


@pytest.mark.parametrize("command,flag,key", [
    *((c, f, k) for c in COMMANDS for f, k in BAD_FLAGS if not (c == "sweep" and k == "adapt.mu")),
    ("sweep", ["--mu", "x"], "adapt.mu_list"),
    ("sweep", ["--mu", ","], "adapt.mu_list"),
])
def test_bad_flag_value_exits_two_naming_its_key(command, flag, key, small_config, tmp_path, capsys):
    """Each common flag sets one config key, so a bad value is that key's error."""
    argv = [command, "--config", small_config, "--out", str(tmp_path / "o"), *flag]
    if command == "check":
        argv += ["--trace", str(tmp_path / "missing.csv")]
    code, out, err = _run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"configuration error: {key}: ")


@pytest.mark.parametrize("command", COMMANDS)
def test_marginal_plant_exits_two_naming_it(command, tmp_path, capsys):
    """A damping that rounds a pole onto the imaginary axis fails the config, for every command."""
    config = tmp_path / "marginal.cfg"
    config.write_text("plant.zeta = 1e-300\n")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "check":
        argv += ["--trace", str(tmp_path / "missing.csv")]
    assert _run_cli(argv, capsys) == (2, "", "configuration error: plant.f: plant is unstable:"
                                            " pole with nonnegative real part\n")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
@pytest.mark.parametrize("line,periods", [("sim.T = 1e15", "1e+15"), ("sim.h = 1e-300", "1e+302")])
def test_horizon_past_the_address_space_exits_two(command, line, periods, tmp_path, capsys, monkeypatch):
    """A record too long for the address space fails at once, naming sim.T,
    before the output directory or a fast-table writer is made."""
    config = tmp_path / "long.cfg"
    config.write_text(line + "\n")
    writers = []
    monkeypatch.setattr("ancsim.runner._FastWriter", lambda *args: writers.append(args))
    code, out, err = _run_cli([command, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"configuration error: sim.T: cannot hold {periods} periods: ")
    assert not os.path.exists(tmp_path / "o") and not writers


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_cell_count_past_memory_exits_two(command, tmp_path, capsys, monkeypatch):
    """A cell count whose cell maps cannot be held fails at once, naming sim.L,
    before the output directory or a fast-table writer is made."""
    writers = []
    monkeypatch.setattr("ancsim.runner._FastWriter", lambda *args: writers.append(args))
    code, out, err = _run_cli([command, "--L", "1000000000000", "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: sim.L: cannot hold ")
    assert not os.path.exists(tmp_path / "o") and not writers


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "check"])
def test_tap_count_past_the_address_space_exits_two(command, tmp_path, capsys, monkeypatch):
    """2^40 taps cannot be held: the lag windows (the checker's Gram matrix
    for check) fail at once, naming filter.taps, before the output directory
    is made or the fast-table writer starts."""
    config = tmp_path / "taps.cfg"
    config.write_text("filter.taps = 1099511627776\nsim.T = 10\n")
    trace = tmp_path / "u_blocks.csv"
    trace.write_text("n,u_0,u_1\n0,1,2\n1,2,3\n")

    def start(*args):
        raise AssertionError("the fast-table writer started")

    monkeypatch.setattr("ancsim._tables._FastWriter.start", start)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    code, out, err = _run_cli(argv + ["--trace", str(trace)] * (command == "check"), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: filter.taps: cannot hold 1099511627776 taps: ")
    assert not os.path.exists(tmp_path / "o")


RLIMIT_SCRIPT = """\
import resource, sys
import ancsim.cli
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(ancsim.cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the address space from /proc")
@pytest.mark.parametrize("command,text,error", [
    # the record fits, the 40 arms' histories (about 530 MB) do not
    ("sweep", "sim.T = 50000\n", "sim.T: cannot hold 50000 periods of 40 arms: "),
    # the arm loop fits, the checker's (10, 5000, 5000) Gram stack (1.9 GB) does not
    ("run", "sim.T = 10\nfilter.taps = 5000\n", "filter.taps: cannot hold 5000 taps: "),
], ids=["sweep-histories", "run-gram"])
def test_arrays_past_the_address_limit_exit_two(command, text, error, tmp_path):
    """In a child whose address space is limited to 160 MB past what
    importing the package took, arrays that do not fit exit 2 naming the key
    that sized them, and no table is left behind."""
    config = tmp_path / "big.cfg"
    config.write_text(text)
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [str(160 << 20), command, "--config", str(config), "--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-c", RLIMIT_SCRIPT, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("configuration error: " + error)
    assert not os.path.exists(tmp_path / "o") or not os.listdir(tmp_path / "o")


def test_shared_histories_past_memory_exit_two(tmp_path, capsys, monkeypatch):
    """A shared mapping for the streamed w and e histories that the system
    refuses is a horizon too long to hold: exit 2 naming sim.T, no directory."""

    def refuse(*args):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(mmap, "mmap", refuse)
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    code, out, err = _run_cli(["compare", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: sim.T: cannot hold 10 periods of 2 arms: cannot map ")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_late_failure_removes_the_directory_it_made(command, forked, tmp_path, capsys, monkeypatch):
    """A run that fails after the fast-table writer started removes the
    output directory it made, and leaves one that existed before."""

    def refuse(*args):
        raise MemoryError("no room for the Gram matrices")

    monkeypatch.setattr("ancsim.runner._condition_maxima", refuse)
    if not forked:
        monkeypatch.setattr("ancsim._tables._thread_count", lambda: 2)
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    (tmp_path / "old").mkdir()
    for name in ("new", "old"):
        code, out, err = _run_cli([command, "--config", str(config), "--out", str(tmp_path / name)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("configuration error: filter.taps: cannot hold 8 taps: no room")
    assert sorted(os.listdir(tmp_path)) == ["old", "small.cfg"]
    assert os.listdir(tmp_path / "old") == []


HUGE_NOISE = "run.divergence_cutoff = inf\nsim.T = 20\nnoise.amplitudes = {0}, {0}, {0}, {0}\n"


def _strict_cli(tmp_path, command, config_text):
    """Run ``python -W error -m ancsim COMMAND`` on ``config_text``: any warning is an error."""
    config = tmp_path / "huge.cfg"
    config.write_text(config_text)
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    argv = [sys.executable, "-W", "error", "-m", "ancsim", command, "--config", str(config),
            "--out", str(tmp_path / "out")]
    return subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_overflowing_fold_diverges_without_warnings(command, tmp_path):
    """Noise so loud that folding its first error would overflow the direction
    diverges every arm in its first period, without a warning."""
    proc = _strict_cli(tmp_path, command, HUGE_NOISE.format("1e200"))
    assert (proc.returncode, proc.stderr) == (0, "")
    if command == "run":
        assert "run: 1 periods" in proc.stdout and "diverged = yes" in proc.stdout
        assert "conditions: not evaluated" in proc.stdout


@pytest.mark.parametrize("command", ["run", "compare"])
def test_overflowing_gram_matrix_exits_two_without_warnings(command, tmp_path):
    """A near-silent disturbance keeps the error small while the regressor's
    Gram matrix overflows: the read raises the checker's error, exit 2."""
    text = HUGE_NOISE.format("1e160") + "plant.p.gains = 1e-200, 1e-200, 1e-200, 1e-200\n"
    proc = _strict_cli(tmp_path, command, text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: the Gram matrix overflows\n")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("command,mu", [("run", "0.1"), ("compare", "0.1"),
                                        ("sweep", "0.05,0.1"), ("bode", "0.1")])
def test_flags_equal_the_keys_they_set(command, mu, tmp_path, capsys):
    """Flags over a file's keys write the bytes of a file holding the flag values."""
    key = "adapt.mu_list" if command == "sweep" else "adapt.mu"
    overridden = tmp_path / "overridden.cfg"
    overridden.write_text(SMALL_CONFIG + f"sim.seed = 3\nsim.L = 4\nsweep.threshold = 8\n{key} = 0.3\n"
                          "output.dir = elsewhere\n")
    flags = ["--seed", "7", "--L", "2", "--threshold", "5", "--mu", mu, "--out", str(tmp_path / "a")]
    assert _run_cli([command, "--config", str(overridden), *flags], capsys)[0] == 0
    direct = tmp_path / "direct.cfg"
    direct.write_text(SMALL_CONFIG + f"sim.seed = 7\nsim.L = 2\nsweep.threshold = 5\n{key} = {mu}\n"
                    f"output.dir = {tmp_path / 'b'}\n")
    assert _run_cli([command, "--config", str(direct)], capsys)[0] == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_flag_and_file_values_are_stripped_alike(tmp_path, capsys, monkeypatch):
    """``--out " res "`` and ``output.dir =  res`` write to the one directory ``res``."""
    monkeypatch.chdir(tmp_path)
    Path("out.cfg").write_text("output.dir =  res \n")
    for argv in (["bode", "--out", " res "], ["bode", "--config", "out.cfg"]):
        code, out, _ = _run_cli(argv, capsys)
        assert code == 0
        assert out == f"wrote {os.path.join('res', 'bode.csv')}\n"
    assert sorted(os.listdir(tmp_path)) == ["out.cfg", "res"]


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


FORK_HOOK = """\
import atexit, os
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
atexit.register(lambda: print("forks", len(forks), "blas", os.environ.get("OPENBLAS_NUM_THREADS")))
"""


@pytest.mark.parametrize("entry", ["module", "script", "library"])
def test_command_runs_blas_on_one_thread(entry, small_config, tmp_path):
    """``python -m ancsim`` and the ``anc-sim`` script pin BLAS to one thread
    before numpy loads, so ``compare`` forks its writer in an unpinned
    environment; a process that only imports ancsim keeps its BLAS."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(FORK_HOOK)
    script = tmp_path / "anc-sim"
    script.write_text("import sys\nfrom ancsim.cli import main\nsys.exit(main())\n")
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(hook), src])
    command = ["compare", "--config", small_config, "--out", str(tmp_path / "out")]
    argv = {"module": ["-m", "ancsim", *command], "script": [str(script), *command],
            "library": ["-c", "import ancsim"]}[entry]
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    expected = "forks 0 blas None" if entry == "library" else "forks 1 blas 1"
    assert proc.stdout.splitlines()[-1] == expected


def cold_cli_modules(tmp_path, command, packages, config_text="sim.T = 6\nsim.L = 2\n"):
    """Run ``anc-sim COMMAND`` on a tiny config in a fresh process.

    Returns the last stdout line: the exit code and the sorted loaded
    modules that are one of ``packages`` or inside one.
    """
    config = tmp_path / "tiny.cfg"
    config.write_text(config_text)
    script = (
        "import sys\n"
        "import ancsim.cli\n"
        "code = ancsim.cli.main(sys.argv[2:])\n"
        "packages = sys.argv[1].split(',')\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if any(m == p or m.startswith(p + '.') for p in packages)))\n"
    )
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [",".join(packages), command, "--config", str(config), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()[-1]


def test_cold_run_imports_no_scipy(tmp_path):
    """A fresh process that imports ancsim and runs the CLI never loads scipy."""
    assert cold_cli_modules(tmp_path, "run", ["scipy"]) == "0 []"


def test_cold_run_loads_no_fft_or_polynomial(tmp_path):
    """A fresh ``run`` takes no spectral bound, so neither numpy submodule loads."""
    assert cold_cli_modules(tmp_path, "run", ["numpy.fft", "numpy.polynomial"]) == "0 []"


def test_cold_compare_loads_no_process_pool(tmp_path):
    """A fresh ``compare`` forks with ``os`` alone; no pool module is imported."""
    assert cold_cli_modules(tmp_path, "compare", ["multiprocessing", "concurrent"]) == "0 []"
    assert len(os.listdir(tmp_path / "out")) == 11


def test_cold_compare_formats_without_decimal_or_fractions(tmp_path):
    """A fresh ``compare`` long enough for the array formatter loads neither module.

    At T = 200 and L = 2 each arm's fast.csv holds 2400 values, so the
    ``ancsim._g17`` kernel formats it and builds its tables from ints.
    """
    line = cold_cli_modules(tmp_path, "compare", ["decimal", "_decimal", "_pydecimal", "fractions",
                                                  "ancsim._g17"], "sim.T = 200\nsim.L = 2\n")
    assert line == "0 ['ancsim._g17']"


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "bode", "check"])
def test_command_builds_each_plant_once(command, small_config, tmp_path, capsys, monkeypatch):
    """The config validation builds the two plants, overrides included; nothing rebuilds them."""
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", small_config, "--out", out_dir]) == 0
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return from_second_order_bank(*args, **kwargs)

    monkeypatch.setattr(ancsim.config, "from_second_order_bank", counting)
    argv = [command, "--config", small_config, "--out", out_dir, "--seed", "7", "--L", "2",
            "--threshold", "5", "--mu", "0.1"]
    if command == "check":
        argv += ["--trace", os.path.join(out_dir, "u_blocks.csv")]
    code, _, err = _run_cli(argv, capsys)
    assert code == 0, err
    assert len(calls) == 2


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
