"""ancsim benchmark: one workload per run, seeded inputs, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``compare_long``, ``sweep_default``, ``held_check``, ``design_offline``.

The run imports ancsim from ``src/`` next to this directory, with BLAS
pinned to one thread, writes the seeded inputs to a scratch directory under
``.perfbench_work/`` and drives the program in this process, one closed-loop
iteration after another, for ``--seconds`` seconds after one warm-up
iteration. Every iteration is checked: exit codes, a fingerprint recorded
per input instance in fingerprints.json (relative 1e-9), the frozen sweep
values at instance 0, and byte-identical outputs against the warm-up
iteration. A failed check counts the iteration as failed; nothing is
dropped.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median iteration
time), ``setup_s`` (median wall time of fresh processes that import ancsim
and build the workload's objects, see setup_probe.py), ``peak_rss_mb``
(peak resident memory of this process). Times are rescaled to a reference
machine speed measured next to each of them (see CAL_REFERENCE_S and
SETUP_REFERENCE_S). ``--trace 1`` spends half the time untraced and half
with span wrappers installed (tracer.py) and reports the per-layer metrics
plus ``trace.overhead_s``. The last stdout line is the JSON result; the
lines above it name every metric with its unit, its sample count and
quartiles, ``fail_frac``, and the provenance of the run.
"""

from __future__ import annotations

import os

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = HERE / "fingerprints.json"
# setup_s is the median of N_SETUP_PROBES fresh set-up processes, each
# rescaled to SETUP_REFERENCE_S, the time of REFERENCE_PROCESS (a fresh
# interpreter that imports numpy) on the reference machine, by the mean time
# of the reference processes run right before and right after it. Host
# contention slows process start-up and imports unlike the calibration kernel
# below: on the 2-vCPU virtual machine the benchmark was built on, a probe
# took about 0.35 s, and the IQR/median of setup_s over ten fresh runs was
# 0.09-0.13 with 7 or 15 probes rescaled by the kernel, but 0.02-0.04 with
# 11 probes rescaled by the reference process. Neither the interpreter start
# nor the numpy import is ancsim's to change, so every set-up cost of ancsim
# still moves setup_s.
N_SETUP_PROBES = 11
SETUP_REFERENCE_S = 0.12
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy"]

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Speed calibration. On the shared virtual machines this benchmark was built
# on, host contention switches each vCPU between two speeds about 1.75x apart
# several times a second, and the mix drifts over minutes, so raw medians
# varied by 20-40% between identical runs. A fixed kernel is therefore timed
# right before and right after every measured call, each raw time t is
# rescaled to the kernel's reference speed, t * CAL_REFERENCE_S / (mean of
# the two kernel seconds per repetition), and the median of the rescaled
# times is reported. This cut the spread of run medians to about a third.
# The kernel does not touch ancsim, so a change to the program moves the
# rescaled times as it moves the raw ones. The raw medians are printed next
# to the rescaled ones.
CAL_REFERENCE_S = 0.0032
CAL_MIN_S = 0.05
CAL_SHARE = 0.1
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((8, 8))
_CAL_GRID = _CAL_RNG.uniform(0.0, 1.0, 148)


def speed_factor(before: float, after: float, reference: float = CAL_REFERENCE_S) -> float:
    """Factor that rescales raw seconds measured between two reference timings."""
    return 2.0 * reference / (before + after)


def reference_process_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run(REFERENCE_PROCESS, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def kernel_seconds(budget_s: float) -> float:
    """Seconds per repetition of the calibration kernel, run for ``budget_s``.

    One repetition mixes the two kinds of work the workloads do: an
    interpreter loop over tiny matrix products with float formatting (about
    three quarters of the time), and one vectorized complex exponential over
    a 148 x 148 grid. Recorded runs of compare_long (interpreter-bound) and
    design_offline (vector-bound) had their phase-to-phase spread cut from
    0.10-0.20 to about 0.04 by this mix.
    """
    reps = 0
    t0 = time.perf_counter()
    while True:
        acc = 0.0
        for i in range(1000):
            acc += float(_CAL_MATRIX[i % 8] @ _CAL_MATRIX[:, i % 8])
            f"{acc:.17g}"
        np.exp(-1j * np.outer(_CAL_GRID, _CAL_GRID)).sum()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / reps


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked (no ancsim sources next to us)."""


def import_ancsim():
    """Import ancsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "ancsim" / "__init__.py").is_file():
        raise BenchmarkError(f"no ancsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ancsim

    if not Path(ancsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"ancsim was imported from {ancsim.__file__}, not {SRC}")
    return ancsim


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (Python's exclusive method) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def recorded_fingerprint(workload: str, instance: int):
    try:
        table = json.loads(FINGERPRINTS.read_text())
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(instance))


def reference_fingerprint(workload: str, instance: int, size: str) -> dict[str, str]:
    """Fingerprint of one untimed iteration (for recording and the self-test)."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=WORK)
    try:
        inputs = wl.make_inputs(workload, instance, size, workdir)
        prepared = wl.prepare(workload, inputs)
        out_dir = os.path.join(workdir, "out")
        os.makedirs(out_dir)
        codes, products = wl.run_iteration(workload, inputs, prepared, out_dir)
        if codes != wl.EXPECTED_EXIT[workload]:
            raise RuntimeError(f"{workload} instance {instance}: exit codes {codes}")
        return wl.fingerprint(workload, out_dir, codes, products)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Runner:
    """Runs and checks the iterations of one workload on one input instance."""

    def __init__(self, workload, instance, size, workdir, expected):
        self.workload = workload
        self.instance = instance
        self.size = size
        self.workdir = workdir
        self.expected = expected
        self.inputs = wl.make_inputs(workload, instance, size, workdir)
        self.prepared = wl.prepare(workload, self.inputs)
        self.reference_digest = None
        self.typical_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, codes, products, out_dir) -> list[str]:
        problems = []
        want = wl.EXPECTED_EXIT[self.workload]
        if codes != want:
            return [f"exit codes {codes}, expected {want}"]
        fp = wl.fingerprint(self.workload, out_dir, codes, products)
        if self.expected is None:
            problems.append(f"no recorded fingerprint for instance {self.instance}")
        else:
            problems += wl.fingerprint_mismatches(fp, self.expected)
        if self.workload == "sweep_default" and self.size == "full" and self.instance == 0:
            for key, value in wl.FROZEN_SWEEP.items():
                if float(fp[key]) != value:
                    problems.append(f"{key} = {fp[key]}, frozen value {value}")
        digest = wl.output_digest(out_dir, products)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            changed = sorted(k for k in digest.keys() | self.reference_digest.keys()
                             if digest.get(k) != self.reference_digest.get(k))
            problems.append(f"outputs differ from the first iteration: {changed}")
        return problems

    def iteration(self):
        """Run, time and check one iteration.

        Returns (raw seconds, speed factor from the kernel timed right before
        and right after it), or None when the iteration failed.
        """
        self.attempted += 1
        out_dir = os.path.join(self.workdir, f"out{self.attempted}")
        os.makedirs(out_dir)
        gc.collect()
        budget = max(CAL_MIN_S, CAL_SHARE * self.typical_s)
        try:
            before = kernel_seconds(budget)
            t0 = time.perf_counter()
            codes, products = wl.run_iteration(self.workload, self.inputs, self.prepared, out_dir)
            elapsed = time.perf_counter() - t0
            after = kernel_seconds(budget)
            problems = self._check(codes, products, out_dir)
        except Exception:
            problems = ["iteration raised:\n" + traceback.format_exc()]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"iteration {self.attempted}: {p}" for p in problems]
            return None
        self.typical_s = elapsed
        return elapsed, speed_factor(before, after)

    def timed(self, seconds: float, min_count: int, before=None, after=None):
        """Iterate for ``seconds``, longer if needed for ``min_count`` successes.

        Once ``seconds`` are spent, at most ``3 * min_count`` iterations are
        tried in all, so a run whose iterations keep failing still ends; its
        failures are counted. Returns (raw seconds, speed factor) of every
        successful iteration; ``after`` runs after each success.
        """
        timings = []
        tries = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or (
            len(timings) < min_count and tries < 3 * min_count
        ):
            tries += 1
            if before:
                before()
            timing = self.iteration()
            if timing is not None:
                timings.append(timing)
                if after:
                    after()
        return timings

    def setup_times(self, count: int):
        """(raw seconds, speed factor) of ``count`` fresh set-up processes.

        Probes and reference processes alternate, so each probe shares the
        reference process timed after it with the next probe.
        """
        timings = []
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), self.inputs["config"]]
        before = reference_process_seconds()
        for _ in range(count):
            self.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - t0
            after = reference_process_seconds()
            if proc.returncode != 0:
                self.failed += 1
                self.problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
            else:
                timings.append((elapsed, speed_factor(before, after, SETUP_REFERENCE_S)))
            before = after
        return timings


def _line(name, value, unit, note) -> str:
    return f"{name:<40} = {value:<14.6g} {unit:<12} {note}"


def scaled(timings) -> list[float]:
    return [t * f for t, f in timings]


def _timing_note(timings, what) -> str:
    med, q1, q3 = summary(scaled(timings))
    return (f"(median of {len(timings)} {what} at reference speed, quartiles {q1:.6g} .. {q3:.6g};"
            f" raw median {summary([t for t, _ in timings])[0]:.6g} s,"
            f" median speed factor {summary([f for _, f in timings])[0]:.4g})")


def measure(workload, seed, seconds, trace, size="full", expected=None, setup_probes=N_SETUP_PROBES):
    """One benchmark run; returns (report lines, result dict, problems found)."""
    instance = wl.instance_of(seed)
    if size == "full":
        expected = recorded_fingerprint(workload, instance)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    lines = [
        f"workload {workload}  seed {seed}  input instance {instance}"
        f" (sim.seed {wl.BASE_SEED + instance})  size {size}  trace {trace}",
        "provenance " + json.dumps(provenance(), sort_keys=True),
    ]
    metrics = {}
    try:
        runner = Runner(workload, instance, size, workdir, expected)
        setup = runner.setup_times(setup_probes) if not trace else []
        runner.iteration()  # warm-up: checked, not timed
        phase = seconds if not trace else seconds / 2.0
        wall = runner.timed(phase, 3 if not trace else 2)

        if not trace:
            units = END_TO_END_UNITS
            for name, timings, what in (("wall_s", wall, "timed iterations"), ("setup_s", setup, "fresh processes")):
                if timings:
                    metrics[name] = summary(scaled(timings))[0]
                    lines.append(_line(name, metrics[name], "s", _timing_note(timings, what)))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            lines.append(_line("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                               f"(peak of this process over {runner.attempted - setup_probes} iterations)"))
        else:
            tr = tracer.Tracer()
            per_iter: list[dict[str, float]] = []
            tr.install()
            try:
                traced = runner.timed(
                    phase, 2, before=tr.reset, after=lambda: per_iter.append(tracer.layer_metrics(tr.spans))
                )
            finally:
                tr.remove()
            left = tracer.leftover_wrappers()
            if left:
                runner.problems.append(f"wrappers left in place: {left}")
            if tr.missing:
                lines.append(f"not traced (attribute missing): {', '.join(tr.missing)}")
            units = dict(tracer.UNITS)
            units["trace.overhead_s"] = "s"
            factors = [f for _, f in traced]
            for name, unit in tracer.UNITS.items():
                sample = [m[name] for m in per_iter]
                if not sample:
                    continue
                if name in tracer.COUNT_METRICS:
                    metrics[name] = summary(sample)[0]
                    note = f"(per iteration, {len(sample)} traced iterations"
                    note += ", identical)" if len(set(sample)) == 1 else ", NOT identical)"
                elif unit in ("s", "us"):
                    timings = list(zip(sample, factors))
                    metrics[name] = summary(scaled(timings))[0]
                    note = _timing_note(timings, "traced iterations")
                else:
                    metrics[name] = summary(sample)[0]
                    note = f"(median of {len(sample)} traced iterations)"
                lines.append(_line(name, metrics[name], unit, note))
            if wall and traced:
                untraced_s = summary(scaled(wall))[0]
                traced_s = summary(scaled(traced))[0]
                metrics["trace.overhead_s"] = traced_s - untraced_s
                lines.append(_line("trace.overhead_s", metrics["trace.overhead_s"], "s",
                                   f"(median traced {traced_s:.6g} s over {len(traced)}"
                                   f" minus median untraced {untraced_s:.6g} s over {len(wall)},"
                                   " both at reference speed)"))
        failed, attempted = runner.failed, runner.attempted
        problems = runner.problems
    except Exception:
        failed, attempted = 1, 1
        problems = ["run raised:\n" + traceback.format_exc()]
        metrics, units = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    lines.append(f"{'fail_frac':<40} = {failed / attempted:<14.6g} {'1':<12} "
                 f"({failed} of {attempted} attempted: iterations and set-up processes)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        import_ancsim()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    lines, result, problems = measure(args.workload, args.seed, args.seconds, args.trace)
    for p in problems[:20]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
