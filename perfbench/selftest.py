"""Self-test of the benchmark at a tiny size (a few seconds).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, on every workload at the tiny size:

* an untraced and a traced run emit exactly the end-to-end and per-layer
  metrics BENCHMARK.json names, each with the unit it names, and pass;
* the traced counts match the structure of the run (two arms, one period
  step and one regressor evaluation per period and arm);
* a fingerprint corrupted by one part in a million is reported as a failed
  run;
* a run whose outputs drift after the first timed iteration ends, with every
  later iteration counted as failed;
* after the traced runs every traced attribute holds its original object.

It also checks the frozen sweep values copied into workloads.py against
tests/_frozen.py. Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import runpy
import signal
import sys

import run
import tracer
import workloads as wl


def _metric_problems(result, expected_units) -> list[str]:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"metric {k} missing" for k in expected_units if k not in got]
    problems += [f"metric {k} not in BENCHMARK.json" for k in got if k not in expected_units]
    problems += [f"metric {k} has unit {got[k]}, expected {u}"
                 for k, u in expected_units.items() if k in got and got[k] != u]
    return problems


class _Hung(BaseException):
    """Raised by the alarm when a run does not end (not caught by run.measure)."""


def _drift_problems(workload: str, expected) -> list[str]:
    """Outputs drift from the third call of run_iteration on (warm-up, one good timed iteration)."""
    original = wl.run_iteration
    calls = 0

    def drifting(workload, inputs, prepared, out_dir):
        nonlocal calls
        calls += 1
        result = original(workload, inputs, prepared, out_dir)
        if calls > 2:
            with open(os.path.join(out_dir, "drift.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"{calls}\n")
        return result

    def hung(signum, frame):
        raise _Hung

    wl.run_iteration = drifting
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        _, result, _ = run.measure(workload, 0, 0.01, 0, "tiny", expected, setup_probes=1)
    except _Hung:
        return [f"{workload}: run with drifting outputs did not end within 60 s"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        wl.run_iteration = original
    # One set-up probe, the warm-up, then 3 * 3 timed tries of which the first passes.
    want_failed, want_attempted = 8, 11
    if result["correct"] or (result["failed"], result["attempted"]) != (want_failed, want_attempted):
        return [f"{workload}: drifting outputs gave correct={result['correct']},"
                f" {result['failed']} of {result['attempted']} failed,"
                f" expected {want_failed} of {want_attempted}"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if set(bench_names := [w["name"] for w in bench["workloads"]]) != set(wl.WORKLOADS):
        return _report([f"BENCHMARK.json workloads {bench_names} differ from {wl.WORKLOADS}"])

    run.import_ancsim()
    originals = {(id(owner), attr): vars(owner).get(attr) for owner, attr, _, _ in tracer.targets()}
    problems = []
    for workload in wl.WORKLOADS:
        expected = run.reference_fingerprint(workload, 0, "tiny")
        for trace, units in ((0, end_to_end), (1, per_layer)):
            _, result, found = run.measure(workload, 0, 0.01, trace, "tiny", expected, setup_probes=1)
            problems += [f"{workload} trace {trace}: {p}" for p in found + _metric_problems(result, units)]
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: run reported incorrect")
            if trace and workload == "compare_long":
                T = wl.SIZES["tiny"][workload][0]
                counts = {k: v["value"] for k, v in result["metrics"].items()}
                want = {
                    "lifting.step.calls": 2 * T,
                    "adaptive.lms_step.calls": 2 * T,
                    "adaptive.fh_step.calls": 2 * T,
                    "runner.run_single.calls": 2,
                    "adaptive.check.calls": 2,
                    "lifting.discretize_lifted.calls": 3,
                }
                problems += [f"compare_long: {k} = {counts.get(k)}, expected {v}"
                             for k, v in want.items() if counts.get(k) != v]

        key = next(k for k in expected if not k.startswith("exit_"))
        corrupted = dict(expected, **{key: f"{float(expected[key]) * (1 + 1e-6) + 1e-300:.17g}"})
        _, result, _ = run.measure(workload, 0, 0.01, 0, "tiny", corrupted, setup_probes=1)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: corrupted fingerprint ({key}) was not reported as a failure")

    problems += _drift_problems("sweep_default", run.reference_fingerprint("sweep_default", 0, "tiny"))

    for owner, attr, _, _ in tracer.targets():
        if vars(owner).get(attr) is not originals[(id(owner), attr)]:
            problems.append(f"tracer left {owner.__name__}.{attr} replaced")
    problems += [f"wrapper left in place: {name}" for name in tracer.leftover_wrappers()]

    frozen_path = run.ROOT / "tests" / "_frozen.py"
    if frozen_path.is_file():
        frozen = runpy.run_path(str(frozen_path))
        for key, value in wl.FROZEN_SWEEP.items():
            if frozen[f"SWEEP_{key.upper()}"] != value:
                problems.append(f"FROZEN_SWEEP[{key}] = {value}, tests/_frozen.py has {frozen[f'SWEEP_{key.upper()}']}")
    return _report(problems)


def _report(problems: list[str]) -> int:
    for p in problems:
        print(f"selftest: FAILED {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
