"""Workload definitions: seeded inputs, one timed iteration, its fingerprint.

A workload writes its inputs (a config file and, for ``held_check``, a
waveform file) into a work directory and drives ancsim only through
``ancsim.cli.main`` argv or the public library functions. One iteration
returns the exit codes it saw, a fingerprint of the numbers that must not
drift, and a digest of every byte it produced.

Input instance ``i`` uses ``sim.seed = 1234 + i``; instance 0 is the
program's default configuration, at which the step-size sweep reproduces
the frozen values of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

BASE_SEED = 1234
N_INSTANCES = 64

# Frozen default-sweep values, copied from tests/_frozen.py (the self-test
# checks the copy against that file).
FROZEN_SWEEP = {"mu_max_proposed": 1.8, "mu_max_conventional": 0.9, "widening": 2.0}

# Horizon and cells per period of each workload; "tiny" is the self-test size.
SIZES = {
    "full": {
        "compare_long": (2000, 32),
        "sweep_default": (100, 8),
        "held_check": (2000, 8),
        "design_offline": (2000, 8),
    },
    "tiny": {
        "compare_long": (12, 4),
        "sweep_default": (6, 2),
        "held_check": (12, 4),
        "design_offline": (24, 4),
    },
}

# held_check: step size and envelope decay (1/s) of the broadband waveform.
# White cell-rate noise reaches up to pi L / h, far above the Nyquist rate
# pi / h; at this step size every instance stays bounded and passes the
# convergence check.
HELD_MU = 0.02
HELD_DECAY = 0.002

WORKLOADS = ("compare_long", "sweep_default", "held_check", "design_offline")
EXPECTED_EXIT = {
    "compare_long": [0],
    "sweep_default": [0],
    "held_check": [0, 0],
    "design_offline": [],
}


def instance_of(seed: int) -> int:
    return seed % N_INSTANCES


def make_inputs(workload: str, instance: int, size: str, workdir: str) -> dict:
    """Write the seeded inputs; returns paths and settings for the iterations."""
    T, L = SIZES[size][workload]
    sim_seed = BASE_SEED + instance
    lines = [f"sim.seed = {sim_seed}", f"sim.T = {T}", f"sim.L = {L}"]
    inputs = {}
    if workload == "held_check":
        rng = np.random.default_rng(sim_seed)
        t = np.arange(T * L) / L
        wave = rng.standard_normal(T * L) * np.exp(-HELD_DECAY * t)
        inputs["waveform"] = os.path.join(workdir, "waveform.txt")
        np.savetxt(inputs["waveform"], wave, fmt="%.17g")
        lines += [f"adapt.mu = {HELD_MU}", f"noise.waveform = {inputs['waveform']}"]
    inputs["config"] = os.path.join(workdir, "experiment.cfg")
    with open(inputs["config"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return inputs


def prepare(workload: str, inputs: dict):
    """In-process preparation outside the timed region (design: the recording)."""
    if workload != "design_offline":
        return None
    from ancsim import SimConfig, run_single

    config = SimConfig.from_file(inputs["config"])
    return config, run_single(config).trace


def _cli(argv: list[str]) -> int:
    from ancsim import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def run_iteration(workload: str, inputs: dict, prepared, out_dir: str):
    """The timed body of one iteration.

    Returns the exit codes it saw and, for the library workload, the result
    arrays (the CLI workloads leave theirs as files in ``out_dir``).
    """
    cfg = inputs["config"]
    if workload == "compare_long":
        return [_cli(["compare", "--config", cfg, "--out", out_dir])], None
    if workload == "sweep_default":
        return [_cli(["sweep", "--config", cfg, "--out", out_dir])], None
    if workload == "held_check":
        rc_run = _cli(["run", "--config", cfg, "--out", out_dir])
        trace = os.path.join(out_dir, "u_blocks.csv")
        return [rc_run, _cli(["check", "--config", cfg, "--trace", trace, "--out", out_dir])], None
    if workload == "design_offline":
        from ancsim import adaptive, spectrum

        config, trace = prepared
        problem = adaptive.build_wiener(trace.u_blocks, trace.d, config.n_taps, config.T, config.h, config.L)
        taps = adaptive.wiener_solve(problem).taps
        iterates = adaptive.sd_run(problem, np.zeros(config.n_taps), config.mu, config.n_steps)
        bound = spectrum.spectral_bound(config.secondary(), trace.x_d, config.h)
        parseval = spectrum.parseval_check(problem, bound)
        return [], {
            "taps": taps,
            "sd_final": iterates[-1],
            "spectral_peak": np.array([bound.peak]),
            "spectral_mu_limit": np.array([bound.mu_limit]),
            "parseval_entry00_rel": np.array([parseval.entry00_rel]),
            "parseval_scale_rel": np.array([parseval.scale_rel_deviation]),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _key_values(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return {k: v for k, v in rows[1:]}


def _table(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return [dict(zip(header, row)) for row in rows]


def _g(value) -> str:
    return f"{float(value):.17g}"


def fingerprint(workload: str, out_dir: str, codes: list[int], products) -> dict[str, str]:
    """Numbers that identify the result, all at %.17g."""
    fp = {f"exit_{i}": str(code) for i, code in enumerate(codes)}
    if workload == "compare_long":
        cmp_ = _key_values(os.path.join(out_dir, "comparison.csv"))
        fp.update({k: _g(v) for k, v in cmp_.items()})
        for arm in ("proposed", "conventional"):
            rep = _key_values(os.path.join(out_dir, f"{arm}_report.csv"))
            for key in ("disturbance_l2", "mu_limit", "eps_realized", "n_completed"):
                fp[f"{arm}.{key}"] = _g(rep[key])
    elif workload == "sweep_default":
        for row in _table(os.path.join(out_dir, "sweep.csv")):
            mu = float(row["mu"])
            fp[f"mu={mu}.error_proposed"] = _g(row["error_l2_proposed"])
            fp[f"mu={mu}.error_conventional"] = _g(row["error_l2_conventional"])
        summary = _key_values(os.path.join(out_dir, "sweep_summary.csv"))
        for key in ("mu_max_proposed", "mu_max_conventional", "widening"):
            fp[key] = _g(summary[key])
    elif workload == "held_check":
        rep = _key_values(os.path.join(out_dir, "report.csv"))
        for key in ("error_l2", "disturbance_l2", "n_completed", "diverged", "mu_limit",
                    "eps_realized", "cond_bounded", "cond_step", "cond_slow"):
            fp[key] = _g(rep[key])
    elif workload == "design_offline":
        for key, values in products.items():
            for i, v in enumerate(values):
                fp[f"{key}_{i}" if values.size > 1 else key] = _g(v)
    return fp


def output_digest(out_dir: str, products) -> dict[str, str]:
    """sha256 of every file the iteration wrote and of every result array."""
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digest[name] = h.hexdigest()
    for key, values in (products or {}).items():
        digest[key] = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
    return digest


def fingerprint_mismatches(got: dict[str, str], expected: dict[str, str], rel: float = 1e-9) -> list[str]:
    """Keys whose values differ by more than ``rel`` (inf/nan must match exactly)."""
    bad = [f"{k}: missing" for k in expected if k not in got]
    bad += [f"{k}: unexpected" for k in got if k not in expected]
    for key in expected.keys() & got.keys():
        a, b = float(got[key]), float(expected[key])
        if np.isfinite(a) and np.isfinite(b):
            ok = abs(a - b) <= rel * max(abs(a), abs(b))
        else:
            ok = (a == b) or (np.isnan(a) and np.isnan(b))
        if not ok:
            bad.append(f"{key}: got {got[key]}, expected {expected[key]}")
    return sorted(bad)
