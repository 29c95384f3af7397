"""Span tracer installed around public ancsim functions for a traced run.

Each wrapper replaces a function at the module or class attribute its
callers look up, records one span per call (name, start, end, parent span)
and an optional per-call quantity, and calls through. ``Tracer.remove``
puts every original object back, so untraced timings never run with a
wrapper in place. Layer metrics are derived from the spans of one
iteration by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = 0.0


def _csv_bytes(result) -> float:
    paths = [result] if isinstance(result, str) else list(result or ())
    return float(sum(os.path.getsize(p) for p in paths))


def _n_rows(args, kwargs) -> float:
    blocks = args[0] if args else kwargs["u_blocks"]
    return float(np.shape(blocks)[0])


def targets():
    """(owner, attribute, span name, info callback) for every traced call.

    The span name may be a callable of (args, kwargs) returning the name,
    or None to pass the call through untraced. The info callback receives
    (args, kwargs, result) and returns a number stored on the span.
    """
    from ancsim import adaptive, cli, config, lifting, runner, spectrum, statespace

    # make_generator reads the noise.waveform file (np.loadtxt) when one is set.
    def waveform_read(args, kwargs):
        return "runner.csv_read" if args[0].waveform_path is not None else None

    return [
        (lifting.HybridLoop, "step", "lifting.step", lambda a, k, r: float(a[0].L)),
        (lifting.HybridLoop, "__init__", "lifting.loop_init", None),
        (lifting, "discretize_lifted", "lifting.discretize_lifted", None),
        (runner, "discretize_lifted", "lifting.discretize_lifted", None),
        (config.SimConfig, "secondary", "config.plants", None),
        (config.SimConfig, "primary", "config.plants", None),
        (config.SimConfig, "make_generator", waveform_read, None),
        (statespace, "expm", "statespace.expm", None),
        (lifting, "expm", "statespace.expm", None),
        (lifting, "vanloan", "statespace.vanloan", None),
        (runner, "check_lms_conditions", "adaptive.check", lambda a, k, r: _n_rows(a, k)),
        (cli, "check_lms_conditions", "adaptive.check", lambda a, k, r: _n_rows(a, k)),
        (runner, "sdfx_lms_step", "adaptive.lms_step", None),
        (adaptive, "fh_step", "adaptive.fh_step", None),
        (runner, "run_single", "runner.run_single", lambda a, k, r: float(r.n_completed)),
        (runner, "run_mu_sweep", "runner.sweep", None),
        (runner, "write_run_csv", "runner.csv_write", lambda a, k, r: _csv_bytes(r)),
        (runner, "write_comparison_csv", "runner.csv_write", lambda a, k, r: _csv_bytes(r)),
        (runner, "write_sweep_csv", "runner.csv_write", lambda a, k, r: _csv_bytes(r)),
        (runner, "load_u_blocks", "runner.csv_read", None),
        (adaptive, "build_wiener", "adaptive.wiener", None),
        (adaptive, "wiener_solve", "adaptive.wiener", None),
        (adaptive, "sd_run", "adaptive.sd_run", None),
        (spectrum, "spectral_bound", "spectrum.spectral_bound", None),
        (spectrum, "parseval_check", "spectrum.parseval_check", None),
        (spectrum, "freq_response_grid", "statespace.freq_response_grid", None),
    ]


class Tracer:
    """Installs span wrappers and keeps the spans of the current iteration."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, info in targets():
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, info))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            stack = self._stack
            span = Span(span_name, time.perf_counter(), stack[-1] if stack else -1)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        wrapper.perfbench_span = True
        return wrapper


def leftover_wrappers() -> list[str]:
    """Traced attributes that still hold a wrapper instead of the original."""
    left = []
    for owner, attr, _, _ in targets():
        obj = vars(owner).get(attr)
        if getattr(obj, "perfbench_span", False):
            left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


# (metric name, unit, span name, kind); kinds: calls, s (outermost spans of
# that name), info (summed per-span quantity).
_SIMPLE = [
    ("lifting.step.calls", "count", "lifting.step", "calls"),
    ("lifting.step.s", "s", "lifting.step", "s"),
    ("runner.csv_write.s", "s", "runner.csv_write", "s"),
    ("runner.csv_write.bytes", "B", "runner.csv_write", "info"),
    ("runner.csv_read.s", "s", "runner.csv_read", "s"),
    ("lifting.discretize_lifted.calls", "count", "lifting.discretize_lifted", "calls"),
    ("lifting.discretize_lifted.s", "s", "lifting.discretize_lifted", "s"),
    ("lifting.loop_init.calls", "count", "lifting.loop_init", "calls"),
    ("lifting.loop_init.s", "s", "lifting.loop_init", "s"),
    ("config.plants.calls", "count", "config.plants", "calls"),
    ("config.plants.s", "s", "config.plants", "s"),
    ("statespace.expm.calls", "count", "statespace.expm", "calls"),
    ("statespace.expm.s", "s", "statespace.expm", "s"),
    ("statespace.vanloan.calls", "count", "statespace.vanloan", "calls"),
    ("statespace.vanloan.s", "s", "statespace.vanloan", "s"),
    ("adaptive.check.calls", "count", "adaptive.check", "calls"),
    ("adaptive.check.s", "s", "adaptive.check", "s"),
    ("adaptive.lms_step.calls", "count", "adaptive.lms_step", "calls"),
    ("adaptive.lms_step.s", "s", "adaptive.lms_step", "s"),
    ("adaptive.fh_step.calls", "count", "adaptive.fh_step", "calls"),
    ("runner.run_single.calls", "count", "runner.run_single", "calls"),
    ("spectrum.spectral_bound.s", "s", "spectrum.spectral_bound", "s"),
    ("statespace.freq_response_grid.calls", "count", "statespace.freq_response_grid", "calls"),
    ("statespace.freq_response_grid.s", "s", "statespace.freq_response_grid", "s"),
    ("adaptive.wiener.s", "s", "adaptive.wiener", "s"),
    ("adaptive.sd_run.s", "s", "adaptive.sd_run", "s"),
    ("spectrum.parseval_check.s", "s", "spectrum.parseval_check", "s"),
]

# Metrics computed from the simple ones or from the span tree.
DERIVED_UNITS = {
    "lifting.step.us_per_cell": "us",
    "adaptive.check.us_per_period": "us",
    "adaptive.regressor_evals_per_period": "evals/period",
    "runner.run_single.self_s": "s",
    "runner.sweep.periods": "count",
}

UNITS = {name: unit for name, unit, _, _ in _SIMPLE}
UNITS.update(DERIVED_UNITS)
COUNT_METRICS = [name for name, unit in UNITS.items() if unit == "count"]


def _has_ancestor(spans, span, name) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one iteration from its spans."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    out = {}
    for metric, _, name, kind in _SIMPLE:
        group = by_name.get(name, [])
        if kind == "calls":
            out[metric] = float(len(group))
        else:
            outer = [s for s in group if not _has_ancestor(spans, s, name)]
            if kind == "s":
                out[metric] = sum(s.end - s.start for s in outer)
            else:
                out[metric] = sum(s.info for s in outer)

    steps = by_name.get("lifting.step", [])
    cells = sum(s.info for s in steps)
    out["lifting.step.us_per_cell"] = 1e6 * out["lifting.step.s"] / cells if cells else 0.0
    periods = sum(s.info for s in by_name.get("adaptive.check", []))
    out["adaptive.check.us_per_period"] = 1e6 * out["adaptive.check.s"] / periods if periods else 0.0
    n_steps = out["lifting.step.calls"]
    out["adaptive.regressor_evals_per_period"] = (
        (n_steps + out["adaptive.fh_step.calls"]) / n_steps if n_steps else 0.0
    )

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out["runner.run_single.self_s"] = sum(
        (s.end - s.start) - child_time[i] for i, s in enumerate(spans) if s.name == "runner.run_single"
    )
    out["runner.sweep.periods"] = sum(
        s.info for s in by_name.get("runner.run_single", []) if _has_ancestor(spans, s, "runner.sweep")
    )
    return out
