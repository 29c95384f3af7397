"""Command-line harness around the experiment drivers.

Subcommands: ``run`` (single adaptive run), ``compare`` (proposed vs
conventional blocking), ``sweep`` (step-size sweep of both arms), ``bode``
(plant frequency-response table), ``check`` (re-evaluate the convergence
conditions on a recorded u_blocks.csv). Results go to CSV files in the
output directory; summaries and wall time go to stdout only.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import runner
from .adaptive import check_lms_conditions
from .config import ConfigError, SimConfig

__all__ = ["main"]


def _add_common(sub: argparse.ArgumentParser, mu_help: str) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--out", help="output directory (default: output.dir from config)")
    sub.add_argument("--seed", type=int, help="override sim.seed")
    sub.add_argument("--mu", help=mu_help)
    sub.add_argument("--L", type=int, dest="cells", help="override sim.L (cells per period)")
    sub.add_argument("--threshold", type=float, help="override sweep.threshold")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anc-sim",
        description="Sampled-data filtered-x adaptive noise control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single adaptive run")
    _add_common(p_run, "override adapt.mu (one number)")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="proposed vs conventional blocking")
    _add_common(p_cmp, "override adapt.mu (one number)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser("sweep", help="step-size sweep of both arms")
    _add_common(p_swp, "override adapt.mu_list (comma-separated numbers)")
    p_swp.set_defaults(func=_cmd_sweep)

    p_bode = sub.add_parser("bode", help="plant frequency-response table")
    _add_common(p_bode, "ignored for bode")
    p_bode.set_defaults(func=_cmd_bode)

    p_chk = sub.add_parser("check", help="convergence conditions on a recorded trace")
    _add_common(p_chk, "step size the trace was recorded with (default: adapt.mu)")
    p_chk.add_argument("--trace", required=True, help="path to a recorded u_blocks.csv")
    p_chk.set_defaults(func=_cmd_check)

    return parser


def _build_config(args, mu_is_list: bool = False) -> SimConfig:
    """The config file (or the defaults) with the command-line overrides, built once."""
    over = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.cells is not None:
        over["L"] = args.cells
    if args.threshold is not None:
        over["threshold"] = args.threshold
    if args.out is not None:
        over["out_dir"] = args.out
    if args.mu is not None:
        if mu_is_list:
            try:
                over["mu_list"] = tuple(float(p) for p in args.mu.split(",") if p.strip())
            except ValueError:
                raise ConfigError("adapt.mu_list", f"expected numbers, got {args.mu!r}") from None
        else:
            try:
                over["mu"] = float(args.mu)
            except ValueError:
                raise ConfigError("adapt.mu", f"expected a number, got {args.mu!r}") from None
    return SimConfig.from_file(args.config, **over) if args.config else SimConfig(**over)


def _print_conditions(report) -> None:
    if report is None:
        print("conditions: not evaluated (mu = 0 or empty run)")
        return
    print(
        f"conditions: bounded={'pass' if report.bounded_ok else 'FAIL'}"
        f" (gamma = {report.gamma:.6g}),"
        f" step={'pass' if report.step_ok else 'FAIL'}"
        f" (mu = {report.mu:.6g}, limit = {report.mu_limit:.6g}),"
        f" slow={'pass' if report.slow_ok else 'FAIL'}"
        f" (eps = {report.eps_realized:.6g}, threshold = {report.eps_threshold:.6g})"
    )


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    t0 = time.perf_counter()
    result, paths = runner.run_to_csv(cfg, cfg.out_dir)
    wall = time.perf_counter() - t0
    print(f"run: {result.n_completed} periods, mu = {cfg.mu}, L = {cfg.L}")
    print(
        f"error L2 = {result.error_norm:.6g}, disturbance L2 = {result.d_norm:.6g},"
        f" diverged = {'yes' if result.diverged else 'no'}"
    )
    _print_conditions(result.lms_report)
    print(f"wrote {len(paths)} files to {cfg.out_dir}")
    print(f"wall time: {wall:.3f} s")
    return 0


def _cmd_compare(args) -> int:
    cfg = _build_config(args)
    t0 = time.perf_counter()
    result, paths = runner.run_to_csv(cfg, cfg.out_dir, compare=True)
    wall = time.perf_counter() - t0
    print(
        f"compare: proposed error L2 = {result.proposed.error_norm:.6g},"
        f" conventional error L2 = {result.conventional.error_norm:.6g},"
        f" ratio = {result.ratio:.4f}"
    )
    print(f"wrote {len(paths)} files to {cfg.out_dir}")
    print(f"wall time: {wall:.3f} s")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args, mu_is_list=True)
    t0 = time.perf_counter()
    result = runner.run_mu_sweep(cfg)
    paths = runner.write_sweep_csv(result, cfg.out_dir)
    wall = time.perf_counter() - t0
    print(
        f"sweep: {len(result.rows)} step sizes, threshold = {result.threshold},"
        f" stable up to mu = {result.mu_max_proposed} (proposed)"
        f" vs {result.mu_max_conventional} (conventional),"
        f" widening = {result.widening:.4f}"
    )
    print(f"wrote {len(paths)} files to {cfg.out_dir}")
    print(f"wall time: {wall:.3f} s")
    return 0


def _cmd_bode(args) -> int:
    cfg = _build_config(args)
    path = runner.write_bode_csv(cfg, cfg.out_dir)
    print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    cfg = _build_config(args)
    if not cfg.mu > 0.0:
        raise ConfigError("adapt.mu", f"check needs a positive step size, got {cfg.mu}")
    blocks = runner.load_u_blocks(args.trace)
    report = check_lms_conditions(blocks, cfg.mu, cfg.n_taps, cfg.h, cfg.eps_threshold)
    print(f"trace: {report.n_intervals} periods, {blocks.shape[1]} cells, taps = {report.n_taps}")
    if report.degenerate:
        print("note: trace carries no regressor energy; conditions hold vacuously")
    _print_conditions(report)
    print(f"overall: {'PASS' if report.all_ok else 'FAIL'}")
    return 0 if report.all_ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
