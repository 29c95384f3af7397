"""Command-line harness around the experiment drivers.

Subcommands: ``run`` (single adaptive run), ``compare`` (proposed vs
conventional blocking), ``sweep`` (step-size sweep of both arms), ``bode``
(plant frequency-response table), ``check`` (re-evaluate the convergence
conditions on a recorded u_blocks.csv). Results go to CSV files in the
output directory; summaries and wall time go to stdout only.

Each common flag sets one config key on top of the config file (``--mu``
sets ``adapt.mu``, or ``adapt.mu_list`` for ``sweep``), and the config is
built once, before the subcommand starts; a bad value exits 2 naming its
key. A command line that names its subcommand first builds only that
subcommand's options. A subcommand loads the modules it runs once its config
is valid: ``runner`` and ``reports`` for ``run``, ``compare`` and ``sweep``,
``reports`` alone for ``bode``, ``_tables`` and ``adaptive`` for ``check``.
"""

from __future__ import annotations

import argparse
import sys
import time

from numpy.linalg import LinAlgError

from .config import ConfigError, SimConfig, read_config

__all__ = ["main"]


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every subcommand when it is None."""
    parser = argparse.ArgumentParser(
        prog="anc-sim",
        description="Sampled-data filtered-x adaptive noise control experiments",
    )
    # one subcommand's parser names them all in its usage line, as the full parser does; a
    # metavar on the full parser would also rename "command" in its errors
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (help_text, mu_key, func) in _COMMANDS.items():
        if command in (None, name):
            p_cmd = sub.add_parser(name, help=help_text)
            p_cmd.set_defaults(func=func)
            p_cmd.add_argument("--config", help="path to a key = value config file")
            # a flag's dest is the dotted key it sets (see _build_config)
            for flag, key in (("--out", "output.dir"), ("--seed", "sim.seed"), ("--mu", mu_key),
                              ("--L", "sim.L"), ("--threshold", "sweep.threshold")):
                p_cmd.add_argument(flag, dest=key, help=f"set {key} over the config file")
            if name == "check":
                p_cmd.add_argument("--trace", required=True, help="path to a u_blocks.csv recorded with adapt.mu")
    return parser


def _build_config(args) -> SimConfig:
    """The config file (or the defaults) with each given flag's key laid over it, built once."""
    mapping = read_config(args.config) if args.config else {}
    mapping.update((key, value) for key, value in vars(args).items() if "." in key and value is not None)
    return SimConfig.from_mapping(mapping)


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


def _cmd_run(cfg: SimConfig, args) -> int:
    from . import reports
    t0 = time.perf_counter()
    result, paths = reports.run_to_csv(cfg, cfg.out_dir)
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


def _cmd_compare(cfg: SimConfig, args) -> int:
    from . import reports
    t0 = time.perf_counter()
    result, paths = reports.run_to_csv(cfg, cfg.out_dir, compare=True)
    wall = time.perf_counter() - t0
    print(
        f"compare: proposed error L2 = {result.proposed.error_norm:.6g},"
        f" conventional error L2 = {result.conventional.error_norm:.6g},"
        f" ratio = {result.ratio:.4f}"
    )
    print(f"wrote {len(paths)} files to {cfg.out_dir}")
    print(f"wall time: {wall:.3f} s")
    return 0


def _cmd_sweep(cfg: SimConfig, args) -> int:
    from . import reports, runner
    t0 = time.perf_counter()
    result = runner.run_mu_sweep(cfg)
    paths = reports.write_sweep_csv(result, cfg.out_dir)
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


def _cmd_bode(cfg: SimConfig, args) -> int:
    from . import reports
    path = reports.write_bode_csv(cfg, cfg.out_dir)
    print(f"wrote {path}")
    return 0


def _cmd_check(cfg: SimConfig, args) -> int:
    if not cfg.mu > 0.0:
        raise ConfigError("adapt.mu", f"check needs a positive step size, got {cfg.mu}")
    from ._tables import _sized_by, load_u_blocks
    from .adaptive import check_lms_conditions
    blocks = load_u_blocks(args.trace)
    # the trace and every setting are valid here, so a failure to allocate is the taps'
    try:
        with _sized_by("filter.taps", f"{cfg.n_taps} taps"):
            report = check_lms_conditions(blocks, cfg.mu, cfg.n_taps, cfg.h, cfg.eps_threshold)
    except LinAlgError as exc:  # the trace's numbers: its Gram matrix overflows or has no eigenvalues
        raise ValueError(f"{args.trace}: {exc}") from None
    print(f"trace: {report.n_intervals} periods, {blocks.shape[1]} cells, taps = {report.n_taps}")
    if report.degenerate:
        print("note: trace carries no regressor energy; conditions hold vacuously")
    _print_conditions(report)
    print(f"overall: {'PASS' if report.all_ok else 'FAIL'}")
    return 0 if report.all_ok else 1


# each subcommand's help, the key its --mu sets and its function
_COMMANDS = {
    "run": ("single adaptive run", "adapt.mu", _cmd_run),
    "compare": ("proposed vs conventional blocking", "adapt.mu", _cmd_compare),
    "sweep": ("step-size sweep of both arms", "adapt.mu_list", _cmd_sweep),
    "bode": ("plant frequency-response table", "adapt.mu", _cmd_bode),
    "check": ("convergence conditions on a recorded trace", "adapt.mu", _cmd_check),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(_build_config(args), args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
