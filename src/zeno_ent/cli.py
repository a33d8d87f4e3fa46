"""Command line front end.

``zeno-ent SCENARIO [options]`` runs one scenario and writes a CSV or JSON
table to stdout or to ``--out``.  Options override config-file values,
which override built-in defaults.  Identical inputs produce byte-identical
output files from run to run on the same numpy and BLAS build at the same
thread count; another build may round a numeric solver's products
differently, and so may another thread count the bath's spectral sums.

Exit codes: 0 success, 2 bad usage or bad configuration, 3 solver
cross-check exceeded its error budget (each failing row is named on
stderr), 4 output could not be written.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .scenarios import (
    CONFIG_KEYS,
    SCENARIOS,
    SOLVERS,
    ScenarioConfig,
    load_config_file,
    run_scenario,
    write_result,
)

_EPILOG = """\
columns per scenario:
  stationary-surface  r1, s, c_s, is_argmax   (last row repeats the grid argmax)
  time-evolution      tau, then one C[r1=..;s=..] column per coupling/state pair
  zeno-compare        tau, C[unmeasured], then one C[T=..] column per interval
  solver-xcheck       r1, s, solver_a, solver_b, n_shared, max_abs_err,
                      tolerance, passed

config file: a flat JSON object; keys match the long option names with
underscores (for example {"big_r": 10.0, "r1": [0.87], "tau_max": 2.0,
"meas_intervals": [0.01, 0.1]}).

exit codes: 0 success; 2 bad usage or configuration; 3 a solver cross-check
row exceeded its tolerance (the table is still written, and each such row is
named on stderr); 4 the output path could not be written.
"""


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _glue_negative_values(argv: list[str]) -> list[str]:
    """``--phi -1e-3`` as ``--phi=-1e-3`` for every long option but
    ``--help`` (or a prefix of it): argparse reads a value that starts with
    a minus sign and is not a plain decimal, such as ``-1e-3`` or
    ``-0.5,0.2``, as an option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and not "--help".startswith(out[-1]) and re.match(r"-\.?\d", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's one parser, built on first use: parsing reads it
    and changes nothing in it, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="zeno-ent",
        description="Entanglement dynamics of two qubits sharing a lossy "
                    "resonator mode: stationary surfaces, time evolution, "
                    "measurement protection, and solver cross-checks.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", metavar="PATH",
                        help="flat JSON object with ScenarioConfig keys")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout); written atomically")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--solver", choices=SOLVERS,
                        help="integrator for time-evolution (default: closed)")
    parser.add_argument("--big-r", type=float, metavar="R",
                        help="coupling-to-linewidth ratio (default: 0.1)")
    parser.add_argument("--r1", type=_float_list, metavar="LIST",
                        help="comma list of relative couplings in [0,1]")
    parser.add_argument("--s", type=_float_list, metavar="LIST",
                        help="comma list of separability parameters in [-1,1]")
    parser.add_argument("--phi", type=float, metavar="F",
                        help="relative phase of the initial state (default: 0)")
    parser.add_argument("--tau-max", type=float, metavar="F",
                        help="time horizon in linewidth units (default: 10)")
    parser.add_argument("--tau-steps", type=int, metavar="N",
                        help="output time samples including endpoints (default: 2001)")
    parser.add_argument("--meas-interval", type=_float_list, metavar="LIST",
                        dest="meas_intervals",
                        help="comma list of measurement intervals for zeno-compare")
    return parser


def _merge_config(args: argparse.Namespace) -> ScenarioConfig:
    merged: dict = {}
    if args.config is not None:
        try:
            merged = load_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
    # every option with a config key's dest, the scenario included, overrides it
    merged.update((key, value) for key, value in vars(args).items()
                  if key in CONFIG_KEYS and value is not None)
    return ScenarioConfig(**merged)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _merge_config(args)
        result = run_scenario(cfg)
    except ValueError as exc:
        print(f"zeno-ent: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        text = write_result(result, args.out, args.format)
    except OSError as exc:
        target = args.out if args.out is not None else "<stdout>"
        print(f"zeno-ent: cannot write {target}: {exc}", file=sys.stderr)
        return 4
    if args.out is None:
        sys.stdout.write(text)
    for key, why in result.meta.get("schedule_errors", {}).items():
        print(f"zeno-ent: skipped measurement interval {key}: {why}", file=sys.stderr)
    if cfg.scenario == "solver-xcheck" and not result.meta.get("passed", True):
        bad = [row for row in result.rows if not row[-1]]
        for r1, s, solver_a, solver_b, _, err, tol, _ in bad:
            print(f"zeno-ent: {solver_a} vs {solver_b} at r1 = {r1!r}, s = {s!r}: "
                  f"max_abs_err {err!r} exceeds tolerance {tol!r}", file=sys.stderr)
        print(f"zeno-ent: {len(bad)} solver cross-check row(s) exceeded tolerance",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
