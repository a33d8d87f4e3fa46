"""Command line front end.

``zeno-ent SCENARIO [options]`` runs one scenario and writes a CSV or JSON
table to stdout or to ``--out``.  Options override config-file values,
which override built-in defaults.  Identical inputs produce byte-identical
output files from run to run on the same numpy and BLAS build at the same
thread count; a numeric solver's products may round differently under
another build or thread count.

Exit codes: 0 success, 2 bad usage or bad configuration, 3 solver
cross-check exceeded its error budget, 4 output could not be written.
"""

from __future__ import annotations

import argparse
import re
import sys

from .scenarios import (
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
row exceeded its tolerance (the table is still written); 4 the output path
could not be written.
"""


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


_LIST_OPTIONS = ("--r1", "--s", "--meas-interval")


def _glue_negative_lists(argv: list[str]) -> list[str]:
    """``--s -0.5,0.2`` as ``--s=-0.5,0.2``: argparse reads a value that
    starts with a minus sign and is not a plain number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
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
                        dest="meas_interval",
                        help="comma list of measurement intervals for zeno-compare")
    return parser


def _merge_config(args: argparse.Namespace) -> ScenarioConfig:
    merged: dict = {}
    if args.config is not None:
        try:
            merged = load_config_file(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
    merged["scenario"] = args.scenario
    overrides = {
        "solver": args.solver,
        "big_r": args.big_r,
        "r1": args.r1,
        "s": args.s,
        "phi": args.phi,
        "tau_max": args.tau_max,
        "tau_steps": args.tau_steps,
        "meas_intervals": args.meas_interval,
    }
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return ScenarioConfig(**merged)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_lists(sys.argv[1:] if argv is None else argv))
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
        print(f"zeno-ent: {len(bad)} solver cross-check row(s) exceeded tolerance",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
