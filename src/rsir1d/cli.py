"""Command-line front end.

Verbs:
  run      integrate a built-in case or a config file, write CSV snapshots
  list     show the built-in case catalog
  compare  L1-error table of several fluxes against a reference solution
  sweep    rerun one case while varying a single config key
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import __version__
from . import cases as _cases
from . import driver as _driver
from .eos import EosDomainError
from .euler import PositivityError
from .exact_riemann import VacuumError
from .relaxation import RelaxationError

__all__ = ["main"]


def _load_case(spec_arg, overrides):
    if os.path.isfile(spec_arg):
        with open(spec_arg, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode()
        except UnicodeDecodeError as err:  # name the file and the line
            line = raw.count(b"\n", 0, err.start) + 1
            raise _cases.ConfigError(
                f"{spec_arg} line {line}: byte {raw[err.start]:#04x} is not "
                f"UTF-8 ({err.reason})") from None
        case = _cases.parse_config(text, source=spec_arg)
        if case.name == "custom":
            case = replace(
                case,
                name=os.path.splitext(os.path.basename(spec_arg))[0])
    else:
        case = _cases.builtin_case(spec_arg)
    if overrides:
        case = _cases.apply_overrides(case, overrides)
    return case


def _cmd_run(args):
    case = _load_case(args.case, args.set)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails first
    result = _driver.run(case)
    csv_paths = []
    for t, w in result.snapshots:
        path = os.path.join(args.out, f"{case.name}-t{t:.6e}.csv")
        _cases.emit_csv(path, case, result.mesh.centers, w)
        csv_paths.append(path)
    manifest_path = os.path.join(args.out, f"{case.name}-manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump({**result.manifest, "outputs": csv_paths}, fh, indent=2)
        fh.write("\n")
    if args.plot:
        script = os.path.join(args.out, f"{case.name}.gp")
        _cases.emit_plot_script(script, csv_paths, case)
        print(f"plot script: {script}")
    m = result.manifest
    print(f"{case.name}: {m['steps']} steps to t = {case.end_time:g} "
          f"({m['wall_time']:.2f} s), "
          f"max conservation defect {m['max_conservation_defect']:.3e}")
    if m["positivity_fallbacks"] or m["alpha_clamps"] or m["dt_rejections"]:
        print(f"  fallbacks {m['positivity_fallbacks']}, "
              f"alpha clamps {m['alpha_clamps']}, "
              f"dt rejections {m['dt_rejections']}")
    print(f"manifest: {manifest_path}")
    return 0


def _cmd_list(args):
    for name in _cases.case_names():
        case = _cases.builtin_case(name)
        print(f"{name:24s} [{case.model}] {case.description}")
    return 0


def _cmd_compare(args):
    case = _load_case(args.case, args.set)
    solvers = args.solvers.split(",") if args.solvers else None
    label, table = _cases.compare_solvers(case, solvers, n_ref=args.n_ref)
    cols = list(next(iter(table.values())))
    print(f"case {case.name}, L1 errors against {label}")
    header = "solver".ljust(16) + "".join(c.rjust(13) for c in cols)
    print(header)
    for solver, errs in table.items():
        row = solver.ljust(16) + "".join(
            f"{errs[c]:13.4e}" for c in cols)
        print(row)
    return 0


def _cmd_sweep(args):
    case = _load_case(args.case, args.set)
    values = args.values.split(",")
    # every value is checked before the first run, as compare checks solvers
    runs = [_cases.apply_overrides(case, [f"{args.param}={v}"])
            for v in values]
    print(f"case {case.name}, sweeping {args.param}")
    print("value".ljust(14) + "steps".rjust(8) + "defect".rjust(13)
          + "wall[s]".rjust(10))
    for v, swept in zip(values, runs):
        result = _driver.run(swept)
        m = result.manifest
        print(f"{v:<14s}{m['steps']:8d}"
              f"{m['max_conservation_defect']:13.3e}"
              f"{m['wall_time']:10.2f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsir1d",
        description="1D compressible finite-volume solver suite")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    one_case = argparse.ArgumentParser(add_help=False)
    one_case.add_argument("case",
                          help="built-in case name or config file path")
    one_case.add_argument("--set", action="append", default=[],
                          metavar="KEY=VALUE", help="override a config key")

    p_run = sub.add_parser("run", parents=[one_case],
                           help="integrate one case")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--plot", action="store_true",
                       help="also write a gnuplot script")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list built-in cases")
    p_list.set_defaults(func=_cmd_list)

    p_cmp = sub.add_parser("compare", parents=[one_case],
                           help="compare fluxes on one case")
    p_cmp.add_argument("--solvers", default=None,
                       help="comma-separated solver names")
    p_cmp.add_argument("--n-ref", type=int, default=2000,
                       help="reference resolution when no exact solution")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sw = sub.add_parser("sweep", parents=[one_case],
                          help="vary one config key")
    p_sw.add_argument("--param", required=True, help="config key to vary")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_cases.ConfigError, KeyError, OSError) as err:
        msg = err.args[0] if isinstance(err, KeyError) else err
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except (_driver.StepError, RelaxationError, EosDomainError,
            PositivityError, VacuumError, MemoryError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
