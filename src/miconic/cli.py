"""Command-line entry points: check, compile, and solve.

Results print as a single JSON object on stdout, and ``--trace`` writes one
object per line.  Every value in them is a plain JSON value, converted once
where it is built; a number that is not finite prints as null.  Exit codes
are 0 for a clean run (check: DCP-valid), 1 for a failed check, 2 for input
or format errors, 3 when the solver reports an assumption failure, and 4
when ``--oracle`` finds a disagreement with brute-force enumeration.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import time

from .compile import emit_conic
from .conicio import read_conic, write_conic
from .errors import MiconicError
from .model import dcp_verify
from .modelio import parse_model
from .oa import ASSUMPTION_FAILURE, OaConfig, brute_force_solve, oa_solve


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".miconic-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_program(path):
    with open(path) as handle:
        text = handle.read()
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].split("#", 1)[0].strip()
        if line.startswith("("):
            model = parse_model(text)
            program, _ = emit_conic(model)
            return program
        if line:
            # sections may come in any order; the reader names a bad one
            return read_conic(text)
    raise MiconicError("%s: file is empty" % path)


def _read_model(path):
    with open(path) as handle:
        return parse_model(handle.read())


def _cmd_check(args):
    report = dcp_verify(_read_model(args.model))
    print(json.dumps({"ok": report.ok, "violations": report.violations}))
    return 0 if report.ok else 1


def _cmd_compile(args):
    program, _ = emit_conic(_read_model(args.model))
    _atomic_write(args.output, write_conic(program))
    return 0


def _shifted(value, offset):
    total = math.nan if value is None else float(value + offset)
    return total if math.isfinite(total) else None


_TRACE_VALUES = ("milp_value", "subproblem_value", "lower_bound", "upper_bound")


def _cmd_solve(args):
    try:
        config = OaConfig(tol=args.tol, max_iters=args.max_iters,
                          time_limit=args.time_limit)
    except ValueError as err:
        raise MiconicError(err) from None
    program = _load_program(args.input)
    start = time.perf_counter()
    res = oa_solve(program, config)
    wall = time.perf_counter() - start
    offset = program.obj_offset
    result = {
        "status": res.status,
        "objective": _shifted(res.obj, offset),
        "lower_bound": _shifted(res.lower_bound, offset),
        "upper_bound": _shifted(res.upper_bound, offset),
        "iterations": res.iterations,
        "cuts": len(res.cuts),
        "wall_time_sec": None if args.no_timing else round(wall, 6),
        "diagnostic": res.diagnostic,
    }
    exit_code = 3 if res.status == ASSUMPTION_FAILURE else 0
    if args.oracle:
        oracle = brute_force_solve(program)
        agree = oracle.status == res.status
        if agree and oracle.obj is not None and res.obj is not None:
            agree = (abs(oracle.obj - res.obj)  # OA's own gap rule
                     <= config.tol * (1 + abs(res.obj)))
        result["oracle"] = {
            "status": oracle.status,
            "objective": _shifted(oracle.obj, offset),
            "agree": agree,
        }
        if not agree:
            exit_code = 4
    if args.trace:
        _atomic_write(args.trace, "".join(
            json.dumps({key: _shifted(value, offset) if key in _TRACE_VALUES
                        else value for key, value in record.items()}) + "\n"
            for record in res.trace))
    print(json.dumps(result))
    return exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="miconic",
        description="Model, compile and globally solve mixed-integer "
                    "convex programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify a model document "
                                           "against the composition rules")
    p_check.add_argument("model")
    p_check.set_defaults(func=_cmd_check)

    p_compile = sub.add_parser("compile", help="lower a model document to "
                                               "a standard-form instance")
    p_compile.add_argument("model")
    p_compile.add_argument("-o", "--output", required=True)
    p_compile.set_defaults(func=_cmd_compile)

    p_solve = sub.add_parser("solve", help="solve a model document or a "
                                           "standard-form instance")
    p_solve.add_argument("input")
    p_solve.add_argument("--tol", type=float, default=OaConfig.tol)
    p_solve.add_argument("--max-iters", type=int, default=OaConfig.max_iters)
    p_solve.add_argument("--time-limit", type=float,
                         default=OaConfig.time_limit)
    p_solve.add_argument("--trace", default=None,
                         help="write one JSON record per iteration here "
                              "(none when the run ends at its root "
                              "relaxation, with 0 iterations)")
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check against brute-force enumeration")
    p_solve.add_argument("--no-timing", action="store_true",
                         help="omit wall time for byte-identical output")
    p_solve.set_defaults(func=_cmd_solve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MiconicError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
