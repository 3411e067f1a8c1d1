"""Command line entry points.

Four subcommands: `parse` (grammar check plus dual-normalized form),
`interpret` (build the object a formula denotes), `norm` (exact value or
oracle bracket for one element), `check` (seeded law suites). Every JSON
report carries `"schema": 1`, is key-sorted, and contains no timestamps or
machine state, so identical invocations are byte-identical; inexact numbers
always travel with their tolerance or bracket.

Exit codes: 0 on success (for `check`, all suites passed), 1 when a check
fails, 2 on bad input (syntax, environment, capability). A command line
that does not parse is bad input too: it gets an error report with
`"command": null` instead of argparse's usage text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .cones import Backend, ConeObject, in_cone, norm_primal
from .errors import ConelogicError
from .exponentials import (
    DEFAULT_TRUNC,
    ExpNode,
    SumNode,
    TensorNode,
    graded_coords,
    graded_grades,
    graded_norm_bounds,
)
from .formulas import (
    atom_names,
    dual_formula,
    format_formula,
    formula_to_json,
    normalize_dual,
    parse_formula,
)
from .interpreter import interpret, load_env
from .jsonio import SCHEMA, check_schema, dump_report, frac_str, mat_json, parse_vec, vec_json
from .suites import SUITE_NAMES, run_suites


# The order of a graded object's coordinates, by the kind of its root node.
# A polyhedral factor or summand is labelled by its coordinate indices, all
# of grade 0.
_GRADED_LAYOUTS = {
    ExpNode: (
        "degree-major: grade-0 block first, then grade 1, ...; within a "
        "grade, multiset labels in the sorted order listed under 'coords'"
    ),
    TensorNode: (
        "left-major pairs (left label, right label): for each left label in "
        "the left factor's order, the right labels in the right factor's "
        "order; a pair's grade is the sum of its factors' grades, and pairs "
        "above the truncation are left out"
    ),
    SumNode: (
        "summands in turn: the left summand's labels as ('L', label), then the "
        "right summand's as ('R', label), each in its own order"
    ),
}


def _object_json(a: ConeObject) -> dict:
    out: dict = {
        "label": a.label,
        "dim": a.dim,
        "backend": a.backend.value,
    }
    if a.backend is Backend.POLYHEDRAL:
        out["p_ball_gens"] = None if a.p_ball_gens is None else mat_json(a.p_ball_gens)
        out["q_ball_gens"] = None if a.q_ball_gens is None else mat_json(a.q_ball_gens)
        if a.p_ball_gens is None or a.q_ball_gens is None:
            out["implicit_side"] = (
                "tensor ball (norms still exact; materializes on demand)"
            )
        out["layout"] = "listed coordinate basis; pairs concatenate left then right"
        if a.weights is not None:
            out["weights"] = vec_json(a.weights)
    elif a.backend is Backend.GRADED:
        grades = graded_grades(a)
        dims: dict[str, int] = {}
        for g in grades:
            dims[str(g)] = dims.get(str(g), 0) + 1
        out["grade_dims"] = dims
        out["coords"] = [repr(c) for c in graded_coords(a)]
        out["weights"] = vec_json(a.pairing_weights)
        out["layout"] = _GRADED_LAYOUTS[type(a.graded.node)]
    else:
        out["spectral_n"] = a.spectral_n
        out["norm"] = "trace" if a.spectral_trace_primal else "operator"
        out["layout"] = "symmetric matrix flattened row-major"
    return out


def _emit(report: dict) -> None:
    sys.stdout.write(dump_report(report))


def _error_report(command: str | None, e: Exception) -> int:
    _emit(
        {
            "schema": SCHEMA,
            "command": command,
            "error": {"type": type(e).__name__, "message": str(e)},
        }
    )
    return 2


def _cmd_parse(args) -> int:
    try:
        ast = parse_formula(args.formula)
    except ConelogicError as e:
        return _error_report("parse", e)
    _emit(
        {
            "schema": SCHEMA,
            "command": "parse",
            "input": args.formula,
            "ast": formula_to_json(ast),
            "pretty": format_formula(ast),
            "dual_normalized": format_formula(normalize_dual(dual_formula(ast))),
        }
    )
    return 0


def _trunc_error(command: str, trunc: int) -> int:
    return _error_report(
        command, ConelogicError(f"--trunc must be at least 0, got {trunc}")
    )


def _cmd_interpret(args) -> int:
    if args.trunc < 0:
        return _trunc_error("interpret", args.trunc)
    try:
        ast = parse_formula(args.formula)
        env = load_env(args.env, atom_names(ast))
        obj = interpret(ast, env, args.trunc)
    except (ConelogicError, OSError, json.JSONDecodeError) as e:
        return _error_report("interpret", e)
    _emit(
        {
            "schema": SCHEMA,
            "command": "interpret",
            "formula": format_formula(ast),
            "trunc": args.trunc,
            "object": _object_json(obj),
        }
    )
    return 0


def _load_vector(path: str, obj: ConeObject):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("vector"), list):
        raise ConelogicError(f"{path}: expected an object with a 'vector' list")
    check_schema(data, path)
    if obj.backend is Backend.SPECTRAL:
        try:
            x = tuple(float(v) for v in data["vector"])
        except (TypeError, ValueError, OverflowError) as e:
            raise ConelogicError(f"{path}: not a number in 'vector': {e}") from e
        if not all(map(math.isfinite, x)):
            raise ConelogicError(f"{path}: 'vector' holds a value that is not finite")
        return x
    return parse_vec(data["vector"])


def _cmd_norm(args) -> int:
    if args.trunc < 0:
        return _trunc_error("norm", args.trunc)
    try:
        ast = parse_formula(args.object)
        env = load_env(args.env, atom_names(ast))
        obj = interpret(ast, env, args.trunc)
        x = _load_vector(args.vector, obj)
        if len(x) != obj.dim:
            raise ConelogicError(
                f"vector has {len(x)} coordinates, object has {obj.dim}"
            )
        report: dict = {
            "schema": SCHEMA,
            "command": "norm",
            "object": format_formula(ast),
            "trunc": args.trunc,
        }
        if obj.backend is Backend.GRADED:
            br = graded_norm_bounds(obj, x)
            report["vector"] = vec_json(x)
            if br.lower == br.upper:
                report["result"] = {"kind": "exact", "value": frac_str(br.lower)}
            else:
                report["result"] = {
                    "kind": "bracket",
                    "lower": frac_str(br.lower),
                    "upper": frac_str(br.upper),
                    "provenance": br.note,
                }
        elif obj.backend is Backend.SPECTRAL:
            n = norm_primal(obj, x)
            report["vector"] = list(x)
            report["result"] = {
                "kind": "float",
                "value": n,
                "provenance": "eigenvalue routine; PSD tolerance 1e-9",
            }
        else:
            if not in_cone(obj, x):
                raise ConelogicError("vector is outside the positive cone")
            n = norm_primal(obj, x)
            report["vector"] = vec_json(x)
            report["result"] = {"kind": "exact", "value": frac_str(n)}
    except (ConelogicError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        return _error_report("norm", e)
    _emit(report)
    return 0


def _cmd_check(args) -> int:
    if args.trials < 1:
        return _error_report(
            "check", ConelogicError(f"--trials must be at least 1, got {args.trials}")
        )
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    res = run_suites(names, args.seed, args.trials)
    _emit(
        {
            "schema": SCHEMA,
            "command": "check",
            "seed": args.seed,
            "trials": args.trials,
            "suites": res["suites"],
            "all_passed": res["all_passed"],
        }
    )
    return 0 if res["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, where argparse would print usage and exit;
    subcommand parsers inherit the class."""

    def error(self, message):
        raise ConelogicError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="conelogic",
        description="Exact normed-cone models of linear-logic formulas.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a formula and show its dual-normal form")
    sp.add_argument("--formula", required=True)
    sp.set_defaults(fn=_cmd_parse)

    si = sub.add_parser("interpret", help="build the object a formula denotes")
    si.add_argument("--env", required=True, help="atom environment JSON file")
    si.add_argument("--formula", required=True)
    si.add_argument("--trunc", type=int, default=DEFAULT_TRUNC)
    si.set_defaults(fn=_cmd_interpret)

    sn = sub.add_parser("norm", help="norm of one element of an interpreted object")
    sn.add_argument("--env", required=True)
    sn.add_argument("--object", required=True, help="formula for the object")
    sn.add_argument("--vector", required=True, help="JSON file with a 'vector' field")
    sn.add_argument("--trunc", type=int, default=DEFAULT_TRUNC)
    sn.set_defaults(fn=_cmd_norm)

    sc = sub.add_parser("check", help="run the seeded law suites")
    sc.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--trials", type=int, default=25)
    sc.set_defaults(fn=_cmd_check)
    return p


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except ConelogicError as e:
        return _error_report(None, e)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
