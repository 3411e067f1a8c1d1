"""JSON forms for rationals, vectors, matrices, and reports.

Every document carries "schema": 1. Rationals travel as strings ("3/4"),
with whole numbers shortened to their integer form ("2"); plain JSON
integers are accepted on input. An unsigned ASCII "n" or "n/d" is read as
ints, any other string by Fraction's parser. Vectors and matrices are lists
and lists of rows of such strings; graded vectors are flat lists in the
object's coordinate order. Reports render with sorted keys, so equal
reports are equal bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import EnvError
from .rationals import VecQ

SCHEMA = 1


def frac_str(x: Fraction) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(v) -> Fraction:
    if isinstance(v, bool):
        raise EnvError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            n, slash, d = v.partition("/")
            if v.isascii() and n.isdigit() and (d.isdigit() or not slash):
                return Fraction(int(n), int(d) if slash else 1)
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise EnvError(f"not a rational: {v!r}") from e
    if isinstance(v, float):
        raise EnvError(f"not a rational: {v!r} (floats are not exact)")
    kind = {list: "array", dict: "object", type(None): "null"}.get(type(v), type(v).__name__)
    raise EnvError(f"not a rational: {v!r} (a JSON {kind}, not a string or integer)")


def vec_json(x) -> list[str]:
    return [frac_str(c) for c in x]


def mat_json(m) -> list[list[str]]:
    return [vec_json(row) for row in m]


def parse_vec(data) -> VecQ:
    return tuple(parse_frac(v) for v in data)


def parse_mat(data):
    return tuple(parse_vec(row) for row in data)


def check_schema(data: dict, what: str) -> None:
    if data.get("schema", SCHEMA) != SCHEMA:
        raise EnvError(f"{what}: unsupported schema {data.get('schema')!r}")


# ---------------------------------------------------------------------------
# Reports


def dump_report(report: dict) -> str:
    """Canonical byte-stable rendering: sorted keys, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
