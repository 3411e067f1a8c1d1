"""Atom environments and the formula interpreter.

An environment is a JSON document binding atom names to objects:

    { "schema": 1,
      "atoms": { "a": {"kind": "pcs", "dim": 2, "ball_gens": [["1","0"], ["0","1"]]},
                 "b": {"kind": "polyhedral", "p_gens": [...], "q_gens": [...]},
                 "q": {"kind": "qcs", "n": 3} } }

q_gens may be omitted when the dimension allows the exact polar (<= 8).
The CLI builds only the atoms its formula names (env_from_json's `names`),
so a broken atom fails only the requests that name it.
Interpretation is a straight recursion: polyhedral operands use the MALL
constructors, graded operands route through the exponential module, and
spectral operands survive only under duality (the constructors reject them
with their own errors). The lollipop interprets as dual-first-factor par,
which coincides with the hom object exactly.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Collection, Mapping, Optional

from .backends import pcs_object, qcs_object
from .cones import (
    Backend,
    ConeObject,
    bot_obj,
    dual_object,
    from_both_gens,
    from_p_gens,
    materialize_p,
    materialize_q,
    one_obj,
    top_obj,
    validate_object,
    zero_obj,
)
from .errors import CapabilityError, DimensionError, EnvError
from .exponentials import (
    DEFAULT_TRUNC,
    bang_obj,
    graded_coproduct_obj,
    graded_par_obj,
    graded_product_obj,
    graded_tensor_obj,
    whynot_obj,
)
from .formulas import Formula
from .jsonio import check_schema, parse_mat
from .mall import (
    coproduct_obj,
    cotensor_obj,
    hom_obj,
    product_obj,
    tensor_obj,
)
from .polyhedra import DD_MAX_DIM


def _int_field(name: str, value, field: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise EnvError(f"atom {name!r}: {field!r} must be an integer >= {least}, got {value!r}")
    return value


def _gens_field(name: str, spec: dict, field: str):
    rows = spec[field]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise EnvError(f"atom {name!r}: {field!r} must be a list of generator lists")
    return parse_mat(rows)


def _atom_from_json(name: str, spec) -> ConeObject:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise EnvError(f"atom {name!r}: expected an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "pcs":
            gens = _gens_field(name, spec, "ball_gens")
            return pcs_object(gens, _int_field(name, spec["dim"], "dim", 0), label=name)
        if kind == "polyhedral":
            p = _gens_field(name, spec, "p_gens")
            dim = _int_field(name, spec.get("dim", len(p[0]) if p else 0), "dim", 0)
            if "q_gens" in spec:
                obj = from_both_gens(p, _gens_field(name, spec, "q_gens"), dim, label=name)
                report = validate_object(obj)
                if not report.passed:
                    bad = "; ".join(
                        f"{c.name}: {c.detail}" for c in report.checks if not c.passed
                    )
                    raise EnvError(f"atom {name!r}: {bad}")
                return obj
            if dim > DD_MAX_DIM:
                raise EnvError(
                    f"atom {name!r}: dimension {dim} needs explicit q_gens "
                    f"(exact polar caps at {DD_MAX_DIM})"
                )
            return from_p_gens(p, dim, label=name)
        if kind == "qcs":
            return replace(qcs_object(_int_field(name, spec["n"], "n", 1)), label=name)
    except KeyError as e:
        raise EnvError(f"atom {name!r}: missing field {e.args[0]!r}") from e
    except (ValueError, DimensionError) as e:  # the polar rejects the points; a wrong length
        raise EnvError(f"atom {name!r}: {e}") from e
    raise EnvError(f"atom {name!r}: unknown kind {kind!r}")


def env_from_json(
    data: dict, names: Optional[Collection[str]] = None
) -> dict[str, ConeObject]:
    """Atoms of an environment document. The document is checked whole, but
    only the atoms in `names` are built (all of them when None), in document
    order; a name the document lacks is left for interpret to report."""
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), dict):
        raise EnvError("environment needs an 'atoms' table")
    check_schema(data, "environment")
    return {
        name: _atom_from_json(name, spec)
        for name, spec in data["atoms"].items()
        if names is None or name in names
    }


def load_env(path: str, names: Optional[Collection[str]] = None) -> dict[str, ConeObject]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise EnvError(f"{path}: {e}") from e
    return env_from_json(data, names)


# ---------------------------------------------------------------------------
# Interpretation


def _explicit(a: ConeObject) -> ConeObject:
    """Both sides explicit, as with/plus need. Explicit objects come back
    unchanged; above DD_MAX_DIM an implicit side stays, for product_obj to
    refuse."""
    if a.backend is Backend.POLYHEDRAL and a.dim <= DD_MAX_DIM:
        return materialize_p(materialize_q(a))
    return a


def _plain_polyhedral(*objs: ConeObject) -> bool:
    return all(
        a.backend is Backend.POLYHEDRAL and a.weights is None for a in objs
    )


def interpret(
    f: Formula, env: Mapping[str, ConeObject], trunc: int = DEFAULT_TRUNC
) -> ConeObject:
    k = f.kind
    if k == "atom":
        try:
            return env[f.name]
        except KeyError:
            raise EnvError(f"unbound atom {f.name!r}") from None
    if k == "one":
        return one_obj()
    if k == "bot":
        return bot_obj()
    if k == "zero":
        return zero_obj()
    if k == "top":
        return top_obj()
    if k == "dual":
        return dual_object(interpret(f.children[0], env, trunc))
    if k in ("bang", "whynot"):
        base = interpret(f.children[0], env, trunc)
        if base.backend is Backend.SPECTRAL:
            raise CapabilityError(
                f"exponential {'!' if k == 'bang' else '?'} on spectral operand "
                f"{base.label or '?'}: spectral objects support norms and duality only"
            )
        return (bang_obj if k == "bang" else whynot_obj)(base, trunc)
    a = interpret(f.children[0], env, trunc)
    b = interpret(f.children[1], env, trunc)
    for side in (a, b):
        if side.backend is Backend.SPECTRAL:
            raise CapabilityError(
                f"connective {k!r} on spectral operand {side.label or '?'}: "
                "spectral objects support norms and duality only"
            )
    if k == "tensor":
        return tensor_obj(a, b) if _plain_polyhedral(a, b) else graded_tensor_obj(a, b, trunc)
    if k == "par":
        return cotensor_obj(a, b) if _plain_polyhedral(a, b) else graded_par_obj(a, b, trunc)
    if k == "with":
        if _plain_polyhedral(a, b):
            return product_obj(_explicit(a), _explicit(b))
        return graded_product_obj(a, b)
    if k == "plus":
        if _plain_polyhedral(a, b):
            return coproduct_obj(_explicit(a), _explicit(b))
        return graded_coproduct_obj(a, b)
    if k == "lollipop":
        if _plain_polyhedral(a, b):
            return hom_obj(a, b)
        return graded_par_obj(dual_object(a), b, trunc)
    raise EnvError(f"cannot interpret node kind {k!r}")
