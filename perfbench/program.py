"""The calls into conelogic that the benchmark times.

CLI requests go through `cli.main` in process with stdout captured; graded
laws are library calls that return the matrices each law says are equal.
Module attributes are looked up at call time, so the tracer's wrappers are
seen.
"""

from __future__ import annotations

import contextlib
import io

from conelogic import backends, cli, cones, exponentials as ex, mall


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _base(kind: str, pts):
    d = len(pts[0])
    if kind == "simplex":
        return backends.simplex_pcs(d)
    if kind == "cube":
        return backends.cube_pcs(d)
    return cones.from_p_gens(pts, d, label="poly")


def _unit_eta(b, n):
    w = ex.whynot_obj(b, n)
    m = ex.mu(b, n)
    return [(mall.compose(m, ex.eta(w, n)).matrix, "I")], {
        "whynot": w.dim, "mu_source": m.source.dim
    }


def _unit_whynot(b, n):
    w = ex.whynot_obj(b, n)
    lhs = mall.compose(ex.mu(b, n), ex.whynot_mor(ex.eta(b, n), n))
    return [(lhs.matrix, "I")], {"whynot": w.dim}


def _counit(b, n):
    w = ex.whynot_obj(b, n)
    d = ex.diag_mult(b, n)
    onew = ex.graded_par_obj(cones.one_obj(), w, n)
    lam = ex.graded_relabel(w, onew, lambda m: (0, m))
    unit = ex.graded_par_mor(ex.monoid_unit(b, n), mall.identity(w), n)
    return [(mall.compose(d, mall.compose(unit, lam)).matrix, "I")], {"whynot": w.dim}


def _commutativity(b, n):
    w = ex.whynot_obj(b, n)
    d = ex.diag_mult(b, n)
    ww = ex.graded_par_obj(w, w, n)
    swap = ex.graded_relabel(ww, ww, lambda t: (t[1], t[0]))
    return [(mall.compose(d, swap).matrix, d.matrix)], {"whynot": w.dim}


def _associativity(b, n):
    w = ex.whynot_obj(b, n)
    d = ex.diag_mult(b, n)
    ww = ex.graded_par_obj(w, w, n)
    left = ex.graded_par_obj(ww, w, n)
    right = ex.graded_par_obj(w, ww, n)
    alpha = ex.graded_relabel(left, right, lambda t: (t[0][0], (t[0][1], t[1])))
    lhs = mall.compose(d, ex.graded_par_mor(d, mall.identity(w), n))
    rhs = mall.compose(d, mall.compose(ex.graded_par_mor(mall.identity(w), d, n), alpha))
    return [(lhs.matrix, rhs.matrix)], {"whynot": w.dim}


def _functor(b, n, spec, lift):
    mid = _base(spec["mid"], [[1] * len(spec["f"])])
    last = _base(spec["last"], [[1] * len(spec["g"])])
    f = mall.mor(b, mid, spec["f"])
    g = mall.mor(mid, last, spec["g"])
    lhs = lift(mall.compose(g, f), n)
    rhs = mall.compose(lift(g, n), lift(f, n))
    ident = lift(mall.identity(b), n)
    dims = {"whynot": ident.source.dim, "norms": (mall.morphism_norm(f), mall.morphism_norm(g))}
    return [(lhs.matrix, rhs.matrix), (ident.matrix, "I")], dims


def _exp_iso(b, n, spec):
    k = spec["split"]
    pts = spec["points"]
    a1 = _base(spec["kind"], [p[:k] for p in pts])
    a2 = _base(spec["kind"], [p[k:] for p in pts])
    phi, inv = ex.exp_iso(a1, a2, n)
    return [(mall.compose(inv, phi).matrix, "I"), (mall.compose(phi, inv).matrix, "I")], {
        "whynot": phi.source.dim
    }


def run_law(spec: dict):
    """Evaluate one law; returns ([(lhs, rhs or "I")], facts), where facts
    holds the dimensions, and for functoriality the norms of f and g."""
    law, n = spec["law"], spec["trunc"]
    b = _base(spec["kind"], spec["points"])
    if law == "unit_eta":
        return _unit_eta(b, n)
    if law == "unit_whynot":
        return _unit_whynot(b, n)
    if law == "counit":
        return _counit(b, n)
    if law == "commutativity":
        return _commutativity(b, n)
    if law == "associativity":
        return _associativity(b, n)
    if law == "functor_bang":
        return _functor(b, n, spec, ex.bang_mor)
    if law == "functor_whynot":
        return _functor(b, n, spec, ex.whynot_mor)
    if law == "exp_iso":
        return _exp_iso(b, n, spec)
    raise ValueError(f"unknown law {law!r}")


def run(op):
    if op.call[0] == "graded":
        return run_law(op.call[1])
    return run_cli(op.call)
