"""Checks of the program's outputs against the benchmark's own evaluator.

Each check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import numpy as np

from evaluator import (
    build,
    graded_msets,
    multiplicity,
    mutually_polar,
    polar_vertices,
    rel_close,
    same_support,
    series_value,
)

# Fixed nonnegative directions for support-function comparisons.
_DIRS = np.random.default_rng(20180316).random((32, 64))
# Brute-force polars are enumerated only below this many active sets.
_BRUTE_CAP = 30000


def _dirs(dim: int) -> np.ndarray:
    return np.vstack([np.eye(dim), _DIRS[:, :dim]])


def _floats(gens) -> np.ndarray:
    return np.array([[float(Fraction(v)) for v in g] for g in gens])


def _combos(n: int, d: int) -> int:
    return comb(n + d, d)


def _error_report(out: str):
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        return "exit 2 without a JSON report"
    if rep.get("schema") != 1 or "error" not in rep:
        return "exit 2 report lacks schema 1 or an error"
    return None


def check_interpret(op, code: int, out: str):
    if op.expect.get("missing"):
        return None if code == 2 and _error_report(out) is None else f"missing env: exit {code}"
    if op.expect.get("fault") and code == 2:
        return _error_report(out)
    if code != 0:
        return f"interpret exit {code}"
    obj = json.loads(out)["object"]
    node = build(op.expect["shape"], op.expect["atoms"])
    if obj["dim"] != node.dim or obj["backend"] != "polyhedral":
        return f"dimension {obj['dim']}, expected {node.dim}"
    dirs = _dirs(node.dim)
    p, q = obj["p_ball_gens"], obj["q_ball_gens"]
    if p is None and q is None:
        return "both generator lists implicit"
    if p is not None and not same_support(_floats(p), node.P, dirs):
        return "primal generators differ from the independent construction"
    if q is not None and not same_support(_floats(q), node.Q, dirs):
        return "dual generators differ from the independent construction"
    if p is not None and q is not None:
        fp, fq = _floats(p), _floats(q)
        cross = fp @ fq.T
        if cross.max() > 1 + 1e-9:
            return "a pairing of the two lists exceeds 1"
        if not (np.allclose(cross.max(axis=1), 1) and np.allclose(cross.max(axis=0), 1)):
            return "a generator is off the unit sphere"
        small = max(_combos(len(fp), node.dim), _combos(len(fq), node.dim)) <= _BRUTE_CAP
        if small and not mutually_polar(fp, fq, dirs):
            return "generator lists are not mutually polar"
    return None


def check_norm(op, code: int, out: str):
    if code != 0:
        return f"norm exit {code}"
    res = json.loads(out)["result"]
    if res["kind"] != "exact":
        return f"MALL norm reported as {res['kind']}"
    node = build(op.expect["shape"], op.expect["atoms"])
    x = np.array([float(Fraction(v)) for v in op.expect["vector"]])
    want = node.primal(x)
    got = float(Fraction(res["value"]))
    if not rel_close(got, want):
        return f"norm {got!r}, recomputed {want!r}"
    return None


# ---------------------------------------------------------------------------
# bracket


def bracket_of(out: str) -> tuple[Fraction, Fraction]:
    res = json.loads(out)["result"]
    if res["kind"] == "exact":
        v = Fraction(res["value"])
        return v, v
    return Fraction(res["lower"]), Fraction(res["upper"])


def rel_width(out: str) -> Fraction:
    lo, up = bracket_of(out)
    return Fraction(0) if up == lo else (up - lo) / up


def _ball_samples(gens: np.ndarray, count: int = 16) -> np.ndarray:
    """Points of the downward hull of gens: the generators, their midpoints,
    their centroid and fixed random convex combinations."""
    pts = [g for g in gens]
    pts += [(a + b) / 2 for i, a in enumerate(gens) for b in gens[i + 1 :]]
    pts.append(gens.mean(axis=0))
    w = np.random.default_rng(7).dirichlet(np.ones(len(gens)), size=count)
    pts.extend(w @ gens)
    return np.array(pts)


def check_bracket(op, code: int, out: str):
    if code != 0:
        return f"norm exit {code}"
    lo, up = bracket_of(out)
    if lo > up:
        return f"lower {lo} above upper {up}"
    n = op.expect["trunc"]
    p = _floats(op.expect["atom"])
    d = p.shape[1]
    q = polar_vertices(p)
    msets = graded_msets(d, n)
    e = [Fraction(v) for v in op.expect["vector"]]
    fe = [float(v) for v in e]
    tol = 1e-9 * max(1.0, float(up))
    if op.kind == "series":
        # f lives on the dual ball, the downward hull of q.
        seen = max(series_value(fe, msets, y) for y in _ball_samples(q))
        box = q.max(axis=0)
        bound = series_value(fe, msets, box)
        if op.expect["simplex"]:
            want = sum((multiplicity(m) * c for c, m in zip(e, msets)), Fraction(0))
            if lo != up or lo != want:
                return f"simplex series sup {lo}..{up}, expected exactly {want}"
    else:
        # e pairs with the series <g, .>^k, g in the dual ball: each has sup 1.
        seen = max(
            sum(
                multiplicity(m) * np.prod([g[i] for i in m]) * v
                for v, m in zip(fe, msets)
                if len(m) == k
            )
            for g in q
            for k in range(n + 1)
        )
        samples = _ball_samples(p)
        bound = 0.0
        for v, m in zip(fe, msets):
            if v:
                peak = max(float(np.prod([x[i] for i in m])) for x in samples)
                bound += v / peak
    if float(up) < seen - tol:
        return f"upper {up} below the sampled value {seen!r}"
    if float(lo) > bound + tol:
        return f"lower {lo} above the coefficient bound {bound!r}"
    return None


# ---------------------------------------------------------------------------
# graded


def check_law(op, result) -> str | None:
    pairs, dims = result
    d, n = op.expect["dim"], op.expect["trunc"]
    if dims["whynot"] != comb(d + n, n):
        return f"?a has {dims['whynot']} coordinates, expected C({d}+{n},{n})"
    if "mu_source" in dims and dims["mu_source"] != comb(comb(d + n, n) + n, n):
        return f"??a has {dims['mu_source']} coordinates"
    if "norms" in dims and dims["norms"] != (Fraction(1, 2), Fraction(1, 2)):
        return f"morphism norms {dims['norms']}, built to be exactly 1/2"
    for lhs, rhs in pairs:
        if isinstance(rhs, str):
            size = len(lhs)
            if any(len(row) != size for row in lhs):
                return "identity law: matrix is not square"
            for i, row in enumerate(lhs):
                for j, v in enumerate(row):
                    if v != (1 if i == j else 0):
                        return f"identity law fails at ({i},{j}): {v}"
        elif tuple(map(tuple, lhs)) != tuple(map(tuple, rhs)):
            return "the two sides of the law differ"
    return None


def check(op, output) -> str | None:
    if op.call[0] == "graded":
        return check_law(op, output)
    code, out = output
    if op.call[0] == "interpret":
        return check_interpret(op, code, out)
    if op.kind in ("series", "distribution"):
        return check_bracket(op, code, out)
    return check_norm(op, code, out)
