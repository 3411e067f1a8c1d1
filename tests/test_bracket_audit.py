"""An exact soundness audit of the 384 stored reports of the bracket corpus.

tests/test_bracket_corpus.py pins every report byte for byte; this module
checks that the stored brackets are sound, so that a change which rewrites
the corpus cannot store a bracket that misses the norm. The witness of each
report comes from graded_norm_bounds, and every value is recomputed here
with the monomials of tests/reference.py, sharing no code with the bracket
route beyond object construction and in_ball.

  * ?a, a series f: the witness is delta_y for its grade-1 block y, y lies
    in the ball of A^perp, f(y) is the stored lower bound, and no point of
    an exact 1/6 grid over the generator simplex of A^perp beats the stored
    upper bound.
  * !a, a distribution e: the witness is a series g with <g, e> the stored
    lower bound, and g <= 1 on an exact 1/6 grid over the generator simplex
    of A, which holds g's sup over the ball of A.

The !a upper bounds are not checked: they come from the sampled-polar LP,
whose answer carries no certificate yet.
"""

import json
import os
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations_with_replacement

import corpus
import reference as ref
from conelogic.cones import dual_object, in_ball, primal_gens
from conelogic.exponentials import bang_obj, graded_norm_bounds, whynot_obj
from conelogic.interpreter import env_from_json

CORPUS = os.path.join(corpus.GOLDEN, "bracket_corpus.json")
STEPS = 6
WITNESS = "a witness exactly when the lower bound is positive"


@lru_cache(maxsize=None)
def grid_monomials(gens, n):
    """delta_z at truncation n for each point z = sum_i (k_i / STEPS) g_i,
    k >= 0 with sum k = STEPS, of the generators' simplex."""
    dim = len(gens[0])
    labels = ref.graded_labels(dim, n)
    return [
        ref.monomials(tuple(sum(g[c] for g in pick) / STEPS for c in range(dim)), labels)
        for pick in combinations_with_replacement(gens, STEPS)
    ]


def requests(side):
    """(request, atom A, truncation, vector, stored (lower, upper), witness)
    for every corpus request on ?A (side '?') or !A (side '!')."""
    for rnd in corpus.load(CORPUS)["rounds"]:
        env = env_from_json(rnd["env"])
        for req in rnd["requests"]:
            if req["object"][0] != side:
                continue
            a, n = env[req["object"][1:]], req["trunc"]
            e = [F(x) for x in req["vector"]]
            res = json.loads(req["report"])["result"]
            bounds = ("value", "value") if res["kind"] == "exact" else ("lower", "upper")
            stored = [F(res[b]) for b in bounds]
            h = (whynot_obj if side == "?" else bang_obj)(a, n)
            yield req, a, n, e, stored, graded_norm_bounds(h, e).argmax


def weighted(v, labels):
    """v times the pairing weights of ?A and !A over a polyhedral A: the
    multiplicities of the labels."""
    return [ref.multiplicity(m) * x for m, x in zip(labels, v)]


def value(k, z):
    return sum((kc * zc for kc, zc in zip(k, z)), F(0))


def failures(checks, req):
    return [(req["object"], req["trunc"], req["vector"], what) for what, ok in checks if not ok]


def test_whynot_reports_are_sound():
    cases, failed = list(requests("?")), []
    assert len(cases) == 192
    for req, a, n, e, (lower, upper), w in cases:
        labels = ref.graded_labels(a.dim, n)
        f = weighted(e, labels)  # f(y) = <f, delta_y>
        checks = [(WITNESS, (w is None) == (lower == 0))]
        if w is not None:
            y = tuple(w[labels.index((c,))] for c in range(a.dim))
            checks += [
                ("the witness is delta_y", w == ref.monomials(y, labels)),
                ("y lies in the ball of A^perp", in_ball(dual_object(a), y)),
                ("f(y) is the lower bound", value(f, ref.monomials(y, labels)) == lower),
            ]
        grid = grid_monomials(primal_gens(dual_object(a)), n)
        beaten = any(value(f, z) > upper for z in grid)
        checks.append(("no grid point beats the upper bound", not beaten))
        failed += failures(checks, req)
    assert not failed, f"{len(failed)} failed checks, first {failed[:3]}"


def test_bang_reports_are_sound():
    cases, failed = list(requests("!")), []
    assert len(cases) == 192
    for req, a, n, e, (lower, _), w in cases:
        labels = ref.graded_labels(a.dim, n)
        checks = [(WITNESS, (w is None) == (lower == 0))]
        if w is not None:
            g = weighted(w, labels)  # g(x) = <g, delta_x>
            grid = grid_monomials(primal_gens(a), n)
            checks += [
                ("<g, e> is the lower bound", value(g, e) == lower),
                ("g <= 1 on the ball of A", all(value(g, z) <= 1 for z in grid)),
            ]
        failed += failures(checks, req)
    assert not failed, f"{len(failed)} failed checks, first {failed[:3]}"
