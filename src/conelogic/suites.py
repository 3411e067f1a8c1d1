"""Law-check suites behind the `check` command.

Each suite is a list of named checks, every check a dict with keys `name`,
`passed`, `detail`. Details carry the worked numbers, exact values
printed as fractions. All randomness comes from per-suite seeded
generators (seed "<K>/<suite>"), so `check --suite exp` reproduces the exp
section of `check --suite all` with the same seed and reports are
byte-stable.

Suites run sequentially. The functions underneath are pure, so fanning them
out would be safe, but desk-scale runtimes (well under a second a suite)
do not justify the import of an executor.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .backends import (
    cube_pcs,
    morphism_to_pcs_matrix,
    pcs_contraction_flag,
    pcs_matrix_to_morphism,
    simplex_pcs,
)
from .cones import (
    dual_object,
    gauge_norm,
    norm_primal,
    one_obj,
    pairing,
    validate_object,
)
from .errors import ConelogicError
from .exponentials import (
    analytic_compose,
    analytic_eval,
    analytic_map,
    delta,
    diag_mult,
    distribution_norm_bounds,
    eta,
    exp_iso,
    graded_par_mor,
    graded_par_obj,
    graded_relabel,
    monoid_unit,
    mu,
    pair_element,
    whynot_mor,
    whynot_obj,
)
from .mall import (
    adjoint,
    compose,
    coproduct_obj,
    cotensor_obj,
    curry,
    hom_obj,
    identity,
    morphism_norm,
    product_obj,
    tensor_obj,
    uncurry,
)
from .polyhedra import bipolar, reduce_generators
from .rationals import Q0, vec
from .sampling import (
    rand_ball_point,
    rand_contraction,
    rand_gens,
    rand_object,
    rand_pcs_matrix,
    rand_vec,
)
from .spectral import qcs_duality_report, qcs_trace_norm, rand_psd

SUITE_NAMES = ("mall", "exp", "pcs", "qcs")


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _guard(name: str, fn) -> dict:
    """Run one check; an exception is a failure, not a crash."""
    try:
        return fn()
    except ConelogicError as e:
        return _check(name, False, f"raised {type(e).__name__}: {e}")


def _suite_rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}/{suite}")


# ---------------------------------------------------------------------------
# mall


def _mall_norm_duality(r: random.Random, trials: int) -> dict:
    worked = 0
    for _ in range(trials):
        a = rand_object(r, r.randint(2, 4), max_gens=6)
        x = rand_vec(r, a.dim)
        if gauge_norm(a, x) != norm_primal(a, x):
            return _check(
                "norm-duality",
                False,
                f"gauge LP disagrees with generator max on {a.dim}-dim object "
                f"after {worked} agreements",
            )
        worked += 1
    return _check(
        "norm-duality",
        True,
        f"gauge LP = max over dual generators on {worked} random objects, exact",
    )


def _mall_bipolar(r: random.Random, trials: int) -> dict:
    for t in range(trials):
        dim = r.randint(2, 4)
        gens = rand_gens(r, dim, r.randint(1, 5))
        for c in range(dim):
            if all(g[c] == 0 for g in gens):
                gens.append(tuple(Fraction(int(i == c)) for i in range(dim)))
        s = reduce_generators(gens)
        if reduce_generators(bipolar(s, dim)) != s:
            return _check("bipolar-idempotent", False, f"counterexample at trial {t}")
    return _check(
        "bipolar-idempotent",
        True,
        f"reduce(polar(polar(S))) = reduce(S) on {trials} generator sets, exact",
    )


def _mall_curry(r: random.Random, trials: int) -> dict:
    for _ in range(trials):
        a = rand_object(r, 2)
        b = rand_object(r, 2)
        c = rand_object(r, r.randint(2, 3))
        f = rand_contraction(r, tensor_obj(a, b), c)
        g = curry(f)
        if uncurry(g).matrix != f.matrix:
            return _check("curry-uncurry", False, "round trip changed the matrix")
        nf, ng = morphism_norm(f), morphism_norm(g)
        if nf != ng:
            return _check(
                "curry-uncurry", False, f"norm changed: {nf} against {ng}"
            )
        if curry(uncurry(g)).matrix != g.matrix:
            return _check("curry-uncurry", False, "inverse direction changed the matrix")
    return _check(
        "curry-uncurry",
        True,
        f"bijection with exact norm preservation on {trials} positive contractions",
    )


def _mall_additive(r: random.Random, trials: int) -> dict:
    for _ in range(trials):
        a = rand_object(r, r.randint(1, 3))
        b = rand_object(r, r.randint(1, 3))
        x = rand_ball_point(r, a)
        y = rand_ball_point(r, b)
        nx, ny = norm_primal(a, x), norm_primal(b, y)
        if norm_primal(product_obj(a, b), x + y) != max(nx, ny):
            return _check("additive-norms", False, "product norm is not the max")
        if norm_primal(coproduct_obj(a, b), x + y) != nx + ny:
            return _check("additive-norms", False, "coproduct norm is not the sum")
    bl = simplex_pcs(2)
    z = vec([1, 0, 0, 1])
    nw = norm_primal(product_obj(bl, bl), z)
    np_ = norm_primal(coproduct_obj(bl, bl), z)
    if (nw, np_) != (1, 2):
        return _check(
            "additive-norms", False, f"witness norms came out {nw} and {np_}"
        )
    return _check(
        "additive-norms",
        True,
        f"max/sum exact on {trials} pairs; same point norms {nw} in the product "
        f"and {np_} in the coproduct, so the additives are not isomorphic",
    )


def _mall_de_morgan(r: random.Random, trials: int) -> dict:
    for _ in range(trials):
        a = rand_object(r, r.randint(1, 3))
        b = rand_object(r, r.randint(1, 3))
        da, db = dual_object(a), dual_object(b)
        ok = (
            dual_object(tensor_obj(a, b)) == cotensor_obj(da, db)
            and dual_object(product_obj(a, b)) == coproduct_obj(da, db)
            and hom_obj(a, b) == cotensor_obj(da, b)
            and dual_object(dual_object(a)) == a
        )
        if not ok:
            return _check("de-morgan-objects", False, "a duality identity failed")
    return _check(
        "de-morgan-objects",
        True,
        f"tensor/par, with/plus, hom-as-par and involution on {trials} pairs, exact",
    )


def suite_mall(seed: int, trials: int) -> list[dict]:
    r = _suite_rng(seed, "mall")
    half = max(1, trials // 2)
    return [
        _guard("norm-duality", lambda: _mall_norm_duality(r, trials)),
        _guard("bipolar-idempotent", lambda: _mall_bipolar(r, trials)),
        _guard("curry-uncurry", lambda: _mall_curry(r, half)),
        _guard("additive-norms", lambda: _mall_additive(r, half)),
        _guard("de-morgan-objects", lambda: _mall_de_morgan(r, half)),
    ]


# ---------------------------------------------------------------------------
# exp


def _exp_monad_units() -> dict:
    n = 3
    b = simplex_pcs(2)
    w = whynot_obj(b, n)
    ok = (
        compose(mu(b, n), eta(w, n)).matrix == identity(w).matrix
        and compose(mu(b, n), whynot_mor(eta(b, n), n)).matrix == identity(w).matrix
    )
    return _check(
        "monad-units",
        ok,
        "substitution after both units is the identity at N=3, per-grade exact",
    )


def _exp_comonoid() -> dict:
    n = 3
    b = simplex_pcs(2)
    w = whynot_obj(b, n)
    d = diag_mult(b, n)
    onew = graded_par_obj(one_obj(), w, n)
    lam = graded_relabel(w, onew, lambda m: (0, m))
    unit_ok = (
        compose(
            d, compose(graded_par_mor(monoid_unit(b, n), identity(w), n), lam)
        ).matrix
        == identity(w).matrix
    )
    ww = graded_par_obj(w, w, n)
    swap = graded_relabel(ww, ww, lambda t: (t[1], t[0]))
    comm_ok = compose(d, swap).matrix == d.matrix
    left_src = graded_par_obj(ww, w, n)
    right_src = graded_par_obj(w, ww, n)
    alpha = graded_relabel(left_src, right_src, lambda t: (t[0][0], (t[0][1], t[1])))
    assoc_ok = (
        compose(d, graded_par_mor(d, identity(w), n)).matrix
        == compose(d, compose(graded_par_mor(identity(w), d, n), alpha)).matrix
    )
    return _check(
        "comonoid-laws",
        unit_ok and comm_ok and assoc_ok,
        "diagonalization unit, commutativity and associativity at N=3, exact",
    )


def _exp_iso_pairing(r: random.Random) -> dict:
    n = 3
    factors = (one_obj(), simplex_pcs(2))
    samples = 0
    for a in factors:
        for b in factors:
            phi, phi_inv = exp_iso(a, b, n)
            ab = product_obj(a, b)
            for _ in range(5):
                x = rand_ball_point(r, a)
                y = rand_ball_point(r, b)
                dxy = delta(ab, x + y, n)
                pe = pair_element(
                    phi.target, delta(a, x, n).coords, delta(b, y, n).coords
                )
                if phi(dxy.coords) != pe or phi_inv(pe) != dxy.coords:
                    return _check("exp-iso-pairing", False, "delta naturality failed")
                f = rand_vec(r, phi.source.dim, num_max=3)
                lhs = pairing(dual_object(phi.source), f, dxy.coords)
                rhs = pairing(dual_object(phi.target), adjoint(phi_inv)(f), pe)
                if lhs != rhs:
                    return _check(
                        "exp-iso-pairing",
                        False,
                        f"pairing identity failed: {lhs} against {rhs}",
                    )
                samples += 1
    return _check(
        "exp-iso-pairing",
        True,
        f"split deltas and the pairing identity on {samples} sampled points "
        "across unit/simplex factor pairs at N=3, exact",
    )


def _exp_delta_norm(r: random.Random, trials: int) -> dict:
    b = simplex_pcs(2)
    worst = Q0
    for _ in range(trials):
        x = rand_ball_point(r, b)
        br = distribution_norm_bounds(delta(b, x, 3))
        if br.upper > 1 or br.lower > br.upper:
            return _check(
                "delta-norm",
                False,
                f"bracket [{br.lower}, {br.upper}] escapes 1",
            )
        worst = max(worst, br.upper)
    return _check(
        "delta-norm",
        True,
        f"||delta_x|| bracketed within [lower, upper] <= 1 on {trials} "
        f"ball points (worst upper {worst}; bounds from the simplex oracle, "
        "exact grid and center)",
    )


def _exp_composition(r: random.Random) -> dict:
    half = simplex_pcs(1)
    fm = analytic_map(half, half, [[[0]], [[0]], [[1]]])
    gm = analytic_map(half, half, [[[0]], [[1]], [[1]]])
    comp4 = analytic_compose(gm, fm, 4)
    comp3 = analytic_compose(gm, fm, 3)
    flat4 = list(comp4.matrix[0])
    flat3 = list(comp3.matrix[0])
    if flat4 != [0, 0, 1, 0, 1] or flat3 != [0, 0, 1, 0]:
        return _check(
            "composition",
            False,
            f"t^2 after s+s^2 truncated wrong: {flat4} and {flat3}",
        )
    for _ in range(20):
        t = rand_ball_point(r, half)
        v3 = analytic_eval(comp3, t)[0]
        v4 = analytic_eval(comp4, t)[0]
        if not (v3 <= v4):
            return _check(
                "composition", False, f"evaluation dropped with N: {v3} > {v4}"
            )
    return _check(
        "composition",
        True,
        "(s+s^2) after t^2 is t^2+t^4 at N=4 and t^2 at N=3, exact; evaluation "
        "monotone in N on 20 sampled points",
    )


def suite_exp(seed: int, trials: int) -> list[dict]:
    r = _suite_rng(seed, "exp")
    return [
        _guard("monad-units", _exp_monad_units),
        _guard("comonoid-laws", _exp_comonoid),
        _guard("exp-iso-pairing", lambda: _exp_iso_pairing(r)),
        _guard("delta-norm", lambda: _exp_delta_norm(r, max(1, trials // 2))),
        _guard("composition", lambda: _exp_composition(r)),
    ]


# ---------------------------------------------------------------------------
# pcs


def _pcs_round_trip(r: random.Random, trials: int) -> dict:
    for _ in range(trials):
        ds, dt = r.randint(2, 3), r.randint(2, 3)
        u = rand_pcs_matrix(r, ds, dt)
        f = pcs_matrix_to_morphism(u, simplex_pcs(ds), simplex_pcs(dt))
        if morphism_to_pcs_matrix(f) != u:
            return _check("round-trip", False, "matrix changed through the morphism")
    return _check(
        "round-trip",
        True,
        f"matrix -> morphism -> matrix is the identity on {trials} contraction "
        "matrices, exact",
    )


def _pcs_contraction_flags() -> dict:
    b = simplex_pcs(2)
    u_ok = (
        (Fraction(1, 2), Fraction(1, 2)),
        (Q0, Fraction(1)),
    )
    u_big = ((Fraction(2), Q0), (Q0, Fraction(1)))
    f1, flag1 = pcs_contraction_flag(u_ok, b, b)
    f2, flag2 = pcs_contraction_flag(u_big, b, b)
    n1, n2 = morphism_norm(f1), morphism_norm(f2)
    ok = flag1 and not flag2 and n1 == 1 and n2 == 2
    return _check(
        "contraction-flags",
        ok,
        f"norm {n1} flagged as a contraction, norm {n2} flagged as not, exact",
    )


def _pcs_polar_duality(r: random.Random, trials: int) -> dict:
    for d in (1, 2, 3, 4):
        if dual_object(simplex_pcs(d)) != cube_pcs(d):
            return _check("polar-duality", False, f"simplex/cube duality broke at {d}")
    for _ in range(trials):
        a = rand_object(r, r.randint(2, 3), max_gens=6)
        if not validate_object(a).passed:
            return _check("polar-duality", False, "random object failed validation")
    return _check(
        "polar-duality",
        True,
        f"the dual of simplex(d) is cube(d) for d = 1..4, exactly; validate_object "
        f"passes on {trials} random objects of dim 2-3 (canonical spanning sides in "
        f"the orthant, mutual polarity, unit-norm generators)",
    )


def suite_pcs(seed: int, trials: int) -> list[dict]:
    r = _suite_rng(seed, "pcs")
    return [
        _guard("round-trip", lambda: _pcs_round_trip(r, trials)),
        _guard("contraction-flags", _pcs_contraction_flags),
        _guard("polar-duality", lambda: _pcs_polar_duality(r, max(1, trials // 5))),
    ]


# ---------------------------------------------------------------------------
# qcs


def _qcs_trace(r: random.Random, trials: int) -> dict:
    for _ in range(trials):
        m, squares = rand_psd(r, r.randint(2, 8))
        if qcs_trace_norm(m) != squares:
            return _check("trace-norm", False, f"trace norm of G G^T is not {squares}")
    return _check("trace-norm", True, f"trace norm = sum of g_ij^2 on {trials} PSD matrices G G^T")


def _qcs_duality(r: random.Random, trials: int) -> dict:
    closed = 0
    for _ in range(trials):
        rep = qcs_duality_report(rand_psd(r, r.randint(2, 8))[0])
        if not rep["passed"]:
            side = "operator" if rep["trace_ok"] else "trace"
            return _check("norm-duality", False, f"{side}-norm duality fails exactly")
        closed += rep["op_norm"].lower == rep["op_norm"].upper
    return _check(
        "norm-duality",
        True,
        f"both duality identities hold exactly on {trials} PSD matrices "
        f"({closed} operator-norm brackets closed)",
    )


def suite_qcs(seed: int, trials: int) -> list[dict]:
    r = _suite_rng(seed, "qcs")
    return [
        _guard("trace-norm", lambda: _qcs_trace(r, trials)),
        _guard("norm-duality", lambda: _qcs_duality(r, trials)),
    ]


# ---------------------------------------------------------------------------
# driver


_SUITES = {
    "mall": suite_mall,
    "exp": suite_exp,
    "pcs": suite_pcs,
    "qcs": suite_qcs,
}


def run_suites(names, seed: int, trials: int) -> dict:
    """Run the named suites; returns {suite: {checks, passed}} plus a flag."""
    suites = {}
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
        checks = _SUITES[name](seed, trials)
        suites[name] = {"checks": checks, "passed": all(c["passed"] for c in checks)}
    return {
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }
