"""Acceptance gate: the eleven headline properties, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Trials, dimensions, and tolerances are fixed here on purpose;
loosening any of them is a red flag, not a fix.
"""

import json
import random
import time
from fractions import Fraction as F

from conelogic import cli
from conelogic.backends import (
    matrix_from_json,
    morphism_to_pcs_matrix,
    pcs_matrix_to_morphism,
    qcs_duality_report,
    qcs_trace_norm,
    simplex_pcs,
)
from conelogic.cones import (
    dual_object,
    gauge_norm,
    norm_primal,
    one_obj,
    pairing,
)
from conelogic.exponentials import (
    analytic_compose,
    analytic_eval,
    analytic_map,
    delta,
    diag_mult,
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
from conelogic.mall import (
    adjoint,
    compose,
    coproduct_obj,
    curry,
    identity,
    morphism_norm,
    product_obj,
    tensor_obj,
    uncurry,
)
from conelogic.polyhedra import polar_of_points, reduce_generators
from conelogic.rationals import unit, vec
from conelogic.sampling import (
    rand_ball_point,
    rand_contraction,
    rand_gens,
    rand_object,
    rand_pcs_matrix,
    rand_psd,
    rand_vec,
)
from conelogic.symmetric import (
    new_norm_bounds,
    old_norm,
    polarization_constant,
    sym_tensor,
)
from conelogic.multisets import msets


def rand_sym_coords(r, labels, num_max=3, den_max=2):
    """Nonnegative coefficient list over a multiset index set."""
    return [F(r.randint(0, num_max), r.randint(1, den_max)) for _ in labels]


def test_criterion_01_gauge_lp_equals_generator_max_under_10s():
    r = random.Random(101)
    t0 = time.monotonic()
    for _ in range(100):
        a = rand_object(r, r.randint(2, 4), max_gens=6)
        x = rand_vec(r, a.dim)
        assert gauge_norm(a, x) == norm_primal(a, x)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"norm duality took {elapsed:.2f}s"


def test_criterion_02_bipolar_idempotent():
    r = random.Random(102)
    for _ in range(100):
        dim = r.randint(2, 4)
        gens = rand_gens(r, dim, r.randint(1, 5))
        for c in range(dim):
            if all(g[c] == 0 for g in gens):
                gens.append(unit(dim, c))
        s = reduce_generators(gens)
        polar = polar_of_points(s, dim)
        back = polar_of_points(polar.vertices, dim)
        assert reduce_generators(back.vertices) == s


def test_criterion_03_curry_uncurry_bijection_preserves_norms():
    r = random.Random(103)
    for _ in range(50):
        a = rand_object(r, 2)
        b = rand_object(r, 2)
        c = rand_object(r, r.randint(2, 3))
        f = rand_contraction(r, tensor_obj(a, b), c)
        g = curry(f)
        assert uncurry(g).matrix == f.matrix
        assert curry(uncurry(g)).matrix == g.matrix
        assert morphism_norm(g) == morphism_norm(f)


def test_criterion_04_additive_norms_and_non_isomorphism_witness():
    r = random.Random(104)
    for _ in range(50):
        a = rand_object(r, r.randint(1, 3))
        b = rand_object(r, r.randint(1, 3))
        x = rand_ball_point(r, a)
        y = rand_ball_point(r, b)
        assert norm_primal(product_obj(a, b), x + y) == max(
            norm_primal(a, x), norm_primal(b, y)
        )
        assert norm_primal(coproduct_obj(a, b), x + y) == norm_primal(
            a, x
        ) + norm_primal(b, y)
    bl = simplex_pcs(2)
    z = vec([1, 0, 0, 1])
    assert norm_primal(product_obj(bl, bl), z) == 1
    assert norm_primal(coproduct_obj(bl, bl), z) == 2


def test_criterion_05_symmetric_norm_sandwich():
    r = random.Random(105)
    tol = F(1, 10**6)
    max_ratio = F(0)
    flagged = 0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        dim = 2 if i % 4 < 2 else 3
        a = rand_object(r, dim)
        coords = rand_sym_coords(r, msets(dim, n))
        if all(c == 0 for c in coords):
            coords[0] = F(1)
        f = sym_tensor(dim, n, dict(zip(msets(dim, n), coords)))
        old = old_norm(f, a)
        br = new_norm_bounds(f, a)
        k = polarization_constant(n)
        assert br.lower <= old <= k * br.upper * (1 + tol)
        if br.lower > 0:
            ratio = old / br.lower
            max_ratio = max(max_ratio, ratio)
            if ratio > 2**n:
                flagged += 1
    # the displayed chain's 2^n is not asserted; samples beyond it are
    # counted and reported, the derived constant is what is checked
    print(
        f"criterion 5: max old/new ratio {max_ratio} "
        f"(~{float(max_ratio):.4f}); {flagged} of 50 samples above 2^n"
    )
    # worked instance: the x1 x2 form on the two-point simplex
    bl = simplex_pcs(2)
    f = sym_tensor(2, 2, {(0, 1): F(1, 2)})
    assert old_norm(f, bl) == F(1, 2)
    br = new_norm_bounds(f, bl)
    assert br.lower >= F(1, 4) - tol
    assert br.lower <= F(1, 4) <= br.upper


def test_criterion_06_exponential_iso_pairing_identity():
    n = 3
    r = random.Random(106)
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
                assert phi(dxy.coords) == pe
                assert phi_inv(pe) == dxy.coords
                fl = rand_vec(r, phi.source.dim, num_max=3)
                assert pairing(
                    dual_object(phi.source), fl, dxy.coords
                ) == pairing(dual_object(phi.target), adjoint(phi_inv)(fl), pe)
                samples += 1
    assert samples == 20


def test_criterion_07_monad_and_comonoid_laws():
    n = 3
    b = simplex_pcs(2)
    w = whynot_obj(b, n)
    assert compose(mu(b, n), eta(w, n)).matrix == identity(w).matrix
    assert compose(mu(b, n), whynot_mor(eta(b, n), n)).matrix == identity(w).matrix
    d = diag_mult(b, n)
    onew = graded_par_obj(one_obj(), w, n)
    lam = graded_relabel(w, onew, lambda m: (0, m))
    unit_path = compose(
        d, compose(graded_par_mor(monoid_unit(b, n), identity(w), n), lam)
    )
    assert unit_path.matrix == identity(w).matrix
    ww = graded_par_obj(w, w, n)
    left_src = graded_par_obj(ww, w, n)
    right_src = graded_par_obj(w, ww, n)
    alpha = graded_relabel(left_src, right_src, lambda t: (t[0][0], (t[0][1], t[1])))
    assert (
        compose(d, graded_par_mor(d, identity(w), n)).matrix
        == compose(d, compose(graded_par_mor(identity(w), d, n), alpha)).matrix
    )


def test_criterion_08_composition_truncates_exactly_and_monotonely():
    half = simplex_pcs(1)
    fm = analytic_map(half, half, [[[0]], [[0]], [[1]]])
    gm = analytic_map(half, half, [[[0]], [[1]], [[1]]])
    comp4 = analytic_compose(gm, fm, 4)
    comp3 = analytic_compose(gm, fm, 3)
    assert comp4.matrix[0] == (0, 0, 1, 0, 1)
    assert comp3.matrix[0] == (0, 0, 1, 0)
    r = random.Random(108)
    for _ in range(20):
        t = rand_ball_point(r, half)
        assert analytic_eval(comp3, t)[0] <= analytic_eval(comp4, t)[0]


def test_criterion_09_pcs_matrix_round_trip():
    r = random.Random(109)
    for _ in range(50):
        ds, dt = r.randint(2, 3), r.randint(2, 3)
        u = rand_pcs_matrix(r, ds, dt)
        f = pcs_matrix_to_morphism(u, simplex_pcs(ds), simplex_pcs(dt))
        assert morphism_norm(f) <= 1
        assert morphism_to_pcs_matrix(f) == u


def test_criterion_10_spectral_norm_duality():
    r = random.Random(110)
    for _ in range(100):
        n = r.randint(2, 8)
        m = matrix_from_json(rand_psd(r, n))
        assert abs(qcs_trace_norm(m) - float(m.trace())) <= 1e-9
        rep = qcs_duality_report(m, 1e-8)
        assert rep["passed"], rep


def test_criterion_11_cli_reports_are_byte_identical(capsys, tmp_path):
    env = tmp_path / "env.json"
    env.write_text(
        json.dumps(
            {
                "schema": 1,
                "atoms": {
                    "a": {
                        "kind": "pcs",
                        "dim": 2,
                        "ball_gens": [["1", "0"], ["0", "1"]],
                    }
                },
            }
        )
    )
    invocations = [
        ["parse", "--formula", "!a * a -o a"],
        ["interpret", "--env", str(env), "--formula", "!(a & a)", "--trunc", "2"],
        ["check", "--suite", "all", "--seed", "42", "--trials", "3"],
    ]
    for argv in invocations:
        code1 = cli.main(argv)
        first = capsys.readouterr().out
        code2 = cli.main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second and first, f"unstable output for {argv[0]}"
        json.loads(first)
