"""Connectives and morphism algebra: norms, *-autonomy, structural laws."""

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic.backends import bool_obj, cube_pcs, pcs_object, qcs_object
from conelogic import cones, lp
from conelogic.cones import (
    bot_obj,
    dual_object,
    from_p_gens,
    norm_primal,
    one_obj,
    top_obj,
    validate_object,
    zero_obj,
)
from conelogic.errors import CapabilityError, CompositionError, MembershipError
from conelogic.mall import (
    Morphism,
    adjoint,
    compose,
    coproduct_obj,
    cotensor_obj,
    curry,
    hom_obj,
    identity,
    mor,
    morphism_norm,
    product_obj,
    tensor_obj,
    uncurry,
)
from conelogic.polyhedra import DD_MAX_DIM, polar_of_points, reduce_generators
from conelogic.rationals import vec, zeros
from reference import eye

F = Fraction
Bool = bool_obj()


def kron(xs, ys):
    """The Kronecker products u (x) v over u in xs and v in ys, in Fractions;
    coordinate (i, j) of u (x) v lands at index i*len(v) + j."""
    return [tuple(x * y for x in u for y in v) for u in xs for v in ys]


# ---------------------------------------------------------------------------
# Structural catalog: the structure maps of the *-autonomous category with
# products and coproducts, built from their definitions. The package reaches
# none of them, so they live here with the laws they are checked against.
# Columns follow conelogic.mall: cols[j] lists the (target row, value)
# nonzeros of source coordinate j in ascending row order.


def unit_cols(n, offset=0):
    """Columns of the 0/1 map sending coordinate j to row j + offset."""
    return tuple(((j + offset, F(1)),) for j in range(n))


def tensor_mor(f, g):
    """f (x) g: source pair (j, l) maps to the target pairs (i, k) with entry
    f[i, j] g[k, l], row-major on both sides."""
    dg = g.target.dim
    cols = tuple(
        tuple((i * dg + k, x * y) for i, x in fc for k, y in gc)
        for fc in f.cols
        for gc in g.cols
    )
    return Morphism(tensor_obj(f.source, g.source), tensor_obj(f.target, g.target), cols)


def assoc_tensor(a, b, c):
    """(a (x) b) (x) c -> a (x) (b (x) c). Row-major flattening makes the
    underlying coordinate map the identity; only the objects differ."""
    src = tensor_obj(tensor_obj(a, b), c)
    return Morphism(src, tensor_obj(a, tensor_obj(b, c)), unit_cols(src.dim))


def braid(a, b):
    """a (x) b -> b (x) a, the symmetry of the tensor."""
    da, db = a.dim, b.dim
    cols = tuple(((j * da + i, F(1)),) for i in range(da) for j in range(db))
    return Morphism(tensor_obj(a, b), tensor_obj(b, a), cols)


def unitor_left(a):
    """1 (x) a -> a, identity on coordinates."""
    return Morphism(tensor_obj(one_obj(), a), a, unit_cols(a.dim))


def unitor_left_inv(a):
    return Morphism(a, tensor_obj(one_obj(), a), unit_cols(a.dim))


def unitor_right(a):
    return Morphism(tensor_obj(a, one_obj()), a, unit_cols(a.dim))


def unitor_right_inv(a):
    return Morphism(a, tensor_obj(a, one_obj()), unit_cols(a.dim))


def proj1(a, b):
    return Morphism(product_obj(a, b), a, unit_cols(a.dim) + ((),) * b.dim)


def proj2(a, b):
    return Morphism(product_obj(a, b), b, ((),) * a.dim + unit_cols(b.dim))


def pair_mor(f, g):
    """<f, g>: c -> a & b from f: c -> a, g: c -> b."""
    if f.source != g.source:
        raise CompositionError("pair needs a common source")
    da = f.target.dim
    cols = tuple(fc + tuple((i + da, x) for i, x in gc) for fc, gc in zip(f.cols, g.cols))
    return Morphism(f.source, product_obj(f.target, g.target), cols)


def inj1(a, b):
    return Morphism(a, coproduct_obj(a, b), unit_cols(a.dim))


def inj2(a, b):
    return Morphism(b, coproduct_obj(a, b), unit_cols(b.dim, a.dim))


def copair_mor(f, g):
    """[f, g]: a + b -> c from f: a -> c, g: b -> c."""
    if f.target != g.target:
        raise CompositionError("copair needs a common target")
    return Morphism(coproduct_obj(f.source, g.source), f.target, f.cols + g.cols)


def eval_mor(a, b):
    """(a -o b) (x) a -> b, the evaluation of *-autonomy: row k sums the
    source coordinates (hom coordinate i*db + k, a coordinate i)."""
    h = hom_obj(a, b)
    da, db = a.dim, b.dim
    cols = [()] * (h.dim * da)
    for k in range(db):
        for i in range(da):
            cols[(i * db + k) * da + i] = ((k, F(1)),)
    return Morphism(tensor_obj(h, a), b, tuple(cols))


def test_tensor_of_simplices_is_simplex():
    t = tensor_obj(Bool, Bool)
    assert t.dim == 4
    assert t.p_ball_gens == tuple(
        sorted(vec([1 if i == k else 0 for i in range(4)]) for k in range(4))
    )


def test_tensor_norm_via_lp():
    t = tensor_obj(Bool, Bool)
    s = vec([1, 0, 0, 1])
    assert norm_primal(t, s) == 2  # l1 (x) l1 is l1 on the product


def test_tensor_cross_norm():
    a = pcs_object([[1, 0], [F(1, 2), 1]], 2)
    b = cube_pcs(2)
    t = tensor_obj(a, b)
    u = vec([F(1, 3), F(2, 3)])
    v = vec([F(1, 2), F(3, 4)])
    assert norm_primal(t, kron([u], [v])[0]) == norm_primal(a, u) * norm_primal(b, v)


def test_cotensor_is_de_morgan_dual():
    a, b = Bool, cube_pcs(2)
    assert dual_object(tensor_obj(a, b)) == cotensor_obj(dual_object(a), dual_object(b))
    assert dual_object(product_obj(a, b)) == coproduct_obj(dual_object(a), dual_object(b))


def test_hom_element_norm_is_operator_norm():
    h = hom_obj(Bool, Bool)
    # matrix [[1,1],[1,1]] as a hom element: coordinate (j,k) -> M[k][j]
    phi = vec([1, 1, 1, 1])
    assert norm_primal(h, phi) == 2
    f = mor(Bool, Bool, [[1, 1], [1, 1]])
    assert morphism_norm(f) == 2


def test_product_norm_is_max_coproduct_is_sum():
    w = product_obj(Bool, Bool)
    p = coproduct_obj(Bool, Bool)
    x = vec([1, 0, 0, 1])
    assert norm_primal(w, x) == 1
    assert norm_primal(p, x) == 2  # same point, different object: not isomorphic


def test_product_with_zero_is_identity_on_gens():
    a = pcs_object([[1, 0], [F(1, 2), F(1, 2)], [0, 1]], 2)
    z = zero_obj()
    assert product_obj(a, z).p_ball_gens == a.p_ball_gens
    assert product_obj(a, z).q_ball_gens == a.q_ball_gens
    assert coproduct_obj(a, z).p_ball_gens == a.p_ball_gens


def test_morphism_positivity_enforced():
    with pytest.raises(MembershipError):
        mor(Bool, Bool, [[1, -1], [0, 1]])


def test_positivity_witness_is_first_negative_entry():
    # Mixed int, string and Fraction entries; the tiny negative sits behind
    # a zero and a positive in the second row.
    with pytest.raises(MembershipError) as e:
        mor(Bool, Bool, [[F(1, 2), "1/3"], [0, F(-1, 10**9)]])
    assert e.value.witness == (1, 1)
    f = mor(Bool, Bool, [["1/2", 0], [F(0), 1]])
    assert f.matrix == ((F(1, 2), F(0)), (F(0), F(1)))
    assert all(type(x) is F for row in f.matrix for x in row)


def test_composition_endpoint_check():
    f = mor(Bool, Bool, eye(2))
    g = mor(cube_pcs(2), cube_pcs(2), eye(2))
    with pytest.raises(CompositionError):
        compose(g, f)


def test_adjoint_is_transpose_and_involution():
    f = mor(Bool, cube_pcs(2), [[F(1, 2), 1], [0, F(1, 3)]])
    fs = adjoint(f)
    assert fs.source == dual_object(cube_pcs(2))
    assert fs.matrix == ((F(1, 2), 0), (1, F(1, 3)))
    assert adjoint(fs) == f


def test_adjoint_preserves_norm():
    f = mor(Bool, cube_pcs(2), [[F(1, 2), 1], [0, F(1, 3)]])
    assert morphism_norm(adjoint(f)) == morphism_norm(f)


def test_adjointness_identity():
    from conelogic.cones import pairing

    f = mor(Bool, cube_pcs(2), [[F(1, 2), 1], [0, F(1, 3)]])
    fs = adjoint(f)
    v = vec([F(1, 3), F(2, 3)])
    psi = vec([F(1, 2), F(1, 5)])
    assert pairing(f.target, psi, f(v)) == pairing(f.source, fs(psi), v)


def test_curry_uncurry_round_trip_and_norm():
    a = Bool
    b = pcs_object([[1, 0], [F(1, 2), 1]], 2)
    c = cube_pcs(2)
    src = tensor_obj(a, b)
    f = mor(src, c, [[F(1, 2), 0, F(1, 3), 1], [0, F(1, 4), 1, F(1, 6)]])
    g = curry(f)
    assert g.source == a and g.target == hom_obj(b, c)
    assert uncurry(g) == f
    assert morphism_norm(g) == morphism_norm(f)


def test_curry_of_eval_like_map_is_identity_shaped():
    # 1 (x) Bool -> Bool by the unitor; its curry 1 -> hom(Bool, Bool)
    # is the flattened identity matrix.
    f = unitor_left(Bool)
    g = curry(f)
    assert g.matrix == ((F(1),), (F(0),), (F(0),), (F(1),))


def test_eval_recovers_uncurried_map():
    a, b = Bool, Bool
    h = hom_obj(a, b)
    ev = eval_mor(a, b)
    f = mor(tensor_obj(h, a), b, ev.matrix)  # eval itself is positive
    # eval o (curry(ev) (x) id) == ev is the triangle we can check cheaply:
    g = curry(ev)
    assert uncurry(g) == ev


def test_sym_is_involution():
    a = Bool
    b = cube_pcs(2)
    s1 = braid(a, b)
    s2 = braid(b, a)
    assert compose(s2, s1) == identity(tensor_obj(a, b))


def test_assoc_is_coordinate_identity():
    a, b, c = Bool, cube_pcs(2), Bool
    al = assoc_tensor(a, b, c)
    assert al.matrix == eye(8)
    assert al.source.dim == al.target.dim == 8
    assert al.source != al.target  # different tensor shapes, same coordinates


def test_unitors():
    a = pcs_object([[1, 0], [0, 1], [1, 1]], 2)
    assert unitor_left(a).source == tensor_obj(one_obj(), a)
    assert compose(unitor_left(a), unitor_left_inv(a)) == identity(a)
    assert compose(unitor_right(a), unitor_right_inv(a)) == identity(a)


def test_product_universal_property():
    c = Bool
    f = mor(c, Bool, [[1, 0], [0, 1]])
    g = mor(c, cube_pcs(2), [[F(1, 2), 0], [0, 1]])
    p = pair_mor(f, g)
    assert compose(proj1(Bool, cube_pcs(2)), p) == f
    assert compose(proj2(Bool, cube_pcs(2)), p) == g


def test_coproduct_universal_property():
    f = mor(Bool, Bool, eye(2))
    g = mor(cube_pcs(2), Bool, [[1, 0], [0, 1]])
    cp = copair_mor(f, g)
    assert compose(cp, inj1(Bool, cube_pcs(2))) == f
    assert compose(cp, inj2(Bool, cube_pcs(2))) == g


def test_injections_are_isometric_projections_contractive():
    a, b = Bool, cube_pcs(2)
    assert morphism_norm(inj1(a, b)) == 1
    assert morphism_norm(proj1(a, b)) == 1
    assert morphism_norm(pair_mor(identity(a), identity(a))) == 1


def test_tensor_mor_norm_multiplicative_on_samples():
    f = mor(Bool, Bool, [[F(1, 2), F(1, 4)], [F(1, 2), F(1, 4)]])
    g = mor(cube_pcs(2), cube_pcs(2), [[F(1, 3), 0], [0, 1]])
    t = tensor_mor(f, g)
    assert morphism_norm(t) == morphism_norm(f) * morphism_norm(g)


def test_catalog_maps_are_canonical():
    # Built without mor's sorting: each must already be the canonical,
    # positive column store that mor makes from its dense matrix.
    a, b = Bool, cube_pcs(2)
    f = mor(a, b, [[F(1, 2), 0], [1, F(1, 3)]])
    g = mor(a, a, [[0, 1], [F(1, 4), 0]])
    maps = [
        tensor_mor(f, g), assoc_tensor(a, b, a), braid(a, b), unitor_left(b),
        unitor_left_inv(b), unitor_right(b), unitor_right_inv(b), proj1(a, b),
        proj2(a, b), pair_mor(f, g), inj1(a, b), inj2(a, b),
        copair_mor(g, mor(b, a, [[1, 0], [0, 1]])), eval_mor(a, b),
    ]
    for m in maps:
        assert mor(m.source, m.target, m.matrix) == m, m


def test_spectral_operands_rejected():
    qc = qcs_object(2)
    with pytest.raises(CapabilityError):
        tensor_obj(qc, Bool)
    with pytest.raises(CapabilityError):
        product_obj(qc, Bool)
    with pytest.raises(CapabilityError):
        mor(qc, qc, eye(4))


rat01 = st.integers(0, 4).flatmap(
    lambda p: st.integers(max(p, 1), 8).map(lambda q_: F(p, q_))
)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_curry_norm_preservation_random(data):
    a, b, c = Bool, Bool, Bool
    src = tensor_obj(a, b)
    rows = [
        [data.draw(rat01) for _ in range(src.dim)] for _ in range(c.dim)
    ]
    f = mor(src, c, rows)
    g = curry(f)
    assert uncurry(g) == f
    assert morphism_norm(g) == morphism_norm(f)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_compose_norm_submultiplicative(data):
    f = mor(Bool, Bool, [[data.draw(rat01) for _ in range(2)] for _ in range(2)])
    g = mor(Bool, Bool, [[data.draw(rat01) for _ in range(2)] for _ in range(2)])
    assert morphism_norm(compose(g, f)) <= morphism_norm(g) * morphism_norm(f)


# ---------------------------------------------------------------------------
# Generator lists that are canonical by construction, against the LP route


def _spanning(pts, d):
    return all(any(p[c] > 0 for p in pts) for c in range(d))


# Raw inputs with zero coordinates, duplicates and dominated points; the
# atoms themselves are canonicalized by from_p_gens.
spanning_atoms = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*([rat01] * d)), min_size=1, max_size=4)
    .filter(lambda pts: _spanning(pts, d))
    .map(lambda pts: from_p_gens(pts, d))
)


@settings(max_examples=30, deadline=None)
@given(spanning_atoms, spanning_atoms)
def test_connective_generators_equal_lp_reduction(a, b):
    pa, qa, pb, qb = a.p_ball_gens, a.q_ball_gens, b.p_ball_gens, b.q_ball_gens
    za, zb = zeros(a.dim), zeros(b.dim)
    t = tensor_obj(a, b)
    w = product_obj(a, b)
    s = coproduct_obj(a, b)
    h = hom_obj(a, b)
    c = cotensor_obj(a, b)
    assert t.p_ball_gens == reduce_generators(kron(pa, pb))
    assert w.p_ball_gens == reduce_generators(u + v for u in pa for v in pb)
    assert w.q_ball_gens == reduce_generators([f + zb for f in qa] + [za + g for g in qb])
    assert s.p_ball_gens == reduce_generators([u + zb for u in pa] + [za + v for v in pb])
    assert s.q_ball_gens == reduce_generators(f + g for f in qa for g in qb)
    assert h.q_ball_gens == reduce_generators(kron(pa, qb))
    assert c.q_ball_gens == reduce_generators(kron(qa, qb))
    for o in (t, w, s, h, c):
        if o.dim <= DD_MAX_DIM:
            assert validate_object(o).passed, o.label


# ---------------------------------------------------------------------------
# Integer-built lists and LP rows against their Fraction references


# Entries with mixed denominators, so the integer keys of a list run over
# a common denominator larger than any one entry's.
mixed = st.integers(0, 12).flatmap(lambda n: st.sampled_from([1, 2, 3, 5, 7, 12]).map(lambda d: F(n, d)))
mixed_atoms = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*([mixed] * d)), min_size=1, max_size=4)
    .filter(lambda pts: _spanning(pts, d))
    .map(lambda pts: from_p_gens(pts, d))
)
operands = st.one_of(
    mixed_atoms,
    mixed_atoms.map(dual_object),
    st.sampled_from([zero_obj(), one_obj(), top_obj(), bot_obj()]),
)


def _fraction_sort(points):
    """The Fraction reference for sort_generators: zero points dropped,
    duplicates merged, the rest in lexicographic order."""
    return tuple(sorted({p for p in points if any(p)}))


def _pad(gens, dim):
    return gens or (zeros(dim),)


@settings(max_examples=60, deadline=None)
@given(operands, operands)
def test_connective_lists_equal_the_fraction_reference(a, b):
    za, zb = zeros(a.dim), zeros(b.dim)
    t = tensor_obj(a, b)
    w = product_obj(a, b)
    assert t.p_ball_gens == _fraction_sort(kron(a.p_ball_gens, b.p_ball_gens))
    pairs = [u + v for u in _pad(a.p_ball_gens, a.dim) for v in _pad(b.p_ball_gens, b.dim)]
    assert w.p_ball_gens == _fraction_sort(pairs)
    embedded = [f + zb for f in a.q_ball_gens] + [za + g for g in b.q_ball_gens]
    assert w.q_ball_gens == _fraction_sort(embedded)
    for side in (t.p_ball_gens, w.p_ball_gens, w.q_ball_gens):
        for x in (x for g in side for x in g):
            assert type(x) is Fraction
            assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
    again_t, again_w = tensor_obj(a, b), product_obj(a, b)
    assert again_t == t and hash(again_t) == hash(t)
    assert again_w == w and hash(again_w) == hash(w)


signed = st.integers(-3, 12).flatmap(lambda n: st.sampled_from([1, 2, 5, 7]).map(lambda d: F(n, d)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_side_norm_is_the_fraction_row_lp(data):
    a, b = data.draw(operands), data.draw(operands)
    s = vec(data.draw(st.lists(signed, min_size=a.dim * b.dim, max_size=a.dim * b.dim)))
    cons = [lp.constraint(uv, "<=", 1) for uv in kron(a.p_ball_gens, b.p_ball_gens)]
    reference = lp.lp_maximize(lp.problem(list(s), cons))
    assert reference.status is lp.LpStatus.OPTIMAL
    assert cones.tensor_side_norm(tensor_obj(a, b).q_implicit, s) == reference.value


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_side_norm_rows_reach_the_lp_as_ints(data):
    a, b = data.draw(operands), data.draw(operands)
    s = vec(data.draw(st.lists(signed, min_size=a.dim * b.dim, max_size=a.dim * b.dim)))
    seen = []
    real = cones.lp_maximize

    def spy(prob):
        seen.append(prob)
        return real(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "lp_maximize", spy)
        cones.tensor_side_norm(tensor_obj(a, b).q_implicit, s)
    (prob,) = seen
    entries = [x for c in prob.constraints for x in (*c.coeffs, c.rhs)]
    assert all(type(x) is int for x in entries)


# ---------------------------------------------------------------------------
# LP counts: the shortcut paths solve none, user input still goes through
# the per-point reduction


def test_connectives_and_polars_solve_no_lp(lp_solves):
    # (2/3, 2/3) is under neither other point, only under their hull
    raw = [[1, F(1, 2)], [F(1, 3), 1], [F(2, 3), F(2, 3)]]
    a = from_p_gens(raw, 2)
    b = from_p_gens([[1, 0, F(1, 2)], [0, 1, 1]], 3)
    built = lp_solves[0]
    assert built == 0  # raw input: reduced by the polar's double description
    tensor_obj(a, b)
    tensor_obj(dual_object(a), b)
    product_obj(a, b)
    coproduct_obj(a, dual_object(b))
    hom_obj(a, b)
    cotensor_obj(b, a)
    polar_of_points([vec([1, 0, 2]), vec([1, 0, 2]), vec([0, 1, 1]), vec([1, 1, 0])], 3)
    assert lp_solves[0] == built
    # The tensor's implicit dual side is materialized by a polar, not LPs.
    product_obj(cones.materialize_q(tensor_obj(a, a)), one_obj())
    assert lp_solves[0] == built
    reduce_generators([vec([1, 0]), vec([0, 1]), vec([F(1, 2), F(1, 2)])])
    assert lp_solves[0] == built + 3
    # The LP route still reduces the same raw input: one LP per point.
    assert reduce_generators(vec(p) for p in raw) == a.p_ball_gens
    assert lp_solves[0] == built + 6


def test_morphism_identity_ignores_labels():
    f = mor(Bool, cube_pcs(2), [[1, 0], [F(1, 2), 1]])
    g = replace(f, source=replace(f.source, label="x"), target=replace(f.target, label="y"))
    assert f == g and hash(f) == hash(g)
    assert f != replace(f, cols=mor(Bool, cube_pcs(2), [[1, 0], [0, 1]]).cols)
    assert f != replace(f, target=Bool)


def test_morphism_norm_materializes_a_lazy_source():
    h = hom_obj(Bool, cube_pcs(2))
    assert h.p_ball_gens is None
    assert morphism_norm(identity(h)) == 1
    assert morphism_norm(mor(h, h, [[2 * x for x in row] for row in eye(h.dim)])) == 2
