"""Polar and canonicalization against a brute-force vertex oracle.

The oracle enumerates vertices of { a >= 0 : <a,x> <= 1 } the slow way:
solve every d-subset of constraint rows exactly and keep the solutions that
satisfy everything. Completely independent of the double description code.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic import lp
from conelogic.cones import from_p_gens, validate_object
from conelogic.polyhedra import (
    _dd_rays,
    bipolar,
    dominates,
    polar_of_points,
    polar_vertices,
    reduce_generators,
    sort_generators,
    sort_keys,
)
from conelogic.rationals import int_keys, vec

F = Fraction


def solve_exact(rows, rhs):
    """Gaussian elimination over Fraction; None if singular."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def oracle_polar_vertices(points, dim):
    """All vertices of the polar polytope, by constraint-subset enumeration."""
    rows = []
    rhs = []
    for c in range(dim):  # a_c >= 0 rows, written as equalities a_c = 0
        e = [F(0)] * dim
        e[c] = F(1)
        rows.append((tuple(e), F(0)))
    for p in points:
        rows.append((tuple(p), F(1)))
    verts = set()
    for subset in itertools.combinations(rows, dim):
        sol = solve_exact([r for r, _ in subset], [b for _, b in subset])
        if sol is None:
            continue
        if all(x >= 0 for x in sol) and all(
            sum(a * b for a, b in zip(p, sol)) <= 1 for p in points
        ):
            verts.add(sol)
    return verts


def dd_vertices(pts, dim):
    """Every double-description vertex of polar(pts), with the indices of
    the points tight at it."""
    den = math.lcm(*(x.denominator for p in pts for x in p))
    keys = [tuple(int(x * den) for x in p) for p in pts]
    return [(tuple(F(x, r[-1]) for x in r[:-1]), set(tight)) for r, tight in _dd_rays(den, keys, dim)]


def test_polar_of_square_gens():
    got = polar_vertices([vec([1, 0]), vec([0, 1])], 2)
    assert got == (vec([1, 1]),)


def test_polar_of_diagonal_point():
    got = polar_vertices([vec([1, 1])], 2)
    assert got == (vec([0, 1]), vec([1, 0]))


def test_polar_round_trip_pair():
    a = (vec([0, 1]), vec([1, 0]))  # canonical (lex) order
    b = (vec([1, 1]),)
    assert polar_vertices(a, 2) == b
    assert polar_vertices(b, 2) == a


def test_unbounded_flag_lists_unspanned_coords():
    res = polar_of_points([vec([1, 0, 0])], 3)
    assert not res.bounded
    assert res.unbounded_coords == (1, 2)
    with pytest.raises(ValueError):
        polar_vertices([vec([1, 0, 0])], 3)


def test_dimension_cap():
    from conelogic.errors import CapabilityError

    pts = [tuple(F(1) for _ in range(9))]
    with pytest.raises(CapabilityError):
        polar_of_points(pts, 9)


def test_reduce_dedupes_and_drops_dominated():
    pts = [
        vec([1, 0]),
        vec([1, 0]),
        vec([F(1, 2), 0]),
        vec([0, 1]),
        vec([F(1, 2), F(1, 2)]),  # midpoint of the first and last: dominated
        vec([0, 0]),
    ]
    assert reduce_generators(pts) == (vec([0, 1]), vec([1, 0]))


def test_reduce_keeps_extreme_diagonal():
    pts = [vec([1, 1]), vec([1, 0]), vec([0, 1])]
    assert reduce_generators(pts) == (vec([1, 1]),)


def test_dominates():
    gens = [vec([1, 0]), vec([0, 1])]
    assert dominates(gens, vec([F(1, 2), F(1, 2)]))
    assert not dominates(gens, vec([F(3, 4), F(3, 4)]))
    assert dominates(gens, vec([0, 0]))



@st.composite
def generator_inputs(draw):
    """Points with exact duplicates, chains (scaled-down copies), the zero
    point and zero coordinates."""
    dim = draw(st.integers(1, 3))
    value = st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(2)])
    pts = draw(st.lists(st.tuples(*([value] * dim)), max_size=6))
    for p in list(pts):
        how = draw(st.sampled_from(["none", "duplicate", "scaled", "zeroed", "zero"]))
        if how == "duplicate":
            pts.append(p)
        elif how == "scaled":
            f = draw(st.sampled_from([F(1, 2), F(2, 3)]))
            pts.append(tuple(f * x for x in p))
        elif how == "zeroed":
            c = draw(st.integers(0, dim - 1))
            pts.append(p[:c] + (F(0),) + p[c + 1 :])
        elif how == "zero":
            pts.append((F(0),) * dim)
    return [vec(p) for p in draw(st.permutations(pts))]


@settings(max_examples=150, deadline=None)
@given(generator_inputs())
def test_reduce_equals_the_lp_only_definition(pts):
    canon = sort_generators(pts)
    expected = tuple(
        p for p in canon if not dominates([g for g in canon if g != p], p)
    )
    assert reduce_generators(pts) == expected


@pytest.fixture
def lp_solves(monkeypatch):
    """Counts the exact LPs (lp_feasible reaches lp_maximize in the lp module)."""
    count = [0]
    real = lp.lp_maximize

    def counted(prob):
        count[0] += 1
        return real(prob)

    monkeypatch.setattr(lp, "lp_maximize", counted)
    return count


@pytest.mark.parametrize(
    "pts, kept, solves",
    [
        # two incomparable points: both canonical, no LP
        ([[1, F(1, 2)], [F(1, 3), 1]], [[F(1, 3), 1], [1, F(1, 2)]], 0),
        # a chain: everything under its top, no LP
        ([[F(1, 4), F(1, 4)], [1, 1], [F(1, 2), F(1, 2)], [1, 1]], [[1, 1]], 0),
        # three pairwise-incomparable points: one LP each
        ([[1, 0], [0, 1], [F(1, 2), F(1, 2)]], [[0, 1], [1, 0]], 3),
    ],
)
def test_reduce_solves_lps_only_for_three_survivors(lp_solves, pts, kept, solves):
    assert reduce_generators(vec(p) for p in pts) == tuple(vec(p) for p in kept)
    assert lp_solves[0] == solves

coord = st.integers(0, 5).flatmap(
    lambda p: st.integers(1, 3).map(lambda q: F(p, q))
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: st.lists(st.tuples(*([coord] * d)), max_size=6)))
def test_sort_keys_is_the_fraction_sort(raw):
    pts = [vec(p) for p in raw + raw[:2]]  # an exact duplicate or two
    out = sort_keys(*int_keys(pts))
    assert out == sort_generators(pts) == tuple(sorted({p for p in pts if any(p)}))
    assert all(type(x) is F for p in out for x in p)


def spanning_point_sets(dim):
    return st.lists(
        st.tuples(*([coord] * dim)), min_size=1, max_size=5
    ).filter(
        lambda pts: all(any(p[c] > 0 for p in pts) for c in range(dim))
    )


def degenerate_point_sets(dim):
    """Spanning sets with ties (few distinct values), zero coordinates, an
    exact duplicate and the zero point."""
    tied = st.sampled_from([F(0), F(1, 2), F(1), F(2)])
    return (
        st.lists(st.tuples(*([tied] * dim)), min_size=1, max_size=5)
        .filter(lambda pts: all(any(p[c] > 0 for p in pts) for c in range(dim)))
        .flatmap(lambda pts: st.sampled_from(pts).map(lambda p: pts + [p, (F(0),) * dim]))
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            st.just(d), st.one_of(spanning_point_sets(d), degenerate_point_sets(d))
        )
    )
)
def test_polar_matches_bruteforce_oracle(dim_and_pts):
    dim, pts = dim_and_pts
    pts = [vec(p) for p in pts]
    got = polar_vertices(pts, dim)
    oracle = oracle_polar_vertices(pts, dim)
    # The DD route canonicalizes (drops 0 and downward-dominated vertices);
    # apply the same normalization to the oracle set before comparing.
    assert set(got) == set(reduce_generators(oracle))
    # The tight-support test keeps exactly what the LP reduction of every
    # double-description vertex keeps (duplicates left in the cuts).
    nonzero = [p for p in pts if any(p)]
    assert got == reduce_generators(v for v, _ in dd_vertices(nonzero, dim))


@st.composite
def raw_point_sets(draw):
    """Points with mixed denominators, exact duplicates, zero points, and
    sometimes an unspanned coordinate."""
    dim = draw(st.integers(1, 4))
    entry = st.integers(0, 4).flatmap(
        lambda n: st.sampled_from([1, 2, 3, 4, 6, 7]).map(lambda d: F(n, d))
    )
    pts = draw(st.lists(st.tuples(*[entry] * dim), max_size=5))
    if pts and draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    if draw(st.booleans()):
        pts.append((F(0),) * dim)
    if draw(st.booleans()):
        c = draw(st.integers(0, dim - 1))
        pts = [p[:c] + (F(0),) + p[c + 1:] for p in pts]
    return dim, [vec(p) for p in draw(st.permutations(pts))]


@settings(max_examples=150, deadline=None)
@given(raw_point_sets())
def test_polar_of_raw_points_matches_the_oracle(dim_and_pts):
    dim, pts = dim_and_pts
    res = polar_of_points(pts, dim)
    unspanned = tuple(c for c in range(dim) if all(p[c] == 0 for p in pts))
    if unspanned:
        assert not res.bounded and res.unbounded_coords == unspanned and res.kept is None
        return
    assert res.vertices == reduce_generators(oracle_polar_vertices(pts, dim))
    assert all(type(x) is F for v in res.vertices for x in v)
    assert res.kept == reduce_generators(pts)


@st.composite
def redundant_point_sets(draw):
    """Spanning and degenerate sets plus scaled-down copies and midpoints of
    their points, which are never canonical."""
    dim = draw(st.integers(2, 4))
    pts = draw(st.one_of(spanning_point_sets(dim), degenerate_point_sets(dim)))
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        if draw(st.booleans()):
            f = draw(st.sampled_from([F(1, 2), F(2, 3)]))
            extra.append(tuple(f * x for x in p))
        else:
            extra.append(tuple((x + y) / 2 for x, y in zip(p, q)))
    return dim, [vec(p) for p in draw(st.permutations(pts + extra))]


@settings(max_examples=120, deadline=None)
@given(redundant_point_sets())
def test_polar_keeps_what_the_lp_reduction_keeps(dim_and_pts):
    dim, pts = dim_and_pts
    res = polar_of_points(pts, dim)
    assert res.kept == reduce_generators(pts)
    assert res.vertices == polar_vertices(reduce_generators(pts), dim)


@settings(max_examples=80, deadline=None)
@given(redundant_point_sets())
def test_dd_vertices_are_distinct_with_the_points_at_one(dim_and_pts):
    dim, pts = dim_and_pts
    pts = list(sort_generators(pts))
    verts = dd_vertices(pts, dim)
    assert len({v for v, _ in verts}) == len(verts)
    for v, tight in verts:
        assert tight == {
            i for i, p in enumerate(pts) if sum((a * b for a, b in zip(p, v)), F(0)) == 1
        }


@settings(max_examples=60, deadline=None)
@given(redundant_point_sets())
def test_objects_from_p_gens_validate(dim_and_pts):
    dim, pts = dim_and_pts
    a = from_p_gens(pts, dim)
    rep = validate_object(a)
    assert rep.passed, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize(
    "pts",
    [
        [[1, 1], [F(1, 2), -1]],  # under (1, 1): the pairwise filter would drop it
        [[F(1, 2), -1], [1, -2]],  # incomparable, yet under 1/2 (1, -2)
        [[2, -1], [0, 1]],
    ],
)
def test_negative_entries_are_refused(pts):
    pts = [vec(p) for p in pts]
    with pytest.raises(ValueError, match="orthant"):
        reduce_generators(pts)
    with pytest.raises(ValueError, match="orthant"):
        polar_of_points(pts, 2)
    with pytest.raises(ValueError, match="orthant"):
        from_p_gens(pts, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), spanning_point_sets(d))))
def test_bipolar_idempotent(dim_and_pts):
    dim, pts = dim_and_pts
    pts = [vec(p) for p in pts]
    closure = bipolar(pts, dim)
    assert bipolar(closure, dim) == closure
    # The closure contains the input points (downward hull grows, never shrinks).
    assert all(dominates(closure, p) for p in pts)
