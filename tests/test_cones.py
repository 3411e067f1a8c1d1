"""Cone objects: norms by two routes, duality, membership, validation."""

import importlib
import inspect
import pkgutil
import typing
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conelogic
from conelogic.backends import cube_pcs, pcs_object, simplex_pcs
from conelogic.cones import (
    dual_object,
    from_both_gens,
    from_p_gens,
    gauge_norm,
    in_ball,
    in_cone,
    check_membership,
    materialize_p,
    materialize_q,
    norm_dual,
    norm_primal,
    one_obj,
    pairing,
    validate_object,
    zero_obj,
    ConeObject,
)
from conelogic.errors import DimensionError, MembershipError
from conelogic.mall import Morphism
from conelogic.rationals import unit, vec

F = Fraction


def test_simplex_norm_is_sum():
    b = simplex_pcs(2)
    assert norm_primal(b, vec([F(1, 2), F(1, 3)])) == F(5, 6)
    assert norm_dual(b, vec([1, 2])) == 2  # dual norm is the max


def test_cube_norm_is_max():
    c = cube_pcs(3)
    assert norm_primal(c, vec([F(1, 2), F(2, 3), F(1, 5)])) == F(2, 3)
    assert norm_dual(c, vec([F(1, 2), F(2, 3), F(1, 5)])) == F(1, 2) + F(2, 3) + F(1, 5)


def test_cube_is_dual_of_simplex():
    assert dual_object(simplex_pcs(3)) == cube_pcs(3)
    assert dual_object(cube_pcs(3)) == simplex_pcs(3)


def test_diagonal_gen_gives_simplex_dual():
    a = from_p_gens([vec([1, 1])], 2)
    assert a.q_ball_gens == (vec([0, 1]), vec([1, 0]))
    assert a == cube_pcs(2)


def test_dual_is_involution():
    a = pcs_object([[1, 0], [F(1, 2), F(1, 2)], [0, 1]], 2)
    assert dual_object(dual_object(a)) == a
    assert dual_object(dual_object(a)).label == a.label


def test_pairing_holders_inequality_on_samples():
    a = simplex_pcs(2)
    x = vec([F(1, 3), F(1, 6)])
    f = vec([F(1, 2), 1])
    assert pairing(a, f, x) <= norm_dual(a, f) * norm_primal(a, x)


def test_membership_witness_negative_coordinate():
    a = simplex_pcs(3)
    with pytest.raises(MembershipError) as e:
        check_membership(a, vec([1, -1, 0]))
    assert e.value.witness == unit(3, 1)


def test_membership_positive():
    a = simplex_pcs(2)
    assert in_cone(a, vec([2, 3]))
    assert in_ball(a, vec([F(1, 2), F(1, 2)]))
    assert not in_ball(a, vec([F(1, 2), F(2, 3)]))


def test_gauge_equals_dual_max():
    objs = [
        simplex_pcs(2),
        cube_pcs(3),
        pcs_object([[1, 0], [F(1, 2), F(3, 4)], [0, 1]], 2),
        pcs_object([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3),
    ]
    samples = {
        2: [vec([F(1, 3), F(2, 5)]), vec([0, 1]), vec([F(7, 2), F(1, 9)])],
        3: [vec([F(1, 3), F(2, 5), F(1, 7)]), vec([0, 0, 1])],
    }
    for a in objs:
        for x in samples[a.dim]:
            assert gauge_norm(a, x) == norm_primal(a, x)


def test_gauge_rejects_outside_cone():
    a = simplex_pcs(2)
    with pytest.raises(MembershipError):
        gauge_norm(a, vec([-1, 0]))


def test_zero_and_one_objects():
    z = zero_obj()
    assert z.dim == 0 and norm_primal(z, ()) == 0
    o = one_obj()
    assert norm_primal(o, vec([F(3, 4)])) == F(3, 4)
    assert dual_object(z) == z  # 0 and top coincide in this finite model
    assert dual_object(o) == o  # 1 and bot coincide


def test_validate_good_objects():
    for a in (simplex_pcs(2), cube_pcs(3), pcs_object([[1, 1], [2, 0]], 2)):
        rep = validate_object(a)
        assert rep.passed, [c for c in rep.checks if not c.passed]


def test_validate_flags_noncanonical_gens():
    # (1/2, 0) is dominated by (1, 0): not a canonical generator list.
    bad = ConeObject(
        dim=2,
        p_ball_gens=(vec([F(1, 2), F(0)]), vec([1, 0]), vec([0, 1])),
        q_ball_gens=(vec([1, 1]),),
    )
    rep = validate_object(bad)
    assert not rep.passed
    assert any(c.name == "p-canonical" and not c.passed for c in rep.checks)


def test_validate_flags_wrong_polar():
    bad = ConeObject(
        dim=2,
        p_ball_gens=(vec([0, 1]), vec([1, 0])),
        q_ball_gens=(vec([F(1, 2), F(1, 2)]),),
    )
    rep = validate_object(bad)
    assert not rep.passed


def test_validate_reports_negative_generators():
    # Both sides explicit and spanning: the audit reports the negative entry
    # and skips the canonical and polarity checks, which need the orthant.
    bad = ConeObject(
        dim=2,
        p_ball_gens=(vec([1, 1]), vec([F(1, 2), -1])),
        q_ball_gens=(vec([1, 1]),),
    )
    rep = validate_object(bad)
    names = [c.name for c in rep.checks]
    assert "p-canonical" not in names and "mutual-polarity" not in names
    assert [c.name for c in rep.checks if not c.passed] == [
        "p-orthant",
        "unit-norm-generators",
    ]


@pytest.mark.parametrize(
    "p, q",
    [
        ([[1, 0], [0, 1]], [[1]]),
        ([[1, 0], [0, 1]], [[1, 1, 1]]),
        ([[1, 0], [1]], [[1, 1]]),
    ],
)
def test_from_both_gens_checks_generator_lengths(p, q):
    # a short generator once made norm_primal((1, 1)) silently 1
    with pytest.raises(DimensionError) as info:
        from_both_gens(p, q, 2)
    assert (info.value.expected, info.value.where) == (2, "generator")
    assert from_both_gens([[1, 0], [0, 1]], [[1, 1]], 2) == simplex_pcs(2)


def test_materialize_round_trip():
    a = pcs_object([[1, 0], [0, 1], [F(2, 3), F(2, 3)]], 2)
    lazy = ConeObject(dim=2, p_ball_gens=a.p_ball_gens, q_ball_gens=None)
    m = materialize_q(lazy)
    assert m.q_ball_gens == a.q_ball_gens
    lazy_p = ConeObject(dim=2, p_ball_gens=None, q_ball_gens=a.q_ball_gens)
    assert materialize_p(lazy_p).p_ball_gens == a.p_ball_gens


coord = st.integers(0, 4).flatmap(
    lambda p: st.integers(1, 3).map(lambda q_: F(p, q_))
)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.data())
def test_norm_duality_random(dim, data):
    gens = [
        tuple(data.draw(coord) for _ in range(dim))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    if not all(any(g[c] > 0 for g in gens) for c in range(dim)):
        for c in range(dim):
            if all(g[c] == 0 for g in gens):
                gens.append(unit(dim, c))
    a = from_p_gens(gens, dim)
    x = tuple(data.draw(coord) for _ in range(dim))
    assert gauge_norm(a, x) == norm_primal(a, x)


def test_identity_ignores_only_the_label():
    a = pcs_object([[1, 0], [F(1, 2), 1]], 2, label="a")
    b = replace(a, label="x")
    assert b.label == "x"
    assert a == b and hash(a) == hash(b)
    # every other field still counts
    assert a != replace(a, weights=(F(1), F(2)))
    assert a != replace(a, q_ball_gens=None)


def _return_types(annotation):
    yield annotation
    for arg in typing.get_args(annotation):
        yield from _return_types(arg)


def test_no_cache_returns_objects_or_morphisms():
    # Cache keys compare without labels, so a cached object or morphism
    # would come back under the label of whichever equal input came first.
    cached = {
        fn
        for info in pkgutil.iter_modules(conelogic.__path__)
        for fn in vars(importlib.import_module(f"conelogic.{info.name}")).values()
        if hasattr(fn, "cache_info") and fn.__module__.startswith("conelogic")
    }
    assert cached
    for fn in cached:
        ret = inspect.signature(fn.__wrapped__, eval_str=True).return_annotation
        assert ret is not inspect.Signature.empty, fn.__qualname__
        assert not {ConeObject, Morphism} & set(_return_types(ret)), fn.__qualname__


# Entries with unlike denominators and zeros; elements may be negative, so
# the clip at 0 is exercised.
gen_entry = st.integers(0, 6).flatmap(lambda n: st.sampled_from([1, 2, 3, 5, 12]).map(lambda d: F(n, d)))
elt_entry = st.integers(-3, 6).flatmap(lambda n: st.sampled_from([1, 2, 7]).map(lambda d: F(n, d)))


@st.composite
def gen_max_cases(draw):
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[gen_entry] * d), min_size=1, max_size=5))
    weights = draw(st.none() | st.tuples(*[gen_entry.filter(bool)] * d))
    x = draw(st.just((F(0),) * d) | st.tuples(*[elt_entry] * d))
    return d, tuple(gens), weights, x


@settings(max_examples=200, deadline=None)
@given(gen_max_cases())
def test_norm_primal_is_the_fraction_generator_max(case):
    d, gens, weights, x = case
    a = ConeObject(dim=d, p_ball_gens=None, q_ball_gens=gens, weights=weights)
    w = weights or (F(1),) * d
    ref = max([F(0)] + [sum((wc * gc * xc for wc, gc, xc in zip(w, g, x)), F(0)) for g in gens])
    got = norm_primal(a, x)
    assert got == ref and type(got) is F
    assert norm_primal(a, x) == ref  # again, from the cached integer rows
