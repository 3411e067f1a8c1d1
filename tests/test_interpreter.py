"""Environments and formula interpretation."""

from fractions import Fraction as F

import pytest

from conelogic.backends import cube_pcs, simplex_pcs
from conelogic.cones import Backend, dual_object, norm_primal, one_obj, validate_object
from conelogic.errors import CapabilityError, EnvError
from conelogic.exponentials import graded_grades, whynot_obj
from conelogic.formulas import dual_formula, normalize_dual, parse_formula
from conelogic.interpreter import env_from_json, interpret
from conelogic.mall import hom_obj, product_obj


def std_env():
    return env_from_json(
        {
            "schema": 1,
            "atoms": {
                "a": {"kind": "pcs", "dim": 2, "ball_gens": [["1", "0"], ["0", "1"]]},
                "b": {
                    "kind": "polyhedral",
                    "p_gens": [["1", "0"], ["0", "1"]],
                    "q_gens": [["1", "1"]],
                },
                "c": {"kind": "polyhedral", "p_gens": [["1", "1"]]},
                "q": {"kind": "qcs", "n": 2},
            },
        }
    )


def run(s, trunc=2, env=None):
    return interpret(parse_formula(s), env or std_env(), trunc)


# -- environments --------------------------------------------------------------


def test_env_kinds_and_labels():
    env = std_env()
    assert env["a"].label == "a" and env["a"].backend is Backend.POLYHEDRAL
    assert env["a"] == simplex_pcs(2)
    assert env["b"] == simplex_pcs(2)  # explicit q accepted and checked
    assert env["c"].q_ball_gens is not None  # polar computed when omitted
    assert env["q"].backend is Backend.SPECTRAL and env["q"].dim == 4


def test_env_builds_only_the_named_atoms():
    doc = {
        "schema": 1,
        "atoms": {
            "z": {"kind": "polyhedral", "p_gens": [["1", "0"]]},  # does not span
            "a": {"kind": "pcs", "dim": 2, "ball_gens": [["1", "0"], ["0", "1"]]},
            "y": {"kind": "wat"},
            "q": {"kind": "qcs", "n": 2},
        },
    }
    assert env_from_json(doc, {"a"}) == {"a": simplex_pcs(2)}
    env = env_from_json(doc, ["q", "a", "nope"])  # document order; unknown names skipped
    assert list(env) == ["a", "q"] and env["q"].label == "q"
    assert env_from_json(doc, ()) == {}
    with pytest.raises(EnvError, match="'z'"):
        env_from_json(doc, {"y", "z"})
    with pytest.raises(EnvError, match="'z'"):  # names=None builds every atom
        env_from_json(doc)
    # the document is still checked whole
    with pytest.raises(EnvError, match="schema"):
        env_from_json({**doc, "schema": 9}, {"a"})
    with pytest.raises(EnvError, match="atoms"):
        env_from_json({"schema": 1}, {"a"})
    with pytest.raises(EnvError, match="unbound atom 'nope'"):
        interpret(parse_formula("a * nope"), env_from_json(doc, {"a", "nope"}))


def test_env_rejects_wrong_polar():
    with pytest.raises(EnvError, match="mutual-polarity"):
        env_from_json(
            {
                "atoms": {
                    "x": {
                        "kind": "polyhedral",
                        "p_gens": [["1", "0"], ["0", "1"]],
                        "q_gens": [["1", "7"]],
                    }
                }
            }
        )


def test_env_errors():
    with pytest.raises(EnvError, match="atoms"):
        env_from_json({"schema": 1})
    with pytest.raises(EnvError, match="unknown kind"):
        env_from_json({"atoms": {"x": {"kind": "wat"}}})
    with pytest.raises(EnvError, match="missing field"):
        env_from_json({"atoms": {"x": {"kind": "pcs", "dim": 2}}})
    with pytest.raises(EnvError, match="schema"):
        env_from_json({"schema": 9, "atoms": {}})
    with pytest.raises(EnvError, match="floats"):
        env_from_json({"atoms": {"x": {"kind": "pcs", "dim": 1, "ball_gens": [[0.5]]}}})
    with pytest.raises(EnvError, match="a JSON array") as info:
        env_from_json({"atoms": {"x": {"kind": "pcs", "dim": 1, "ball_gens": [[["1"]]]}}})
    assert "floats" not in str(info.value)
    with pytest.raises(EnvError, match="q_gens"):
        env_from_json(
            {"atoms": {"x": {"kind": "polyhedral", "p_gens": [[1] * 9]}}}
        )


# -- dispatch -------------------------------------------------------------------


def test_with_of_simplices_is_the_worked_example():
    obj = run("a & b")
    assert obj.dim == 4
    # product norm is the max of the halves
    assert norm_primal(obj, (F(1), F(0), F(0), F(1))) == 1
    assert obj == product_obj(simplex_pcs(2), simplex_pcs(2))


def test_constants():
    assert run("1") == one_obj()
    assert run("bot").dim == 1
    assert run("0").dim == 0
    assert run("top").dim == 0


def test_lollipop_is_hom_for_polyhedral():
    env = std_env()
    assert run("a -o b") == hom_obj(env["a"], env["b"])


def test_bang_of_with_grade_dimensions():
    obj = run("!(a & b)", trunc=2)
    # grades over a 4-dim base: multiset counts 1, 4, 10
    assert obj.backend is Backend.GRADED
    grades = graded_grades(obj)
    assert [grades.count(n) for n in (0, 1, 2)] == [1, 4, 10]
    assert obj.dim == 15


def test_trunc_controls_graded_size():
    assert run("!a", trunc=2).dim == 6
    assert run("!a", trunc=3).dim == 10


def test_tensor_with_lazy_dual_side_materializes_for_products():
    obj = run("(a * b) & a")
    assert obj.dim == 6
    # and the tensor's q side was materialized, not refused
    assert obj.q_ball_gens is not None


def test_oversize_product_needs_the_polar():
    env = env_from_json(
        {
            "atoms": {
                "w": {"kind": "pcs", "dim": 3, "ball_gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            }
        }
    )
    with pytest.raises(CapabilityError):
        interpret(parse_formula("(w * w) & w"), env, 2)


def test_unbound_atom():
    with pytest.raises(EnvError, match="unbound atom 'zzz'"):
        run("zzz")


def test_spectral_only_under_duality():
    assert run("q^").backend is Backend.SPECTRAL
    for s in ["q * a", "q | a", "q & q", "q + q", "a -o q", "!q", "?q"]:
        with pytest.raises(CapabilityError, match="spectral"):
            run(s)


def test_polarity_mixed_exponential_connectives_are_refused():
    # par wants series-side factors, tensor distribution-side ones
    with pytest.raises(CapabilityError):
        run("!a | b")
    with pytest.raises(CapabilityError):
        run("?a * b")


# -- the duality invariant --------------------------------------------------


BATTERY = [
    "a",
    "a^",
    "b",
    "q",
    "q^",
    "a * b",
    "a | b",
    "a & b",
    "a + b",
    "a -o b",
    "a -o b -o c",
    "(a & b)^",
    "(a * b) -o c",
    "1",
    "bot",
    "0",
    "top",
    "1 * a",
    "a + 0",
    "!a",
    "?b",
    "!a * !b",
    "?a | ?b",
    "!(a & b)",
    "!a * b -o c",
    "!a -o ?b",
    "(!a)^",
    "!a & !b",
    "?a + ?b",
]


@pytest.mark.parametrize("text", BATTERY)
def test_interpretation_commutes_with_dual_normalization(text):
    env = std_env()
    ast = parse_formula(text)
    obj = interpret(ast, env, 2)
    # pushing duals to the leaves changes nothing
    assert interpret(normalize_dual(ast), env, 2) == obj
    # and the normalized dual interprets to the exact dual object
    assert interpret(normalize_dual(dual_formula(ast)), env, 2) == dual_object(obj)


def test_whynot_of_cube_equals_dual_route():
    env = std_env()
    lhs = interpret(parse_formula("?(a^)"), env, 2)
    assert lhs == whynot_obj(cube_pcs(2), 2)
    assert dual_object(lhs) == interpret(parse_formula("!a"), env, 2)


@pytest.mark.parametrize(
    "text, left, right, combine",
    [
        ("(a -o b) & c", "a -o b", "c", max),
        ("c & (a -o b)", "c", "a -o b", max),
        ("(a | b) + c", "a | b", "c", lambda m, n: m + n),
    ],
)
def test_additives_over_hom_and_par(text, left, right, combine):
    obj = run(text)
    lo, ro = run(left), run(right)
    assert obj.dim == lo.dim + ro.dim
    assert validate_object(obj).passed
    x = tuple(F(k + 1, 9) for k in range(lo.dim))
    y = tuple(F(2 * k + 1, 9) for k in range(ro.dim))
    # the with norm is the max of the component norms, the plus norm the sum
    assert norm_primal(obj, x + y) == combine(norm_primal(lo, x), norm_primal(ro, y))
