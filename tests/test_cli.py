"""CLI commands, exit codes, and golden-file byte stability."""

import ast
import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelogic import cli
from corpus import GOLDEN

ENV = os.path.join(GOLDEN, "env.json")
VECTOR = os.path.join(GOLDEN, "vector.json")


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_parse_golden(capsys):
    code, out = run(capsys, "parse", "--formula", "!a * b -o c")
    assert code == 0
    assert out == golden("parse.json")
    _, again = run(capsys, "parse", "--formula", "!a * b -o c")
    assert again == out


def test_interpret_golden(capsys):
    args = ("interpret", "--env", ENV, "--formula", "!(a & b)", "--trunc", "2")
    code, out = run(capsys, *args)
    assert code == 0
    assert out == golden("interpret.json")
    _, again = run(capsys, *args)
    assert again == out


def test_norm_golden(capsys):
    args = ("norm", "--env", ENV, "--object", "?a", "--vector", VECTOR, "--trunc", "2")
    code, out = run(capsys, *args)
    assert code == 0
    assert out == golden("norm.json")
    report = json.loads(out)
    assert report["result"] == {"kind": "exact", "value": "2"}


def test_check_golden(capsys):
    args = ("check", "--suite", "all", "--seed", "42", "--trials", "3")
    code, out = run(capsys, *args)
    assert code == 0
    assert out == golden("check.json")
    _, again = run(capsys, *args)
    assert again == out
    report = json.loads(out)
    assert report["all_passed"] is True
    assert set(report["suites"]) == {"mall", "exp", "pcs", "qcs"}


def test_single_suite_matches_the_all_run(capsys):
    _, full = run(capsys, "check", "--suite", "all", "--seed", "7", "--trials", "2")
    _, only = run(capsys, "check", "--suite", "pcs", "--seed", "7", "--trials", "2")
    assert json.loads(only)["suites"]["pcs"] == json.loads(full)["suites"]["pcs"]


def test_interpret_text_output(capsys):
    # Every report is JSON: the old text rendering is gone, and asking for it
    # is a usage error.
    code, out = run(capsys, "interpret", "--env", ENV, "--formula", "a & b", "--out", "text")
    assert code == 2
    report = json.loads(out)
    assert report["command"] is None
    assert report["error"]["type"] == "ConelogicError"
    assert report["error"]["message"] == "conelogic: unrecognized arguments: --out text"


def test_interpret_states_the_order_of_graded_coordinates(capsys):
    def layout(formula):
        code, out = run(capsys, "interpret", "--env", ENV, "--formula", formula, "--trunc", "2")
        assert code == 0
        obj = json.loads(out)["object"]
        return obj["layout"], [ast.literal_eval(c) for c in obj["coords"]]

    text, bang = layout("!a")
    assert text.startswith("degree-major")
    assert bang == sorted(bang, key=lambda m: (len(m), m))
    text, pairs = layout("!a * !a")
    assert text.startswith("left-major pairs")
    assert pairs == [(x, y) for x in bang for y in bang if len(x) + len(y) <= 2]
    assert pairs.index(((), (1, 1))) < pairs.index(((0,), ()))  # not degree-major
    text, summands = layout("!a & !a")
    assert text.startswith("summands in turn")
    assert summands == [("L", m) for m in bang] + [("R", m) for m in bang]


def test_parse_error_exit_code(capsys):
    code, out = run(capsys, "parse", "--formula", "a * ")
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "ParseError"
    assert "position 4" in report["error"]["message"]


def test_unbound_atom_exit_code(capsys):
    code, out = run(capsys, "interpret", "--env", ENV, "--formula", "nope")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "EnvError"


def test_norm_refuses_a_box_without_certificate(capsys, tmp_path):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"schema": 1, "atoms": {
        "a": {"kind": "polyhedral", "p_gens": [["1", "0"], ["0", "1"]]}}}))
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"schema": 1, "vector": ["1"] * 28}))
    code, out = run(capsys, "norm", "--env", str(env), "--object", "!?a",
                    "--vector", str(vec), "--trunc", "2")
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1 and report["command"] == "norm"
    assert report["error"]["type"] == "CapabilityError"
    msg = report["error"]["message"]
    assert "coordinate 8 of" in msg and "no certified positive lower bound" in msg
    assert "never appears" not in msg


def test_norm_dimension_mismatch(capsys):
    code, out = run(capsys, "norm", "--env", ENV, "--object", "a", "--vector", VECTOR)
    assert code == 2
    assert "coordinates" in json.loads(out)["error"]["message"]


def test_failing_check_exits_one(capsys, monkeypatch):
    def rigged(names, seed, trials):
        return {
            "suites": {
                "mall": {
                    "checks": [{"name": "x", "passed": False, "detail": "rigged"}],
                    "passed": False,
                }
            },
            "all_passed": False,
        }

    monkeypatch.setattr(cli, "run_suites", rigged)
    code, out = run(capsys, "check", "--suite", "mall")
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_interpret_missing_env_file(capsys, tmp_path):
    code, out = run(capsys, "interpret", "--env", str(tmp_path / "missing.json"), "--formula", "a")
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["error"]["type"] == "FileNotFoundError"


def _write_env(tmp_path, atoms, name="env.json"):
    env = tmp_path / name
    env.write_text(json.dumps({"schema": 1, "atoms": atoms}), encoding="utf-8")
    return str(env)


NON_SPANNING = {
    "a": {"kind": "polyhedral", "p_gens": [["1", "1"]]},
    "bad": {"kind": "polyhedral", "p_gens": [["1", "0"]]},
}


def _env_error(code, out, name):
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["error"]["type"] == "EnvError"
    assert report["error"]["message"].startswith(f"atom {name!r}: ")


def test_interpret_rejects_a_non_spanning_atom(capsys, tmp_path):
    # only the atoms a formula names are built: the bad atom fails only the
    # formulas that name it
    env = _write_env(tmp_path, NON_SPANNING)
    code, out = run(capsys, "interpret", "--env", env, "--formula", "a")
    assert code == 0
    alone = _write_env(tmp_path, {"a": NON_SPANNING["a"]}, "alone.json")
    _, alone = run(capsys, "interpret", "--env", alone, "--formula", "a")
    assert json.loads(out)["object"] == json.loads(alone)["object"]
    assert json.loads(out)["object"]["q_ball_gens"] == [["0", "1"], ["1", "0"]]
    for formula in ("bad", "a * bad", "!bad^"):
        code, out = run(capsys, "interpret", "--env", env, "--formula", formula)
        _env_error(code, out, "bad")


def test_norm_builds_only_the_named_atoms(capsys, tmp_path):
    env = _write_env(tmp_path, NON_SPANNING)
    vector = tmp_path / "vec.json"
    vector.write_text(json.dumps({"schema": 1, "vector": ["1/3", "1/2"]}), encoding="utf-8")
    code, out = run(capsys, "norm", "--env", env, "--object", "a", "--vector", str(vector))
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "exact", "value": "1/2"}
    code, out = run(capsys, "norm", "--env", env, "--object", "bad", "--vector", str(vector))
    _env_error(code, out, "bad")


def test_two_bad_named_atoms_report_the_first_in_document_order(capsys, tmp_path):
    env = _write_env(
        tmp_path,
        {
            "z": {"kind": "polyhedral", "p_gens": [["1", "0"]]},
            "a": {"kind": "polyhedral", "p_gens": [["1", "1"]]},
            "y": {"kind": "qcs", "n": 0},
        },
    )
    for formula in ("y * z", "z & y", "(y -o a) | z"):
        code, out = run(capsys, "interpret", "--env", env, "--formula", formula)
        _env_error(code, out, "z")
    code, out = run(capsys, "interpret", "--env", env, "--formula", "y * a")
    _env_error(code, out, "y")
    code, out = run(capsys, "interpret", "--env", env, "--formula", "a * nope")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "EnvError", "message": "unbound atom 'nope'"}


def test_an_unused_atom_beyond_the_exact_polar_fails_no_request(capsys, tmp_path):
    big = {"kind": "polyhedral", "p_gens": [["1"] * 9]}  # dim 9 and no q_gens
    env = _write_env(tmp_path, {"big": big, "a": NON_SPANNING["a"]})
    code, out = run(capsys, "interpret", "--env", env, "--formula", "?a", "--trunc", "2")
    assert code == 0
    assert json.loads(out)["object"]["dim"] == 6
    code, out = run(capsys, "interpret", "--env", env, "--formula", "big")
    _env_error(code, out, "big")
    assert "q_gens" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "atom",
    [
        # (1/2, -1) is under (1, 1), so a dominance filter alone would drop it
        {"kind": "polyhedral", "p_gens": [["1", "1"], ["1/2", "-1"]]},
        {"kind": "polyhedral", "p_gens": [["2", "-1"], ["0", "1"]]},
        {"kind": "polyhedral", "p_gens": [["1", "1"]], "q_gens": [["1", "0"], ["1", "-1"]]},
    ],
)
def test_interpret_rejects_negative_generators(capsys, tmp_path, atom):
    env = _write_env(tmp_path, {"a": atom})
    code, out = run(capsys, "interpret", "--env", env, "--formula", "a")
    _env_error(code, out, "a")
    assert "orthant" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "atom",
    [
        {"kind": "polyhedral", "p_gens": [["1", "0"], ["0", "1"]], "dim": "2"},
        {"kind": "polyhedral", "p_gens": [["1", "0"], ["0", "1"]], "dim": 2.0},
        {"kind": "pcs", "dim": True, "ball_gens": [["1"]]},
        {"kind": "qcs", "n": "3"},
        {"kind": "qcs", "n": 2.5},
        {"kind": "qcs", "n": True},
        {"kind": "polyhedral", "p_gens": "11"},
        {"kind": "polyhedral", "p_gens": ["11"]},
        {"kind": "pcs", "dim": 1, "ball_gens": {"a": 1}},
        {"kind": "polyhedral", "p_gens": [["1", "0"], ["0", "1"]], "q_gens": [["1"]]},
        {"kind": "polyhedral", "p_gens": [], "dim": -1},
    ],
)
def test_interpret_rejects_malformed_atom_fields(capsys, tmp_path, atom):
    env = _write_env(tmp_path, {"a": atom})
    code, out = run(capsys, "interpret", "--env", env, "--formula", "a")
    _env_error(code, out, "a")


def test_check_rejects_trials_below_one(capsys):
    code, out = run(capsys, "check", "--suite", "pcs", "--trials", "-5")
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert "--trials" in report["error"]["message"]
    assert "all_passed" not in report


def test_interpret_rejects_negative_trunc(capsys):
    # rejected before interpretation, so polyhedral formulas fail as well
    for formula in ("!a", "a & b"):
        code, out = run(capsys, "interpret", "--env", ENV, "--formula", formula, "--trunc", "-1")
        assert code == 2
        assert "--trunc" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("formula", ["?a", "!a"])
def test_interpret_refuses_a_huge_trunc_at_once(capsys, formula):
    # the size guard is one binomial, not a sum over every degree
    huge = "1000000000000"
    code, out = run(capsys, "interpret", "--env", ENV, "--formula", formula, "--trunc", huge)
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["error"]["type"] == "CapabilityError"
    assert "graded dimension exceeds" in report["error"]["message"]


@pytest.mark.parametrize(
    "formula, trunc, size", [("!a * !a", "7", 245157), ("!a & !a", "11", 151164)]
)
def test_interpret_refuses_graded_pairs_and_sums_over_the_cap(capsys, tmp_path, formula, trunc, size):
    # each factor is under the cap (6,435 and 75,582 coordinates); the
    # pair or the sum is not
    simplex = [[int(i == j) for j in range(8)] for i in range(8)]
    env = _write_env(tmp_path, {"a": {"kind": "pcs", "dim": 8, "ball_gens": simplex}})
    code, out = run(capsys, "interpret", "--env", env, "--formula", formula, "--trunc", trunc)
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "CapabilityError"
    assert f"has {size} coordinates" in report["error"]["message"]


def test_norm_rejects_negative_trunc(capsys):
    args = ("norm", "--env", ENV, "--object", "?a", "--vector", VECTOR, "--trunc", "-1")
    code, out = run(capsys, *args)
    assert code == 2
    assert "--trunc" in json.loads(out)["error"]["message"]


def test_parse_rejects_deep_nesting(capsys):
    code, out = run(capsys, "parse", "--formula", "!" * 3000 + "a")
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "ParseError"
    assert "nests deeper" in report["error"]["message"]


def _twin_env(tmp_path):
    # a, c and b, d are bound to equal objects under different names
    env = tmp_path / "env.json"
    identity2 = [["1", "0"], ["0", "1"]]
    env.write_text(
        json.dumps(
            {
                "schema": 1,
                "atoms": {
                    "a": {"kind": "pcs", "dim": 2, "ball_gens": identity2},
                    "b": {"kind": "pcs", "dim": 2, "ball_gens": [["1", "1"]]},
                    "c": {"kind": "pcs", "dim": 2, "ball_gens": identity2},
                    "d": {"kind": "pcs", "dim": 2, "ball_gens": [["1", "1"]]},
                },
            }
        ),
        encoding="utf-8",
    )
    return str(env)


@pytest.mark.parametrize("formula", ["(a * b) & (c * d)", "(c * d) + (a * b)"])
def test_interpret_keeps_each_operand_label(capsys, tmp_path, formula):
    # equal objects under different names keep their own labels
    code, out = run(
        capsys, "interpret", "--env", _twin_env(tmp_path), "--formula", formula
    )
    assert code == 0
    assert json.loads(out)["object"]["label"] == f"({formula})"


@pytest.mark.parametrize("formula", ["(a -o b) & c", "c & (a -o b)", "(a | b) + c"])
def test_interpret_additives_over_hom_and_par(capsys, tmp_path, formula):
    code, out = run(
        capsys, "interpret", "--env", _twin_env(tmp_path), "--formula", formula
    )
    assert code == 0
    obj = json.loads(out)["object"]
    assert obj["label"] == f"({formula})"
    assert obj["dim"] == 6
    assert obj["p_ball_gens"] is not None and obj["q_ball_gens"] is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--formula", "-oa"],
        ["norm", "--env", "x", "--object", "a"],
        ["frob"],
        [],
        ["check", "--trials", "x"],
    ],
)
def test_usage_errors_are_json_reports(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["command"] is None
    assert report["error"]["type"] == "ConelogicError"
    assert report["error"]["message"].startswith("conelogic")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["norm", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: conelogic norm")


def test_files_that_are_not_utf8_are_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out = run(capsys, "interpret", "--env", str(bad), "--formula", "a")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "EnvError"
    code, out = run(capsys, "norm", "--env", ENV, "--object", "a", "--vector", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UnicodeDecodeError"



def _spectral_report(capsys, tmp_path, obj, vector):
    path = tmp_path / "x.json"
    path.write_text('{"schema": 1, "vector": [%s]}' % ", ".join(map(str, vector)))
    return run(capsys, "norm", "--env", ENV, "--object", obj, "--vector", str(path))


# JSON floats, finite or not, are refused as in an exact vector.
@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "NaN", "0.5"])
def test_spectral_norm_rejects_non_finite_entries(capsys, tmp_path, entry):
    code, out = _spectral_report(capsys, tmp_path, "q", [entry, 0, 0, 1])
    assert code == 2

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads(out, parse_constant=strict)
    assert report["schema"] == 1
    assert report["error"]["type"] == "EnvError"
    assert "floats are not exact" in report["error"]["message"]


def test_spectral_norm_refuses_booleans(capsys, tmp_path):
    # JSON true is not a number, as in an exact vector.
    code, out = _spectral_report(capsys, tmp_path, "q", ["true", "false", "false", "true"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "EnvError"
    assert "not a rational" in error["message"]


@pytest.mark.parametrize("obj, value", [("q", 2.0), ("q^", 1.0)])
def test_spectral_norm_report(capsys, tmp_path, obj, value):
    # The trace norm of the 2 x 2 identity is 2, its operator norm 1.
    vector = tmp_path / "x.json"
    vector.write_text('{"schema": 1, "vector": [1, 0, 0, 1]}')
    code, out = run(
        capsys, "norm", "--env", ENV, "--object", obj, "--vector", str(vector), "--trunc", "3"
    )
    assert code == 0
    expected = {
        "schema": 1,
        "command": "norm",
        "object": obj,
        "trunc": 3,
        "vector": ["1", "0", "0", "1"],
        "result": {"kind": "exact", "value": f"{value:g}"},
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj, vector, value",
    [
        ("q", ['"1/2"', '"0"', '"0"', '"1/2"'], "1"),
        ("q^", ['"1/2"', '"0"', '"0"', '"1/2"'], "1/2"),
        ("q^", ['"1"', '"1"', '"1"', '"1"'], "2"),  # closed by the singular pass
        ("q", ['"1"', "0", "0", '"1%s"' % ("0" * 400)], str(1 + 10**400)),
    ],
    ids=["q-halves", "q^-halves", "q^-ones", "q-beyond-float-range"],
)
def test_spectral_norm_reads_exact_entries(capsys, tmp_path, obj, vector, value):
    code, out = _spectral_report(capsys, tmp_path, obj, vector)
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "exact", "value": value}


def test_spectral_operator_norm_is_a_bracket(capsys, tmp_path):
    # lambda_max of [[2, 1], [1, 3]] is (5 + sqrt 5) / 2, irrational
    code, out = _spectral_report(capsys, tmp_path, "q^", ['"2"', '"1"', '"1"', '"3"'])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "bracket"
    lower, upper = Fraction(result["lower"]), Fraction(result["upper"])
    assert 5 < 2 * lower and (2 * lower - 5) ** 2 < 5 < (2 * upper - 5) ** 2


@pytest.mark.parametrize("obj", ["q", "q^"])
def test_spectral_norm_refuses_a_matrix_that_is_not_psd(capsys, tmp_path, obj):
    # determinant -1e-11
    vector = ['"1"', '"1"', '"1"', '"99999999999/100000000000"']
    code, out = _spectral_report(capsys, tmp_path, obj, vector)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MembershipError"


# Random requests: formulas from grammar tokens, valid and broken env
# documents, vectors of the interpreted dimension or of a wrong length.

LEAVES = ("a", "b", "1", "0", "bot", "top")
BINARY = ("*", "|", "&", "+", "-o")
TOKENS = LEAVES + BINARY + ("!", "?", "^", "(", ")")
RATIONALS = st.sampled_from(["1", "1/2", "2/3", "3", "0"])
BROKEN_RATIONALS = st.sampled_from(["-1", 0.5, "x", "1/0", True, None])
# Exact entries whose floats overflow or vanish.
EXTREME_RATIONALS = st.sampled_from(["1" + "0" * 400, "1/1" + "0" * 400])
# Values that are no dim, no n or no generator list (or only sometimes one).
BROKEN_FIELDS = st.sampled_from(
    ["2", 2.0, 2.5, True, -1, 0, "11", ["11"], [["1"]], [], {"a": 1}, None]
)

FORMULAS = st.recursive(
    st.sampled_from(LEAVES),
    lambda f: st.one_of(
        f.map(lambda x: f"!{x}"),
        f.map(lambda x: f"?{x}"),
        f.map(lambda x: f"({x})^"),
        st.tuples(f, st.sampled_from(BINARY), f).map(lambda t: "(%s %s %s)" % t),
    ),
    max_leaves=3,
) | st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join)


@st.composite
def atoms(draw, entries=RATIONALS, broken=None):
    """An atom; a `broken` strategy may replace its dim, n and generator
    fields, and adds optional dim and q_gens fields to polyhedral atoms."""

    def field(value):
        return value if broken is None else draw(st.just(value) | broken)

    d = draw(st.integers(1, 3))
    row = st.lists(entries, min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["pcs", "polyhedral", "qcs"]))
    if kind == "pcs":
        return {"kind": kind, "dim": field(d), "ball_gens": field(rows)}
    if kind == "polyhedral":
        atom = {"kind": kind, "p_gens": field(rows)}
        if broken is not None:
            extra = {"dim": broken | st.just(d), "q_gens": broken | st.just(rows)}
            atom.update(draw(st.fixed_dictionaries({}, optional=extra)))
        return atom
    return {"kind": kind, "n": field(draw(st.integers(1, 2)))}


def _env(atom):
    atoms_table = st.fixed_dictionaries({"a": atom, "b": atom})
    return st.fixed_dictionaries({"schema": st.just(1), "atoms": atoms_table})


ENV_DOCS = _env(atoms()) | st.one_of(
    _env(atoms(RATIONALS | BROKEN_RATIONALS)),
    _env(atoms(broken=BROKEN_FIELDS)),
    _env(st.fixed_dictionaries({"kind": st.sampled_from(["pcs", "nope"])})),
    st.sampled_from(["{", "[]", '{"atoms": 3}', '{"schema": 2, "atoms": {}}']),
)


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 2), (argv, out.getvalue())
    report = json.loads(out.getvalue())
    assert report["schema"] == 1
    return code, report


@settings(max_examples=60, deadline=None)
@given(FORMULAS, ENV_DOCS, st.integers(0, 2), st.data())
def test_random_requests_keep_the_contract(formula, env_doc, trunc, data):
    with tempfile.TemporaryDirectory() as tmp:
        env = os.path.join(tmp, "env.json")
        with open(env, "w", encoding="utf-8") as fh:
            fh.write(env_doc if isinstance(env_doc, str) else json.dumps(env_doc))
        _call(["parse", "--formula", formula])
        code, report = _call(
            ["interpret", "--env", env, "--formula", formula, "--trunc", str(trunc)]
        )
        dim = report["object"]["dim"] if code == 0 else data.draw(st.integers(0, 3))
        vector = data.draw(
            st.lists(RATIONALS | EXTREME_RATIONALS, min_size=dim, max_size=dim)
            | st.lists(RATIONALS | BROKEN_RATIONALS, max_size=3)
            | st.just("broken")
        )
        path = os.path.join(tmp, "vec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "vector": vector}, fh)
        _call(
            ["norm", "--env", env, "--object", formula, "--vector", path]
            + ["--trunc", str(trunc)]
        )


# Two open reports whose lower bound is the best point of the oracle's exact
# 1/10 grid (derived by a grid scan of its own in
# test_exponentials.test_ascent_lower_bounds_are_pinned), and entries beyond
# float range, which the exact oracle brackets like any other.

GRID_ATOM = {"kind": "polyhedral", "p_gens": [["1/8", "3/8", "2"], ["1/4", "3/8", "1"]]}
BIG = "1" + "0" * 400


def _norm_report(capsys, tmp_path, obj, vector, trunc, atom=GRID_ATOM):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"schema": 1, "atoms": {"a": atom}}))
    vec = tmp_path / "x.json"
    vec.write_text(json.dumps({"schema": 1, "vector": vector}))
    code, out = run(
        capsys, "norm", "--env", str(env), "--object", obj, "--vector", str(vec),
        "--trunc", str(trunc),
    )
    report = json.loads(out)
    assert report["schema"] == 1
    return code, report


@pytest.mark.parametrize(
    "vector, trunc, lower, upper",
    [
        (["1/3", "1/3", "0", "0", "0", "2/3", "1/3", "1/3", "1/3", "0"], 2, "139/27", "73/9"),
        (
            ["1", "1", "0", "1", "0", "1", "0", "1", "1", "0",
             "0", "0", "1", "2/3", "2/3", "1/3", "1", "0", "2/3", "2/3"],
            3,
            "3439/125",
            "277/9",
        ),
    ],
    ids=["trunc2", "trunc3"],
)
def test_grid_brackets_are_pinned(capsys, tmp_path, vector, trunc, lower, upper):
    code, report = _norm_report(capsys, tmp_path, "?a", vector, trunc)
    assert code == 0
    assert report["result"] == {
        "kind": "bracket",
        "lower": lower,
        "provenance": "distribution-family oracle (grid 1/10)",
        "upper": upper,
    }


@pytest.mark.parametrize("obj", ["?a", "!a"])
@pytest.mark.parametrize("big", [BIG, str(17 * 10**307)], ids=["1e400", "1.7e308"])
def test_norm_takes_entries_beyond_float_range(capsys, tmp_path, obj, big):
    # On ?a the big entry sits at x1 x2 over an atom whose bracket stays
    # open, so the oracle runs on a coefficient beyond float range.
    p_gens, at = {
        "?a": ([["1", "1/2"], ["1/2", "1"]], 4),
        "!a": ([["1", "1/2"], ["2/3", "3"]], 3),
    }[obj]
    vector = ["1"] * 6
    vector[at] = big
    atom = {"kind": "polyhedral", "p_gens": p_gens}
    code, report = _norm_report(capsys, tmp_path, obj, vector, 2, atom)
    assert code == 0
    result = report["result"]
    if obj == "!a":
        assert result["kind"] == "exact"  # the singleton lower meets the LP upper
        return
    assert result["kind"] == "bracket"
    assert Fraction(result["lower"]) <= Fraction(result["upper"])
    assert result["provenance"] == "distribution-family oracle (grid 1/10)"
