"""CLI commands, exit codes, and golden-file byte stability."""

import json
import os

import pytest

from conelogic import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    args = (
        "interpret",
        "--env", os.path.join(GOLDEN, "env.json"),
        "--formula", "!(a & b)",
        "--trunc", "2",
    )
    code, out = run(capsys, *args)
    assert code == 0
    assert out == golden("interpret.json")
    _, again = run(capsys, *args)
    assert again == out


def test_norm_golden(capsys):
    args = (
        "norm",
        "--env", os.path.join(GOLDEN, "env.json"),
        "--object", "?a",
        "--vector", os.path.join(GOLDEN, "vector.json"),
        "--trunc", "2",
    )
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
    code, out = run(
        capsys,
        "interpret",
        "--env", os.path.join(GOLDEN, "env.json"),
        "--formula", "a & b",
        "--out", "text",
    )
    assert code == 0
    assert "dim: 4" in out and "backend: polyhedral" in out


def test_parse_error_exit_code(capsys):
    code, out = run(capsys, "parse", "--formula", "a * ")
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "ParseError"
    assert "position 4" in report["error"]["message"]


def test_unbound_atom_exit_code(capsys):
    code, out = run(
        capsys,
        "interpret",
        "--env", os.path.join(GOLDEN, "env.json"),
        "--formula", "nope",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "EnvError"


def test_norm_dimension_mismatch(capsys):
    code, out = run(
        capsys,
        "norm",
        "--env", os.path.join(GOLDEN, "env.json"),
        "--object", "a",
        "--vector", os.path.join(GOLDEN, "vector.json"),
    )
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
    code, out = run(
        capsys,
        "interpret",
        "--env", str(tmp_path / "missing.json"),
        "--formula", "a",
    )
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["error"]["type"] == "FileNotFoundError"


def test_interpret_rejects_a_non_spanning_atom(capsys, tmp_path):
    # the bad atom is never mentioned by the formula; the env still fails
    env = tmp_path / "env.json"
    env.write_text(
        json.dumps(
            {
                "schema": 1,
                "atoms": {
                    "a": {"kind": "polyhedral", "p_gens": [["1", "1"]]},
                    "bad": {"kind": "polyhedral", "p_gens": [["1", "0"]]},
                },
            }
        ),
        encoding="utf-8",
    )
    code, out = run(capsys, "interpret", "--env", str(env), "--formula", "a")
    assert code == 2
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["error"]["type"] == "EnvError"
    assert "'bad'" in report["error"]["message"]


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
        code, out = run(
            capsys,
            "interpret",
            "--env", os.path.join(GOLDEN, "env.json"),
            "--formula", formula,
            "--trunc", "-1",
        )
        assert code == 2
        assert "--trunc" in json.loads(out)["error"]["message"]


def test_norm_rejects_negative_trunc(capsys):
    code, out = run(
        capsys,
        "norm",
        "--env", os.path.join(GOLDEN, "env.json"),
        "--object", "?a",
        "--vector", os.path.join(GOLDEN, "vector.json"),
        "--trunc", "-1",
    )
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
