"""The bracket corpus: 384 `norm` requests on ?a and !a, replayed byte for byte.

golden/bracket_corpus.json holds the requests of the benchmark's `bracket`
workload, rounds 0-3 at seeds 1-3: per round the environment (three random
polyhedral atoms and one simplex), and per request the object, the
truncation (2 or 3), the vector and the report `conelogic norm` printed.
It also holds the ledger of those reports: how many there are, how many
are exact, and the mean relative width (upper - lower) / upper over all of
them, an exact report counting 0.

A change that moves a bracket rewrites the reports and the ledger from the
stored requests, and the file's diff shows every report that moved:

    PYTHONPATH=src python tests/test_bracket_corpus.py
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from conelogic import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "bracket_corpus.json")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def replay(rounds, workdir):
    """Yield (request, exit code, report) for every request, in order,
    each run through cli.main in this process."""
    for i, rnd in enumerate(rounds):
        env = _write_json(os.path.join(workdir, f"r{i}.env.json"), rnd["env"])
        for j, req in enumerate(rnd["requests"]):
            vec = _write_json(
                os.path.join(workdir, f"r{i}-{j}.vec.json"), {"schema": 1, "vector": req["vector"]}
            )
            argv = ["norm", "--env", env, "--object", req["object"],
                    "--vector", vec, "--trunc", str(req["trunc"])]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            yield req, code, buf.getvalue()


def ledger(reports):
    exact, total = 0, Fraction(0)
    for out in reports:
        res = json.loads(out)["result"]
        if res["kind"] == "exact":
            exact += 1
        else:
            lo, up = Fraction(res["lower"]), Fraction(res["upper"])
            total += (up - lo) / up
    return {
        "requests": len(reports),
        "exact": exact,
        "mean_rel_width": float(total / len(reports)),
    }


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_the_bracket_workload():
    doc = _load()
    rounds = doc["rounds"]
    assert [(r["seed"], r["round"]) for r in rounds] == [(s, n) for s in (1, 2, 3) for n in range(4)]
    for rnd in rounds:
        assert sorted(rnd["env"]["atoms"]) == ["a0", "a1", "a2", "s"]
        reqs = rnd["requests"]
        assert len(reqs) == 32
        assert {r["object"][0] for r in reqs} == {"?", "!"}
        assert {r["trunc"] for r in reqs} == {2, 3}
    assert doc["ledger"]["requests"] == 384


def test_stored_ledger_is_that_of_the_stored_reports():
    doc = _load()
    reports = [req["report"] for rnd in doc["rounds"] for req in rnd["requests"]]
    assert ledger(reports) == doc["ledger"]


def test_corpus_replays_byte_identical(tmp_path):
    doc = _load()
    outs, moved = [], []
    for req, code, out in replay(doc["rounds"], str(tmp_path)):
        assert code == 0, out
        if out != req["report"]:
            moved.append((req["object"], req["trunc"], json.loads(out)["result"]))
        outs.append(out)
    assert not moved, f"{len(moved)} reports moved, first {moved[:3]}"
    assert ledger(outs) == doc["ledger"]


def write_corpus(rounds, path=CORPUS):
    """Rewrite every report from its request, and the ledger from the
    reports."""
    with tempfile.TemporaryDirectory() as wd:
        for req, code, out in replay(rounds, wd):
            if code != 0:
                raise SystemExit(f"{req['object']} at trunc {req['trunc']} exits {code}: {out}")
            req["report"] = out
    reports = [req["report"] for rnd in rounds for req in rnd["requests"]]
    doc = {"schema": 1, "ledger": ledger(reports), "rounds": rounds}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc["ledger"]


if __name__ == "__main__":
    print(json.dumps(write_corpus(_load()["rounds"])))
