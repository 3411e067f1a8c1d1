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

import json
import os
import tempfile
from fractions import Fraction

import corpus

CORPUS = os.path.join(corpus.GOLDEN, "bracket_corpus.json")


def _argv(i, pair, put):
    env, req = pair
    return [
        "norm",
        "--env", put(f"{i}.env.json", env),
        "--object", req["object"],
        "--vector", put(f"{i}.vec.json", {"schema": 1, "vector": req["vector"]}),
        "--trunc", str(req["trunc"]),
    ]


def replay(rounds, workdir):
    """Yield (request, exit code, report) for every request, in order."""
    pairs = [(rnd["env"], req) for rnd in rounds for req in rnd["requests"]]
    for (_, req), code, out in corpus.replay(pairs, workdir, _argv):
        yield req, code, out


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


def test_corpus_is_the_bracket_workload():
    doc = corpus.load(CORPUS)
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
    doc = corpus.load(CORPUS)
    reports = [req["report"] for rnd in doc["rounds"] for req in rnd["requests"]]
    assert ledger(reports) == doc["ledger"]


def test_corpus_replays_byte_identical(tmp_path):
    doc = corpus.load(CORPUS)
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
    corpus.save(path, doc)
    return doc["ledger"]


if __name__ == "__main__":
    print(json.dumps(write_corpus(corpus.load(CORPUS)["rounds"])))
