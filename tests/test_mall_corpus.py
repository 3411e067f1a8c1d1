"""The mall corpus: 196 `interpret` and `norm` requests, replayed byte for byte.

golden/mall_corpus.json holds the requests of the benchmark's `mall`
workload, rounds 0-1 at seeds 1-2: MALL formulas over fresh polyhedral
atoms. Each request stores its environment, its formula, for `norm` its
vector, and the exit code and report `conelogic` printed. The workload's
request on a missing environment file is left out, since its report names
a path.

golden/mall_constants.json adds what that workload never draws: the MALL
constants and unit operands, and products and sums with a tensor factor,
each as an `interpret` and a `norm` request on one fixed environment with
mixed denominators.

A change that moves a report rewrites the reports of both files from the
stored requests, and the files' diffs show every report that moved:

    PYTHONPATH=src python tests/test_mall_corpus.py
"""

import json
import os
import tempfile

import corpus

CORPUS = os.path.join(corpus.GOLDEN, "mall_corpus.json")
CONSTANTS = os.path.join(corpus.GOLDEN, "mall_constants.json")

CONSTANT_ENV = {
    "schema": 1,
    "atoms": {
        "a": {"kind": "polyhedral", "p_gens": [["1/2", "3/4", "1"], ["2/3", "1/3", "1/5"]]},
        "b": {"kind": "polyhedral", "p_gens": [["3/4", "1/6"], ["1/4", "1/2"]]},
    },
}
CONSTANT_FORMULAS = (
    "a * 0",
    "0 -o a",
    "a & top",
    "a + 0",
    "a * 1",
    "a -o bot",
    "1 & 1",
    "(a * b) & a",
    "(a * b) + a",
    "(a * b)^",
)


def _argv(i, req, put):
    env = put(f"{i}.env.json", req["env"])
    if req["command"] == "interpret":
        return ["interpret", "--env", env, "--formula", req["formula"]]
    vec = put(f"{i}.vec.json", {"schema": 1, "vector": req["vector"]})
    return ["norm", "--env", env, "--object", req["formula"], "--vector", vec]


def replay(requests, workdir):
    """Yield (request, exit code, report) for every request, in order."""
    return corpus.replay(requests, workdir, _argv)


def constant_requests():
    """An `interpret` and a `norm` request per constant formula; the norm
    vector has the object's dimension, read off the interpret report."""
    reqs = []
    with tempfile.TemporaryDirectory() as wd:
        for f in CONSTANT_FORMULAS:
            interp = {"command": "interpret", "formula": f, "env": CONSTANT_ENV}
            _, _, out = next(replay([interp], wd))
            dim = json.loads(out)["object"]["dim"]
            vector = [f"{i % 3 + 1}/{i % 4 + 2}" for i in range(dim)]
            reqs += [interp, {"command": "norm", "formula": f, "env": CONSTANT_ENV, "vector": vector}]
    return reqs


def test_corpus_is_the_mall_workload():
    reqs = corpus.load(CORPUS)["requests"]
    assert len(reqs) == 196
    rounds = sorted({(r["seed"], r["round"]) for r in reqs})
    assert rounds == [(s, n) for s in (1, 2) for n in range(2)]
    for key in rounds:
        mine = [r for r in reqs if (r["seed"], r["round"]) == key]
        assert len(mine) == 49
        assert sum(r["command"] == "norm" for r in mine) == 24
    for r in reqs:
        assert all(a["kind"] == "polyhedral" for a in r["env"]["atoms"].values())
        assert ("vector" in r) == (r["command"] == "norm")


def _assert_replays(path, workdir):
    moved = []
    for req, code, out in replay(corpus.load(path)["requests"], str(workdir)):
        if (code, out) != (req["exit"], req["report"]):
            moved.append((req["command"], req["formula"], code, out[:200]))
    assert not moved, f"{len(moved)} reports moved, first {moved[:3]}"


def test_corpus_replays_byte_identical(tmp_path):
    _assert_replays(CORPUS, tmp_path)


def test_constants_are_the_listed_requests():
    stored = [
        {k: v for k, v in r.items() if k not in ("exit", "report")}
        for r in corpus.load(CONSTANTS)["requests"]
    ]
    assert stored == constant_requests()


def test_constants_replay_byte_identical(tmp_path):
    _assert_replays(CONSTANTS, tmp_path)


def write_corpus(requests, path=CORPUS):
    """Rewrite every exit code and report from its request."""
    with tempfile.TemporaryDirectory() as wd:
        for req, code, out in replay(requests, wd):
            req["exit"], req["report"] = code, out
    corpus.save(path, {"schema": 1, "requests": requests})
    return len(requests)


if __name__ == "__main__":
    for path in (CORPUS, CONSTANTS):
        print(path, write_corpus(corpus.load(path)["requests"], path))
