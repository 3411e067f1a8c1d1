"""The mall corpus: 196 `interpret` and `norm` requests, replayed byte for byte.

golden/mall_corpus.json holds the requests of the benchmark's `mall`
workload, rounds 0-1 at seeds 1-2: MALL formulas over fresh polyhedral
atoms. Each request stores its environment, its formula, for `norm` its
vector, and the exit code and report `conelogic` printed. The workload's
request on a missing environment file is left out, since its report names
a path.

A change that moves a report rewrites the reports from the stored
requests, and the file's diff shows every report that moved:

    PYTHONPATH=src python tests/test_mall_corpus.py
"""

import contextlib
import io
import json
import os
import tempfile

from conelogic import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "mall_corpus.json")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def replay(requests, workdir):
    """Yield (request, exit code, report) for every request, in order,
    each run through cli.main in this process."""
    for i, req in enumerate(requests):
        env = _write_json(os.path.join(workdir, f"{i}.env.json"), req["env"])
        if req["command"] == "interpret":
            argv = ["interpret", "--env", env, "--formula", req["formula"]]
        else:
            vec = _write_json(
                os.path.join(workdir, f"{i}.vec.json"), {"schema": 1, "vector": req["vector"]}
            )
            argv = ["norm", "--env", env, "--object", req["formula"], "--vector", vec]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        yield req, code, buf.getvalue()


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_the_mall_workload():
    reqs = _load()["requests"]
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


def test_corpus_replays_byte_identical(tmp_path):
    moved = []
    for req, code, out in replay(_load()["requests"], str(tmp_path)):
        if (code, out) != (req["exit"], req["report"]):
            moved.append((req["command"], req["formula"], code, out[:200]))
    assert not moved, f"{len(moved)} reports moved, first {moved[:3]}"


def write_corpus(requests, path=CORPUS):
    """Rewrite every exit code and report from its request."""
    with tempfile.TemporaryDirectory() as wd:
        for req, code, out in replay(requests, wd):
            req["exit"], req["report"] = code, out
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "requests": requests}, fh, indent=1)
        fh.write("\n")
    return len(requests)


if __name__ == "__main__":
    print(write_corpus(_load()["requests"]))
