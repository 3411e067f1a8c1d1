"""Self-test of the output checks: right answers pass, perturbed ones fail.

    python3 perfbench/selftest.py

Runs one round of each workload's first operations through the program,
requires every check to pass, then perturbs each answer slightly and
requires the check to catch it. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORK, import_program  # noqa: E402


def _bump(s: str, factor=Fraction(1000001, 1000000)) -> str:
    return str(Fraction(s) * factor)


def perturb_cli(op, out: str) -> list[tuple[str, str]]:
    """(label, perturbed stdout) pairs for one CLI answer."""
    rep = json.loads(out)
    cases = []
    if op.call[0] == "interpret":
        obj = rep["object"]
        side = "p_ball_gens" if obj["p_ball_gens"] is not None else "q_ball_gens"
        bad = json.loads(out)
        bad["object"][side][0] = [_bump(v, Fraction(11, 10)) for v in obj[side][0]]
        cases.append((f"{side} generator scaled by 11/10", json.dumps(bad)))
        if len(obj[side]) > 1:
            bad = json.loads(out)
            del bad["object"][side][-1]
            cases.append((f"{side} generator dropped", json.dumps(bad)))
        bad = json.loads(out)
        bad["object"]["dim"] += 1
        cases.append(("dimension off by one", json.dumps(bad)))
        return cases
    res = rep["result"]
    if op.kind == "norm":
        bad = json.loads(out)
        bad["result"]["value"] = _bump(res["value"])
        return [("MALL norm off by 1e-6", json.dumps(bad))]
    lo, up = (res["value"], res["value"]) if res["kind"] == "exact" else (res["lower"], res["upper"])

    def bracket(label, lower, upper):
        bad = json.loads(out)
        bad["result"] = {"kind": "bracket", "lower": lower, "upper": upper, "provenance": ""}
        cases.append((label, json.dumps(bad)))

    if op.expect.get("simplex") and op.kind == "series":
        bad = json.loads(out)
        bad["result"]["value"] = _bump(res["value"])
        cases.append(("simplex series value off by 1e-6", json.dumps(bad)))
    if lo != up:
        bracket("lower and upper swapped", up, lo)
    bracket("bracket shrunk tenfold", _bump(lo, Fraction(1, 10)), _bump(up, Fraction(1, 10)))
    bracket("bracket raised tenfold", _bump(lo, 10), _bump(up, 10))
    return cases


def perturb_law(result) -> list[tuple[str, object]]:
    pairs, dims = result
    lhs, rhs = pairs[0]
    bad_lhs = [list(row) for row in lhs]
    bad_lhs[-1][0] += Fraction(1, 7)
    cases = [("one matrix entry changed", ([(bad_lhs, rhs)] + pairs[1:], dims))]
    cases.append(("coordinate count off by one", (pairs, {**dims, "whynot": dims["whynot"] + 1})))
    if "norms" in dims:
        cases.append(("morphism norm off", (pairs, {**dims, "norms": (Fraction(1), Fraction(1, 2))})))
    return cases


def main() -> int:
    import_program()
    import checks
    import program
    import workloads

    workdir = os.path.join(WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    failures = []
    tried = 0
    try:
        for name, make in workloads.ROUNDS.items():
            ops = make(0, 0, workdir)
            picks = {}
            for op in ops:  # the first operation of every kind
                picks.setdefault((op.kind, op.expect.get("simplex")), op)
            for op in picks.values():
                try:
                    output = program.run(op)
                except Exception as e:  # a known fault of the program
                    print(f"{name}/{op.kind}: program raised {type(e).__name__}; skipped")
                    continue
                why = checks.check(op, output)
                if why:
                    failures.append(f"{name}/{op.kind}: right answer rejected: {why}")
                    continue
                if op.expect.get("fault"):
                    continue
                if op.call[0] == "graded":
                    cases = perturb_law(output)
                else:
                    cases = [(lbl, (output[0], s)) for lbl, s in perturb_cli(op, output[1])]
                for label, bad in cases:
                    tried += 1
                    if checks.check(op, bad) is None:
                        failures.append(f"{name}/{op.kind}: not caught: {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print(f"{tried} perturbed answers tried, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
