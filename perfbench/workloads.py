"""Seeded inputs for the three workloads, made without the program.

Every input comes from the benchmark's own random.Random; conelogic only
ever sees the generated files, argument lists and fraction matrices. A run
is a sequence of rounds, and every round has the same list of operation
kinds.

Each round's atoms come in two draws. The template draw is the same in
every round of every run: it fixes the atoms' dimensions, generator points
and the zero pattern of the vectors, and is redrawn until the sizes stay
under the caps. The seeded draw, fresh in every round, scales every
coordinate of every atom by a positive factor and picks the vector values.
A positive diagonal scaling keeps all the combinatorics the program's
work depends on (which points survive reduction, how many vertices a polar
has), so the seed changes the inputs without changing how much work they
are; uncapped and unscaled random atoms made the work of a round vary by
tens of percent from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from evaluator import build, graded_msets, maximal

# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One request. `kind` names what it exercises; `call` is what the
    runner times; `expect` carries what the checker needs."""

    kind: str
    call: tuple
    expect: dict = field(default_factory=dict)


def rng(seed: int, workload: str, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def template_rng(workload: str) -> random.Random:
    return random.Random(f"{workload}/template")


# Powers of two, so that scaling leaves the size of the fractions alone.
SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))


def scaled(r: random.Random, points: list[list[str]]) -> list[list[str]]:
    """The atom with every coordinate multiplied by its own seeded factor."""
    s = [r.choice(SCALES) for _ in points[0]]
    return [[str(Fraction(v) * c) for v, c in zip(p, s)] for p in points]


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _frac(num: int, den: int) -> str:
    return str(Fraction(num, den))


# ---------------------------------------------------------------------------
# mall: interpret and norm requests over fresh polyhedral atoms

# Nested tuples over atom placeholders; ("dual", x) is x^. Each shape is
# asked MALL_REPEATS times as `interpret` and as `norm` per round, each time
# on fresh atoms.
MALL_SHAPES = (
    ("tensor", "a", "b"),
    ("par", "a", "b"),
    ("hom", "a", "b"),
    ("with", "a", "b"),
    ("plus", "a", "b"),
    ("tensor", ("dual", "a"), "b"),
    ("dual", ("tensor", "a", "b")),
    ("tensor", ("with", "a", "b"), "c"),
    ("hom", "a", ("with", "b", "c")),
    ("par", ("plus", "a", "b"), "c"),
    ("hom", ("tensor", "a", "b"), "c"),
    ("tensor", "a", ("plus", "b", "c")),
)

_SYNTAX = {"tensor": "*", "par": "|", "hom": "-o", "with": "&", "plus": "+"}

# Size caps. An instance is redrawn until the summed squares of the
# candidate-point counts the program reduces stay under MALL_COST_CAP;
# uncapped, one request ranged from 8 ms to 18 s.
MALL_ATOM_DIMS = (2, 3, 4)
MALL_NESTED_DIMS = (2, 3)
MALL_COST_CAP = 160
MALL_REPEATS = 2  # instances per shape and request kind in a round


def formula_text(f) -> str:
    if isinstance(f, str):
        return f
    if f[0] == "dual":
        return f"({formula_text(f[1])})^"
    return f"({formula_text(f[1])} {_SYNTAX[f[0]]} {formula_text(f[2])})"


def _atom_names(f) -> list[str]:
    if isinstance(f, str):
        return [f]
    return [n for c in f[1:] for n in _atom_names(c)]


def _random_atom(r: random.Random, d: int) -> list[list[str]]:
    k = r.randint(2, 3)
    return [[_frac(r.randint(1, 4), 4) for _ in range(d)] for _ in range(k)]


def _cnt(pts) -> int:
    return len(maximal(pts))


def mall_cost(node) -> int:
    """Summed squared sizes of the point lists the program reduces."""
    k, ch = node.kind, node.children
    if k == "atom":
        return 0
    if k == "dual":
        return mall_cost(ch[0])
    a, b = ch
    own = {
        "tensor": lambda: _cnt(a.P) * _cnt(b.P),
        "par": lambda: _cnt(a.Q) * _cnt(b.Q),
        "hom": lambda: _cnt(a.P) * _cnt(b.Q),
        "with": lambda: _cnt(a.P) * _cnt(b.P),
        "plus": lambda: _cnt(a.Q) * _cnt(b.Q),
    }[k]()
    return own * own + mall_cost(a) + mall_cost(b)


def _mall_instance(t: random.Random, r: random.Random, shape):
    """Template atoms from t under the cost cap, then scaled from r."""
    names = sorted(set(_atom_names(shape)))
    nested = any(not isinstance(c, str) and c[0] != "dual" for c in shape[1:])
    dims = MALL_NESTED_DIMS if nested else MALL_ATOM_DIMS
    while True:
        atoms = {n: _random_atom(t, t.choice(dims)) for n in names}
        if mall_cost(build(shape, atoms)) <= MALL_COST_CAP:
            break
    atoms = {n: scaled(r, g) for n, g in atoms.items()}
    return atoms, build(shape, atoms)


def _env_doc(atoms: dict) -> dict:
    return {
        "schema": 1,
        "atoms": {n: {"kind": "polyhedral", "p_gens": g} for n, g in atoms.items()},
    }


def mall_round(seed: int, round_no: int, workdir: str) -> list[Op]:
    t, r = template_rng("mall"), rng(seed, "mall", round_no)
    ops = []
    for i, shape in enumerate(MALL_SHAPES):
        text = formula_text(shape)
        for j in range(MALL_REPEATS):
            atoms, node = _mall_instance(t, r, shape)
            env = _write_json(
                os.path.join(workdir, f"r{round_no}-i{i}-{j}.env.json"), _env_doc(atoms)
            )
            ops.append(
                Op(
                    "interpret",
                    ("interpret", "--env", env, "--formula", text),
                    {"shape": shape, "atoms": atoms},
                )
            )
        for j in range(MALL_REPEATS):
            atoms, node = _mall_instance(t, r, shape)
            stem = os.path.join(workdir, f"r{round_no}-n{i}-{j}")
            env = _write_json(stem + ".env.json", _env_doc(atoms))
            x = [_frac(r.randint(0, 5), 5) for _ in range(node.dim)]
            x[t.randrange(node.dim)] = "1"  # never the zero vector
            vec = _write_json(stem + ".vec.json", {"schema": 1, "vector": x})
            ops.append(
                Op(
                    "norm",
                    ("norm", "--env", env, "--object", text, "--vector", vec),
                    {"shape": shape, "atoms": atoms, "vector": x},
                )
            )
    # Two atom-only requests that hit faults of the program on every input;
    # their inputs do not depend on the seed. The right outcome is exit 0
    # with the answer or exit 2 with an error report.
    atoms = {"a": [["1", "1/2"], ["1/3", "1"]], "z": [["1", "0"]]}
    env = _write_json(os.path.join(workdir, f"r{round_no}-fault.env.json"), _env_doc(atoms))
    ops.append(
        Op(
            "fault_unused_nonspanning_atom",
            ("interpret", "--env", env, "--formula", "a"),
            {"shape": "a", "atoms": {"a": atoms["a"]}, "fault": True},
        )
    )
    ops.append(
        Op(
            "fault_missing_env_file",
            ("interpret", "--env", os.path.join(workdir, "absent.env.json"), "--formula", "a"),
            {"fault": True, "missing": True},
        )
    )
    return ops


# ---------------------------------------------------------------------------
# bracket: `norm` on ?a and !a over a small pool of atoms

BRACKET_DIMS = (2, 3)
BRACKET_TRUNCS = (2, 3)
BRACKET_POOL = 3  # random atoms per round, plus one simplex atom
BRACKET_VECTORS = 2  # per atom, connective and truncation


def simplex_atom(d: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(d)] for i in range(d)]


def bracket_round(seed: int, round_no: int, workdir: str) -> list[Op]:
    t, r = template_rng("bracket"), rng(seed, "bracket", round_no)
    atoms = {
        f"a{i}": scaled(r, _random_atom(t, t.choice(BRACKET_DIMS))) for i in range(BRACKET_POOL)
    }
    atoms["s"] = simplex_atom(t.choice(BRACKET_DIMS))
    env = _write_json(os.path.join(workdir, f"r{round_no}.env.json"), _env_doc(atoms))
    ops = []
    for name, gens in atoms.items():
        d = len(gens[0])
        for conn in ("?", "!"):
            for n in BRACKET_TRUNCS:
                size = len(graded_msets(d, n))
                for j in range(BRACKET_VECTORS):
                    # Which coordinates are zero is part of the template.
                    x = [_frac(r.randint(1, 3), 3) if t.random() < 0.6 else "0"
                         for _ in range(size)]
                    x[0] = _frac(r.randint(1, 3), 3)  # the vacuum coordinate
                    vec = _write_json(
                        os.path.join(workdir, f"r{round_no}-{name}{conn}{n}-{j}.vec.json"),
                        {"schema": 1, "vector": x},
                    )
                    ops.append(
                        Op(
                            "series" if conn == "?" else "distribution",
                            ("norm", "--env", env, "--object", conn + name,
                             "--vector", vec, "--trunc", str(n)),
                            {"atom": gens, "simplex": name == "s", "trunc": n, "vector": x},
                        )
                    )
    return ops


# ---------------------------------------------------------------------------
# graded: structure-map laws as library calls

# (dim, N) pairs. (3, 3) is left out: one compose(mu, eta) there is a dense
# 20 x 1771 x 20 Fraction product taking seconds, too long for one operation.
# The associativity law is left out at (2, 3) for the same reason. The list
# puts the 90th percentile inside the cluster of (2, 3) unit laws rather
# than in the gap below it, where it would jump from run to run.
GRADED_CONFIGS = ((2, 2), (2, 3), (3, 2))
GRADED_BASES = ("simplex", "cube", "poly")
GRADED_LAWS = (
    "unit_eta",
    "unit_whynot",
    "counit",
    "commutativity",
    "associativity",
    "functor_bang",
    "functor_whynot",
    "exp_iso",
)
GRADED_SKIP = {("associativity", 2, 3)}


def base_points(kind: str, d: int, r: random.Random) -> list[list[Fraction]]:
    if kind == "simplex":
        return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    if kind == "cube":
        return [[Fraction(1)] * d]
    return [[Fraction(r.randint(1, 4), 4) for _ in range(d)] for _ in range(r.randint(2, 3))]


def base_norm(kind: str, x) -> Fraction:
    """Exact norm on a simplex (coordinate sum) or cube (coordinate max) base."""
    return sum(x, Fraction(0)) if kind == "simplex" else max(x)


def contraction(r: random.Random, src_pts, tgt_kind: str, rows: int):
    """A random nonnegative rows x len(src) matrix scaled to norm exactly 1/2
    from source ball points into a simplex or cube target."""
    cols = len(src_pts[0])
    m = [[Fraction(r.randint(0, 3)) for _ in range(cols)] for _ in range(rows)]
    m[r.randrange(rows)][r.randrange(cols)] += 1
    norm = max(
        base_norm(tgt_kind, [sum((m[i][j] * u[j] for j in range(cols)), Fraction(0)) for i in range(rows)])
        for u in src_pts
    )
    return [[v / (2 * norm) for v in row] for row in m]


def graded_round(seed: int, round_no: int, workdir: str) -> list[Op]:
    del workdir  # library calls: no input files
    r = rng(seed, "graded", round_no)
    ops = []
    for d, n in GRADED_CONFIGS:
        for kind in GRADED_BASES:
            pts = base_points(kind, d, r)
            for law in GRADED_LAWS:
                if (law, d, n) in GRADED_SKIP:
                    continue
                spec = {"law": law, "kind": kind, "points": pts, "dim": d, "trunc": n}
                if law.startswith("functor"):
                    mid, last = r.choice(("simplex", "cube")), r.choice(("simplex", "cube"))
                    spec["mid"], spec["last"] = mid, last
                    spec["f"] = contraction(r, pts, mid, d)
                    spec["g"] = contraction(r, base_points(mid, d, r), last, d)
                if law == "exp_iso":
                    if d < 2:
                        continue
                    spec["split"] = r.randint(1, d - 1)
                ops.append(Op(law, ("graded", spec), {"dim": d, "trunc": n}))
    return ops


ROUNDS = {"mall": mall_round, "bracket": bracket_round, "graded": graded_round}
