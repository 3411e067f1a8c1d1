"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function object in every
`conelogic.*` module namespace that holds it (modules import names with
`from .x import y`, so patching the defining module alone would miss
callers), and Polynomial methods on the class. Each wrapped call is a span
on one stack: a layer's self time is its spans' duration minus the part
covered by child spans, and everything an operation does outside any
layer is the benchmark's own time, so the self times add up to the traced
operation time. A call nested in a call of the same layer is not counted
again.

`lru_cache` statistics are summed over every cached function found by
scanning the conelogic modules, so deleting a cache does not break the
benchmark.
"""

from __future__ import annotations

import sys
import time

BENCH = "bench"

# layer -> (module, function names); "Polynomial." names are methods.
LAYERS = {
    "lp": ("lp", ("lp_maximize",)),
    "polyhedra.polar": ("polyhedra", ("polar_of_points", "polar_vertices")),
    "polyhedra.reduce": ("polyhedra", ("reduce_generators",)),
    "cones.norm": ("cones", ("norm_primal", "norm_dual", "gauge_norm", "tensor_side_norm")),
    "cones.materialize": ("cones", ("materialize_q", "materialize_p")),
    "mall.connective": (
        "mall",
        ("tensor_obj", "cotensor_obj", "hom_obj", "product_obj", "coproduct_obj"),
    ),
    "mall.compose": ("mall", ("compose",)),
    "mall.morphism_norm": ("mall", ("morphism_norm",)),
    "polynomials": (
        "polynomials",
        (
            "poly_sum",
            "poly_product",
            "Polynomial.eval_exact",
            "Polynomial.eval_float",
            "Polynomial.grad_float",
            "Polynomial.__add__",
            "Polynomial.mul",
            "Polynomial.scale",
            "Polynomial.shift_vars",
            "Polynomial.substitute",
        ),
    ),
    "oracle.bounds": ("oracle", ("simplex_polynomial_bounds", "averaged_upper")),
    "exponentials.norm_bounds": (
        "exponentials",
        ("graded_norm_bounds", "series_norm_bounds", "distribution_norm_bounds"),
    ),
    "exponentials.structure": (
        "exponentials",
        (
            "eta", "mu", "diag_mult", "monoid_unit", "whynot_mor", "bang_mor",
            "exp_iso", "graded_relabel", "graded_par_mor", "graded_tensor_mor",
        ),
    ),
    "exponentials.objects": (
        "exponentials",
        (
            "whynot_obj", "bang_obj", "graded_tensor_obj", "graded_par_obj",
            "graded_product_obj", "graded_coproduct_obj",
        ),
    ),
    "interpreter.env": ("interpreter", ("load_env", "env_from_json")),
    "interpreter.interpret": ("interpreter", ("interpret",)),
    "formulas.parse": ("formulas", ("parse_formula",)),
    "cli": ("cli", ("main",)),
    "jsonio.dump": ("jsonio", ("dump_report",)),
}

# Layers whose spans are too many to keep one record each; their time and
# counts still go into the totals.
UNRECORDED = {"polynomials"}

# The metric names this module reports, in BENCHMARK.json order.
COUNTERS = {
    "lp": ("rows", "cols"),
    "polyhedra.polar": ("points_in", "vertices_out"),
    "polyhedra.reduce": ("points_in", "kept"),
    "mall.compose": ("mul_adds", "nonzeros"),
}


def _len(x) -> int:
    return 0 if x is None else len(x)


def _count_lp(args, result):
    prob = args[0]
    return {"rows": len(prob.constraints), "cols": len(prob.objective)}


def _count_polar(args, result):
    verts = getattr(result, "vertices", result)
    return {"points_in": len(args[0]), "vertices_out": _len(verts)}


def _count_reduce(args, result):
    return {"points_in": len(args[0]), "kept": len(result)}


def _count_compose(args, result):
    g, f = args[0].matrix, args[1].matrix
    inner = len(f)
    cols = len(f[0]) if f else 0
    nz = sum(1 for row in g for v in row if v) + sum(1 for row in f for v in row if v)
    return {"mul_adds": len(g) * inner * cols, "nonzeros": nz}


_COUNT_FNS = {
    "lp": _count_lp,
    "polyhedra.polar": _count_polar,
    "polyhedra.reduce": _count_reduce,
    "mall.compose": _count_compose,
}

# Functions whose first argument may be a one-shot iterable; the wrapper
# materializes it so it can be counted and still be consumed once.
_MATERIALIZE_FIRST = {"polar_of_points", "polar_vertices", "reduce_generators"}


def conelogic_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("conelogic") and m]


def find_caches() -> list:
    """Every lru_cache-wrapped function in the conelogic module namespaces."""
    seen = {}
    for mod in conelogic_modules():
        for val in vars(mod).values():
            if callable(val) and hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                seen[id(val)] = val
    return list(seen.values())


class Tracer:
    def __init__(self):
        self.names = list(LAYERS) + [BENCH]
        self.index = {n: i for i, n in enumerate(self.names)}
        self._patches = []  # (owner, attr, original)
        self.reset_op()
        self.spans = []  # (op, layer, start, end, parent span or -1)
        self.op_no = -1

    # per-operation state ------------------------------------------------

    def reset_op(self):
        n = len(self.names)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.depth = [0] * n
        self.counts = {}
        self.eval_exact = 0
        self.candidates = 0
        self._stack = []  # [layer, start, child seconds, span index]

    def begin_op(self, op_no: int):
        self.reset_op()
        self.op_no = op_no
        self._enter(self.index[BENCH])

    def end_op(self):
        self._exit()

    def _enter(self, layer: int):
        rec = -1
        if self.names[layer] not in UNRECORDED:
            parent = next((s[3] for s in reversed(self._stack) if s[3] >= 0), -1)
            rec = len(self.spans)
            self.spans.append([self.op_no, layer, 0.0, 0.0, parent])
        if self.depth[layer] == 0:
            self.calls[layer] += 1
        self.depth[layer] += 1
        start = time.perf_counter()
        self._stack.append([layer, start, 0.0, rec])
        if rec >= 0:
            self.spans[rec][2] = start
        return self.depth[layer] == 1

    def _exit(self):
        end = time.perf_counter()
        lay, start, child, rec = self._stack.pop()
        dur = end - start
        self.self_s[lay] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self.depth[lay] -= 1
        if rec >= 0:
            self.spans[rec][3] = end

    # patching -------------------------------------------------------------

    def _wrap(self, layer_name: str, fname: str, fn):
        layer = self.index[layer_name]
        count_fn = _COUNT_FNS.get(layer_name)
        materialize = fname in _MATERIALIZE_FIRST
        is_eval = fname == "Polynomial.eval_exact"
        oracle = self.index["oracle.bounds"]
        tracer = self

        def wrapper(*args, **kwargs):
            if materialize and args:
                args = (tuple(args[0]),) + args[1:]
            if is_eval:
                tracer.eval_exact += 1
                if tracer.depth[oracle]:
                    tracer.candidates += 1
            outer = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if outer and count_fn is not None:
                for k, v in count_fn(args, result).items():
                    key = f"{layer_name}.{k}"
                    tracer.counts[key] = tracer.counts.get(key, 0) + v
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", fname)
        return wrapper

    def install(self):
        import conelogic  # noqa: F401  (imports every submodule)

        mods = conelogic_modules()
        for layer_name, (modname, fnames) in LAYERS.items():
            home = sys.modules[f"conelogic.{modname}"]
            for fname in fnames:
                if fname.startswith("Polynomial."):
                    cls = home.Polynomial
                    attr = fname.split(".", 1)[1]
                    orig = cls.__dict__[attr]
                    self._patches.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(layer_name, fname, orig))
                    continue
                orig = getattr(home, fname)
                wrapped = self._wrap(layer_name, fname, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
