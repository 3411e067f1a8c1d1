"""Source hygiene: no module of the package, test file or demo imports a
name it never uses, no public name is defined in two package modules,
every name the benchmark's tracer patches still exists and the ones only
the tracer reaches are listed, the package's global caches are exactly the
listed ones, the bracket primitives, a morphism's integer view and the
multiset products are named only where listed, only the listed modules
compute with floats, no package module imports numpy and no request loads
it, every public function or class of the package has a caller
outside the tests, and `__all__` names exactly the names `__init__`
imports. The tests' reference routes import from the package
only the listed constructors and accessors, and no test module imports
another.

`__init__.py` is exempt from the import check, since its imports are the
public re-exports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import conelogic

PKG = os.path.dirname(conelogic.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Package modules keep their bare file name as the id; scripts get their
# folder in front.
SOURCES = [
    (os.path.join(PKG, f), f)
    for f in sorted(os.listdir(PKG))
    if f.endswith(".py") and f != "__init__.py"
] + [
    (os.path.join(ROOT, d, f), f"{d}/{f}")
    for d in ("tests", "demos")
    for f in sorted(os.listdir(os.path.join(ROOT, d)))
    if f.endswith(".py")
]


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _package_trees():
    """(file name, syntax tree) of every package module but __init__."""
    return [(name, _parse(path)) for path, name in SOURCES if "/" not in name]


def _imported(tree):
    """Local name -> line of every import binding outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Quoted forward references name types too.
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize(
    "path", [pytest.param(p, id=i) for p, i in SOURCES]
)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in used
    )
    assert not unused, f"{path} imports names it never uses: {unused}"


def _public_definitions(tree):
    """Public names a module binds at its top level by def, class or
    assignment (imports are not definitions)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


def test_public_names_have_one_definition():
    # A second definition of a public name is either a duplicate that can
    # drift from the first or a different thing under the same name.
    homes: dict = {}
    for name, tree in _package_trees():
        for defined in set(_public_definitions(tree)):
            homes.setdefault(defined, []).append(name)
    twice = {k: v for k, v in homes.items() if len(v) > 1}
    assert not twice, f"public names defined in more than one module: {twice}"


def _tracer_layers():
    """LAYERS from perfbench/layers.py, read as a literal without importing
    the benchmark."""
    for node in _parse(os.path.join(ROOT, "perfbench", "layers.py")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no LAYERS")


@pytest.mark.parametrize(
    "layer, spec", [pytest.param(k, v, id=k) for k, v in sorted(_tracer_layers().items())]
)
def test_traced_names_exist(layer, spec):
    # The tracer looks each function up in its module and each method in
    # the class dict; a name deleted or renamed in the package would make
    # every traced benchmark run fail.
    module, names = spec
    mod = importlib.import_module(f"conelogic.{module}")
    missing = []
    for name in names:
        owner, _, attr = name.rpartition(".")
        space = vars(getattr(mod, owner)) if owner else vars(mod)
        if not callable(space.get(attr)):
            missing.append(name)
    assert not missing, f"{layer}: conelogic.{module} lacks {missing}"


# Every process-wide memo in the package. A new one is a global unbounded
# cache, so it has to be argued for here: the multiset table, the oracle's
# simplex grid, and the ball-scheme cache that equal objects rebuilt by each
# norm request of a bracket round hit.
GLOBAL_CACHES = [
    "exponentials.primal_ball_scheme",
    "multisets.graded_layout",
    "oracle._compositions",
]


def _cache_decorated(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    yield node.name


def test_global_caches_are_listed():
    trees = _package_trees()
    found = [f"{name[:-3]}.{fn}" for name, tree in trees for fn in _cache_decorated(tree)]
    assert sorted(found) == GLOBAL_CACHES


# Every place in the package that names a bracket primitive, outside the
# oracle module that defines them. Each norm bracket is bounded through one
# BallScheme step, _bound: the Bernstein upper bound first, and the oracle
# only when the family is exact and no honest member reaches that bound.
# BallScheme.bracket and the box corners (BallScheme.corner, which reads
# the honest column maximum and builds no witness) both go through it, so
# only bracket names _honest_lower. The graded norms, the analytic norms
# and the Sym^n diagonal norm are all brackets of a ball scheme (the last
# two over the scheme of !A, with delta_x as the witness), so _bound is the
# oracle's one caller. A new route has to be argued for here.
BRACKET_ROUTES = {
    "_honest_lower": ["exponentials.BallScheme.bracket"],
    "averaged_upper": ["exponentials.BallScheme._bound"],
    "simplex_polynomial_bounds": ["exponentials.BallScheme._bound"],
}


def _references(tree, scope, kinds=(ast.Name, ast.Attribute)):
    """(name, qualified scope) of every Name and attribute in the tree, or
    of the given kinds of node only."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _references(node, f"{scope}.{node.name}", kinds)
            continue
        if isinstance(node, kinds):
            yield (node.id if isinstance(node, ast.Name) else node.attr), scope
        yield from _references(node, scope, kinds)


def test_bracket_routes_are_listed():
    found: dict = {name: set() for name in BRACKET_ROUTES}
    for name, tree in _package_trees():
        if name == "oracle.py":
            continue  # the oracle itself
        for ref, scope in _references(tree, name[:-3]):
            if ref in found:
                found[ref].add(scope)
    assert {k: sorted(v) for k, v in found.items()} == BRACKET_ROUTES


# Every place in the package that reads a morphism's integer view, and every
# place in the morphism modules that reads a denominator. A map's columns
# are scaled to integers once, by Morphism.int_cols; compose, the norm, the
# two functorial lifts (through the symmetric-power kernel) and the analytic
# lift delta_x -> delta_{f(x)} (whose factors are the rows of f's view) read
# that view, and adjoint makes its weighted entries from the numerator and
# denominator. A second integer derivation of a map's columns has to be
# argued for here.
INT_VIEW_ROUTES = {
    "int_cols": [
        "exponentials._analytic_lift",
        "exponentials.bang_mor",
        "exponentials.whynot_mor",
        "mall.compose",
        "mall.morphism_norm",
        "symmetric.sym_power_mor",
    ],
    "denominator": ["mall.Morphism.int_cols", "mall.adjoint"],
}


def test_int_view_routes_are_listed():
    found: dict = {name: set() for name in INT_VIEW_ROUTES}
    for name, tree in _package_trees():
        for ref, scope in _references(tree, name[:-3]):
            if ref == "int_cols" or (
                ref == "denominator" and name in ("mall.py", "symmetric.py", "exponentials.py")
            ):
                found[ref].add(scope)
    assert {k: sorted(v) for k, v in found.items()} == INT_VIEW_ROUTES


# Every place in the package that names the multiset-product recurrence,
# its one product step on multiset-keyed dicts, or the monomials built on
# it. One identity, the multinomial expansion over multisets, gives the
# coordinates of delta_x (monomial_values, which delta, and through it
# series_eval, the recognized deltas, the honest members of a !A scheme and
# symmetric.power_tensor read), the ball-scheme families (layout_products),
# the columns of symmetric powers, the lifts !s and ?l among them
# (multisets.sym_power_cols), and the lift delta_x -> delta_{f(x)} that
# analytic composition applies g to (exponentials._analytic_lift). The last
# two multiply multiset-keyed integer forms by _mset_mul. A second product
# loop over the multiset table, or a third multiset product, has to be
# argued for here.
PRODUCT_ROUTES = {
    "prefix_products": [
        "exponentials._analytic_lift",
        "multisets.monomial_values",
        "multisets.sym_power_cols",
        "polynomials.layout_products",
    ],
    "_mset_mul": [
        "exponentials._analytic_lift",
        "multisets.sym_power_cols",
    ],
    "monomial_values": [
        "exponentials._delta_like_bounds",
        "exponentials._node_scheme",
        "exponentials.delta",
        "symmetric.power_tensor",
    ],
}


def test_product_routes_are_listed():
    found: dict = {name: set() for name in PRODUCT_ROUTES}
    for name, tree in _package_trees():
        for ref, scope in _references(tree, name[:-3]):
            if ref in found:
                found[ref].add(scope)
    assert {k: sorted(v) for k, v in found.items()} == PRODUCT_ROUTES


# The package modules that may hold a float. Every other one, and so every
# module a norm, polar or bracket is computed in, names no `float`, holds no
# float literal and reads no float view of a polynomial. A float anywhere
# else has to be argued for here.
FLOAT_MODULES = [
    "jsonio",  # names float only to refuse it
    "polynomials",  # the float views eval_float and grad_float, for the tracer only
]
FLOAT_FREE = [
    name[:-3] for _, name in SOURCES if "/" not in name and name[:-3] not in FLOAT_MODULES
]
FLOAT_VIEWS = {"eval_float", "grad_float"}


def _floats(tree):
    """(line, what) of every float name, float literal and float view."""
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "float" or name in FLOAT_VIEWS:
            yield node.lineno, name
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)


@pytest.mark.parametrize("module", FLOAT_FREE)
def test_bracket_path_computes_no_float(module):
    found = list(_floats(_parse(os.path.join(PKG, f"{module}.py"))))
    assert not found, f"{module}.py: {found}"


def test_no_module_imports_numpy():
    trees = _package_trees() + [("__init__.py", _parse(os.path.join(PKG, "__init__.py")))]
    found = [
        name
        for name, tree in trees
        if any(m.split(".")[0] == "numpy" for m in _imported_modules(tree))
    ]
    assert not found, f"modules importing numpy: {found}"


# Runs each command line in one fresh interpreter and prints its exit code
# and whether numpy is loaded after it.
_PROBE = """
import contextlib, io, json, sys
import conelogic
from conelogic import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(code, "numpy" in sys.modules)
"""


def test_exact_requests_leave_numpy_unloaded(tmp_path):
    env = os.path.join(ROOT, "tests", "golden", "env.json")
    graded = os.path.join(ROOT, "tests", "golden", "vector.json")
    flat = tmp_path / "flat.json"
    flat.write_text('{"schema": 1, "vector": ["1/2", "1/3"]}')
    square = tmp_path / "square.json"
    square.write_text('{"schema": 1, "vector": [1, 0, 0, 1]}')
    requests = [
        ["parse", "--formula", "!a * b -o c"],
        ["interpret", "--env", env, "--formula", "a * b^"],
        ["interpret", "--env", env, "--formula", "?a", "--trunc", "2"],
        ["norm", "--env", env, "--object", "a", "--vector", str(flat)],
        ["norm", "--env", env, "--object", "?a", "--vector", graded, "--trunc", "2"],
        ["check", "--suite", "mall", "--trials", "2"],
        ["norm", "--env", env, "--object", "q", "--vector", str(square)],
        ["norm", "--env", env, "--object", "q^", "--vector", str(square)],
        ["check", "--suite", "qcs", "--trials", "2"],
    ]
    path = os.pathsep.join(p for p in (os.path.dirname(PKG), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(requests)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split("\n")[:-1] == ["0 False"] * len(requests)


def test_public_definitions_have_a_package_caller():
    # A public function or class that no other package scope names, that
    # __init__ does not export and that the tracer does not patch is reached
    # only from tests. Such a helper belongs in the tests that use it.
    exported = set(_imported(_parse(os.path.join(PKG, "__init__.py"))))
    traced = {
        part for _, names in _tracer_layers().values() for n in names for part in n.split(".")
    }
    defined, scopes = [], {}
    for name, tree in _package_trees():
        mod = name[:-3]
        defined += [
            (mod, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        for ref, scope in _references(tree, mod):
            scopes.setdefault(ref, set()).add(scope)
    unreached = [
        f"{mod}.{fn}"
        for mod, fn in defined
        if fn not in exported | traced
        and all(s == f"{mod}.{fn}" or s.startswith(f"{mod}.{fn}.") for s in scopes.get(fn, ()))
    ]
    assert not unreached, f"public names no package caller reaches: {unreached}"


# Every name the benchmark's tracer patches that __init__ does not export
# and that no package scope but its own names: a function by a bare name, a
# method by an attribute. They are kept only so that traced runs keep
# working, and are the ones to delete with their tracer entries. Dunder
# methods are left out, since an operator calls them without naming them.
TRACER_ONLY = [
    "exponentials.graded_tensor_mor",
    "polynomials.Polynomial.eval_float",
    "polynomials.Polynomial.grad_float",
    "polynomials.Polynomial.scale",
    "polynomials.Polynomial.substitute",
    "polynomials.poly_product",
    "polynomials.poly_sum",
]


def test_tracer_only_names_are_listed():
    exported = set(_imported(_parse(os.path.join(PKG, "__init__.py"))))
    scopes = {ast.Name: {}, ast.Attribute: {}}
    for name, tree in _package_trees():
        for kind, found in scopes.items():
            for ref, scope in _references(tree, name[:-3], (kind,)):
                found.setdefault(ref, set()).add(scope)
    tracer_only = []
    for module, names in _tracer_layers().values():
        for name in names:
            owner, _, attr = name.rpartition(".")
            if name in exported or attr.startswith("__"):
                continue
            home = f"{module}.{name}"
            refs = scopes[ast.Attribute if owner else ast.Name].get(attr, ())
            if all(s == home or s.startswith(f"{home}.") for s in refs):
                tracer_only.append(home)
    assert sorted(tracer_only) == TRACER_ONLY


def test_exports_are_the_imports():
    # __all__ names each name __init__ imports once, and __version__
    exported = _imported(_parse(os.path.join(PKG, "__init__.py")))
    assert sorted(conelogic.__all__) == sorted([*exported, "__version__"])


# Everything tests/reference.py may import from the package: constructors
# and accessors only, so that no reference route leans on the arithmetic it
# is the reference for. A module imported whole counts as all its names.
REFERENCE_IMPORTS = {"conelogic.symmetric.sym_tensor"}


def _imported_modules(tree):
    """The dotted name of every import: a module, or module.name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{a.name}" for a in node.names)


def test_reference_imports_only_listed_package_names():
    imports = _imported_modules(_parse(os.path.join(ROOT, "tests", "reference.py")))
    package = {m for m in imports if m.split(".")[0] == "conelogic"}
    assert package <= REFERENCE_IMPORTS, f"unlisted: {sorted(package - REFERENCE_IMPORTS)}"


def test_test_modules_import_no_test_module():
    # Shared routes and draws live in tests/reference.py, fixtures in
    # tests/conftest.py and the corpus replay in tests/corpus.py.
    found = [
        f"{name}: {m}"
        for path, name in SOURCES
        if name.startswith("tests/test_")
        for m in _imported_modules(_parse(path))
        if any(part.startswith("test_") for part in m.split("."))
    ]
    assert not found, f"test modules importing test modules: {found}"
