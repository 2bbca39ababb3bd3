"""Static hygiene of the package source, checked with the standard library.

No linter is a dependency of the project, so the rules it would enforce
here are stated directly: a module-level import is used, every name in a
module's __all__ is bound and used somewhere in the package, the tests or
the demos, and no cache hides in a module-global dict keyed by id() or in
a mutable default argument (a PWTable owns its caches, and the
module-level ones are lru_caches).  The library keeps one route per
computation and the second routes live in tests/oracles.py, so neither
the package nor a demo imports from the tests, and each of those routes
is called by some test.  Every import sits at module level, save one:
numpy is imported as np inside each function that builds a float array
(the q = 1 quadrature, the dense SVD bound and the geometric Dirac
eigenvalues), so the exact layers never load it and `import qsu2` starts
without it; tests/test_cli.py checks that in a fresh interpreter.  Every
sparse sum {key: value} adds through qarith._acc, the one rule that adds
in place and drops a key whose sum is zero, so no sum starts a key from
an empty value.  Its Laurent-polynomial counterpart, qarith._lp_iadd, is
the one loop that adds into a polynomial, so the drop idiom
<dict>.pop(<key>, None) occurs in those two functions alone.
"""

import ast
import functools
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsu2"
# the package __init__ imports only to re-export, so it is not checked
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(getattr(importlib.import_module(f"qsu2.{path.stem}"),
                        "__all__", ()))
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_bound(path):
    module = importlib.import_module(f"qsu2.{path.stem}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []


_MUTABLE = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
            ast.SetComp)


def _called(node, names):
    return isinstance(node, ast.Call) and getattr(node.func, "id", "") in names


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_id_call_and_no_mutable_default(path):
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if _called(node, ("id",)):
            bad.append(f"id() at line {node.lineno}")
        if isinstance(node, ast.arguments):
            bad += [f"mutable default at line {d.lineno}"
                    for d in node.defaults + node.kw_defaults
                    if isinstance(d, _MUTABLE)
                    or _called(d, ("dict", "list", "set"))]
    assert bad == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("demos/*.py")),
    ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_import_from_the_tests(path):
    tree = ast.parse(path.read_text(), str(path))
    assert [m for m in _imported_modules(tree)
            if m.split(".")[0] in ("tests", "oracles")] == []


# exported names that only code outside src, tests and demos refers to
_EXPORTED_FOR_THE_BENCHMARKS = {
    # benchmarks/tracing.py wraps it by name to count scalar reductions
    ("qarith", "from_fraction"),
}


def _names_in(paths):
    """Every ast.Name and ast.Attribute name in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@functools.lru_cache(maxsize=None)
def _referenced_names():
    """Every ast.Name and ast.Attribute name in src, tests and demos."""
    return _names_in([*PACKAGE.glob("*.py"), *ROOT.glob("tests/*.py"),
                      *ROOT.glob("demos/*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used(path):
    # an import or an __all__ entry alone is not a use
    module = importlib.import_module(f"qsu2.{path.stem}")
    assert [n for n in getattr(module, "__all__", ())
            if n not in _referenced_names()
            and (path.stem, n) not in _EXPORTED_FOR_THE_BENCHMARKS] == []


def test_every_oracle_is_called_by_a_test():
    # an oracle that no test refers to checks nothing; an import alone is
    # not a reference
    oracles = ROOT / "tests" / "oracles.py"
    defined = [node.name for node in ast.parse(oracles.read_text()).body
               if isinstance(node, ast.FunctionDef)]
    referenced = _names_in(ROOT.glob("tests/test_*.py"))
    assert defined and [n for n in defined if n not in referenced] == []


def _numpy_as_np(node):
    """Whether node is exactly `import numpy as np`."""
    return (isinstance(node, ast.Import) and len(node.names) == 1
            and node.names[0].name == "numpy"
            and node.names[0].asname == "np")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    bad = [f"{node.name} imports at line {inner.lineno}"
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           for inner in ast.walk(node)
           if isinstance(inner, (ast.Import, ast.ImportFrom))
           and not _numpy_as_np(inner)]
    assert bad == []


_EMPTY_SUMS = ("AlgebraElement", "OneForm", "TensorElement")


def _empty_default(node):
    """Whether node is ZERO or an empty AlgebraElement/OneForm/TensorElement."""
    if isinstance(node, ast.Name):
        return node.id == "ZERO"
    return (_called(node, _EMPTY_SUMS) and not node.keywords
            and all(isinstance(a, ast.Dict) and not a.keys
                    for a in node.args))


def _get_from_empty(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2
            and _empty_default(node.args[1]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_sum_starts_from_an_empty_value(path):
    # out.get(k, ZERO) + v costs a full addition for nothing: qarith._acc
    # stores v itself.  The int kernels (_lp_add, default 0) are not sums
    # of exact values and stay outside the rule.
    bad = [f"line {node.lineno}"
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if isinstance(node, ast.BinOp)
           and isinstance(node.op, (ast.Add, ast.Sub))
           and (_get_from_empty(node.left) or _get_from_empty(node.right))]
    assert bad == []


def test_acc_is_the_one_sparse_sum_rule():
    owners = [path.stem for path in MODULES
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.FunctionDef) and node.name == "_acc"]
    assert owners == ["qarith"]


def _drops_a_key(node):
    """Whether node is the drop idiom <dict>.pop(<key>, None)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop" and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value is None)


def _owners(tree, matches, owner="<module>"):
    """The innermost function around each node under tree that matches."""
    for node in ast.iter_child_nodes(tree):
        if matches(node):
            yield owner
        inner = (node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
        yield from _owners(node, matches, inner)


def _drop_owners(tree):
    """The innermost function around each drop idiom under tree."""
    return _owners(tree, _drops_a_key)


def test_lp_iadd_is_the_one_polynomial_sum():
    # products, division and the gcd's pseudo-division add through
    # _lp_iadd; every exact sparse sum through _acc
    owners = sorted(f"{path.stem}.{owner}" for path in MODULES
                    for owner in _drop_owners(
                        ast.parse(path.read_text(), str(path))))
    assert owners == ["qarith._acc", "qarith._lp_iadd"]


def _calls_haar(node):
    return isinstance(node, ast.Call) and "haar" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_haar_is_taken_only_by_the_orthogonality_suite():
    # the Peter-Weyl data is closed-form; a Haar state in peterweyl is the
    # orthogonality suite's, the theorem it checks
    path = PACKAGE / "peterweyl.py"
    owners = set(_owners(ast.parse(path.read_text(), str(path)), _calls_haar))
    assert owners == {"orthogonality_violations"}
