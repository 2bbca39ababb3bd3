"""Static hygiene of the package source, checked with the standard library.

No linter is a dependency of the project, so the rules it would enforce
here are stated directly: a module-level import is used, every name in a
module's __all__ is bound and used somewhere in the package, the tests or
the demos, and no cache hides in a module-global dict keyed by id() or in
a mutable default argument (a PWTable owns its caches, and the
module-level ones are the lru_caches named here).  The library keeps one
route per computation and the second routes live in tests/oracles.py, so
neither the package nor a demo imports from the tests, each of those
routes is called by some test, and a public function or class of the
package is exported or used by the package or a demo.  Every import sits at
module level, save one: numpy is imported as np inside each function
that builds a float array (the q = 1 quadrature and the dense SVD
bound), so the exact layers never load it and
`import qsu2` starts without it; tests/test_cli.py checks that in a
fresh interpreter.  Every sparse sum {key: value} adds through qarith._acc, the one rule that adds
in place and drops a key whose sum is zero, so no sum starts a key from
an empty value.  Its Laurent-polynomial counterpart, qarith._lp_iadd, is
the one loop that adds into a polynomial, so the drop idiom
<dict>.pop(<key>, None) occurs in those two functions alone.  Likewise
PWTable.gauge is the one caller of gauge_radical, calculus._compose the
one caller of the ladder root sqrt_q_int_product, and calculus._ladder,
which states each ladder once, is read by _compose, _entry_square and
classical_limit_report alone.
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


def _names_under(trees):
    """Every ast.Name and ast.Attribute name under the given nodes."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _names_in(paths):
    """Every ast.Name and ast.Attribute name in the given files."""
    return _names_under(ast.parse(path.read_text(), str(path))
                        for path in paths)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_public_name_only_the_tests_use(path):
    # a public function or class that is neither exported nor used by the
    # package or a demo is a second route that only tests call: it belongs
    # in tests/oracles.py.  A use inside its own definition is no use.
    exported = getattr(importlib.import_module(f"qsu2.{path.stem}"),
                       "__all__", ())
    tree = ast.parse(path.read_text(), str(path))
    elsewhere = _names_in([p for p in [*PACKAGE.glob("*.py"),
                                       *ROOT.glob("demos/*.py")]
                           if p != path])
    unused = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in exported
              and node.name not in elsewhere | _names_under(
                  other for other in tree.body if other is not node)]
    assert unused == []


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


def _call_owners(*names):
    """The innermost function, with its module, around each call in the
    package to one of names, as a function or as a method."""
    def calls(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in names
            or getattr(node.func, "attr", None) in names)
    return {f"{path.stem}.{owner}" for path in MODULES
            for owner in _owners(ast.parse(path.read_text(), str(path)),
                                 calls)}


def test_haar_is_called_only_by_l2_inner_and_the_orthogonality_suite():
    # every other Haar state of the package is an L^2 inner product; the
    # orthogonality command decides by the exact suite alone
    assert _call_owners("haar") == {
        "algebra.l2_inner", "peterweyl.orthogonality_violations"}


def test_transform_pair_is_called_only_where_a_transform_is_asked_for():
    # symbols and powers of |D| act on the Peter-Weyl coefficient blocks;
    # the transform route through fhat is their oracle in tests/oracles.py
    assert _call_owners("fourier_transform", "inverse_fourier") == {
        "cli.cmd_fourier", "fourier.inequality_ratio"}


def test_gauge_is_the_one_map_between_the_t_basis_and_the_unitary_gauge():
    # the transform, its inverse and the symbol route gauge their blocks
    # through PWTable.gauge
    assert _call_owners("gauge_radical") == {"peterweyl.gauge"}


def test_compose_is_the_one_builder_of_the_symbol_blocks():
    # every ladder root is built in a block read off a _SYMBOLS table
    assert _call_owners("sqrt_q_int_product") == {"calculus._compose"}


def test_each_ladder_is_stated_once():
    # the blocks, their closed-form growth norms and the classical limit
    # read each ladder's q-integers off the one table _ladder
    assert _call_owners("_ladder") == {
        "calculus._compose", "calculus._entry_square",
        "calculus.classical_limit_report"}


def _lru_cache_owners(tree, owner=""):
    """The qualified name of the definition around each lru_cache under
    tree; a decorator's owner is the function that it decorates."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "id", None) == "lru_cache"
                or getattr(node, "attr", None) == "lru_cache"):
            yield owner or "<module>"
        inner = owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = f"{owner}.{node.name}" if owner else node.name
        yield from _lru_cache_owners(node, inner)


def test_module_level_caches_are_the_documented_ones():
    # a process-wide cache outlives every table, so each one is named here:
    # monomial products and coproducts, the coaction powers of a table, and
    # the symbol blocks, which the calculi of every table share
    owners = sorted(f"{path.stem}.{owner}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    for owner in _lru_cache_owners(
                        ast.parse(path.read_text(), str(path))))
    assert owners == ["algebra._coproduct_mono", "algebra._head_mul",
                      "algebra._mono_mul", "calculus._compose",
                      "peterweyl.PWTable._coaction_powers"]
