"""The public surface of the package, and a static check that the modules
hold no code the program does not reach.

`sqdepth.__all__` names what the CLI and its reports use.  Entry points
that only restated a composition are gone, and those that tests compare
the program against live in `tests/oracles.py`.  The static check reads
the sources with `ast`: no module keeps an unused import, every
top-level function and class is referenced somewhere in the package
outside its own definition and `__init__.py`, and every method and
property of a package class is read as an attribute somewhere in the
package outside its own definition.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import sqdepth

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sqdepth"
MODULES = {path.stem for path in SOURCES.glob("*.py")}

PUBLIC = {
    "AlphaVector", "CapExceededError", "CmVerdict", "CoefficientField",
    "DEFAULT_ENUMERATION_CAP", "IdealPair", "InvalidPairError", "MacaulayExpansion",
    "MonomialIdeal", "ParseError", "RATIONALS", "RelativeComplex", "SimplicialComplex",
    "SqdepthError", "alpha", "binomial", "chu_vandermonde_check", "cm_admissible",
    "complex_of_ideal", "depth_verdict", "expand", "f_vector", "face_table",
    "first_recurrence_failure", "hdepth_of_alpha", "macaulay_growth_bound",
    "minimalize", "parse_ideal", "relative_of_pair",
}

# module -> names it no longer has: each restated a composition of the
# names kept, or moved to tests/oracles.py
REMOVED = {
    "ideals": ("intersect", "colon"),
    "homology": ("relative_homology", "ChainComplexRanks", "depth"),
    "invariants": ("beta", "beta_table", "BetaVector", "alpha_from_beta", "hdepth",
                   "dim_module", "h_vector"),
    "complexes": ("pair_of_relative", "ideal_of_complex"),
    "macaulay": ("pseudopower",),
    "randgen": ("random_alpha_counts", "random_complete_intersection"),
}

# Top-level functions that nothing in the package calls, with the reason
# each stays.  Both serve the benchmark harness alone, which is kept
# unchanged, so removing them is a change to the benchmark.
UNREFERENCED = {
    "popcount_table": "perfbench/worker.py builds these tables at setup",
    "clear_homology_cache": "perfbench/worker.py calls this no-op at setup",
}

# Methods and properties that nothing in the package reads, with the
# reason each stays.  Both are library API that README documents.
UNREAD_MEMBERS = {
    "MonomialIdeal.contains": "README: ideal.contains(mask) tests membership",
    "SimplicialComplex.void": "README: a complex c is the pair (c, SimplicialComplex.void(c.n))",
}


def test_all_is_exactly_the_public_surface():
    assert len(sqdepth.__all__) == len(set(sqdepth.__all__)) == 29
    assert set(sqdepth.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_resolves(name):
    assert getattr(sqdepth, name) is not None


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names])
def test_each_removed_name_is_gone(module, name):
    assert not hasattr(sqdepth, name)
    assert not hasattr(importlib.import_module(f"sqdepth.{module}"), name)


def test_the_expansion_has_no_shifted_sum():
    assert not hasattr(sqdepth.MacaulayExpansion, "shifted_sum")


def _sources() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SOURCES.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    """Each name read in the tree under node: as a bare name, or as an
    attribute of a module of the package (ideals.SMALL_TABLE).  An
    attribute of anything else, such as self.alpha, is not the function."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read[sub.id] += 1
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in MODULES):
            read[sub.attr] += 1
    return read


def _exported(tree: ast.Module) -> set[str]:
    # the strings of a module-level __all__ list
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_keeps_an_unused_import():
    unused = []
    for filename, tree in _sources().items():
        used = set(_references(tree)) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{filename}: {bound}")
    assert unused == []


def test_every_top_level_definition_is_referenced_in_the_package():
    trees = {name: tree for name, tree in _sources().items() if name != "__init__.py"}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for filename, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # references inside the definition itself, recursion included,
                # do not count
                if used[node.name] == _references(node)[node.name]:
                    unreferenced.append(node.name)
    assert sorted(unreferenced) == sorted(UNREFERENCED)


def _attributes_read(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def test_every_method_and_property_is_read_in_the_package():
    # A member counts as read when an attribute of its name is read on any
    # object outside its own definition: by name alone, so a dead member
    # that shares its name with a live one passes.  Python itself calls the
    # dunder methods.
    trees = _sources()
    read = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    unread = []
    for tree in trees.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                        and read[node.name] == _attributes_read(node)[node.name]):
                    unread.append(f"{cls.name}.{node.name}")
    assert sorted(unread) == sorted(UNREAD_MEMBERS)
