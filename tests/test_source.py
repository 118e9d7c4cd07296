"""Checks on the package source itself."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import k3ade

SOURCE = Path(k3ade.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Public names that nothing in the package reads, each with the reader
#: it is kept for.
READ_OUTSIDE = {
    "check_pair": "the fast path on one pair, which the tests compare "
                  "with the oracle",
    "slow_check_pair": "the oracle that builds the glued overlattice",
    "clear_caches": "the one way for a caller to drop the memo tables",
    "dump_form": "the writer of the exists-lattice form file format",
    "elements": "the odometer listing the tests' reference scans run on",
}


def _find(predicate):
    """file:line of every node of the package source for which the
    predicate holds."""
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if predicate(node)]
    return found


def test_no_assert_statements():
    # python -O strips assert statements, so a correctness check kept in
    # one would silently stop running.
    assert _find(lambda node: isinstance(node, ast.Assert)) == []


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raised_assertion_errors():
    # A failed internal check is a RuntimeError; AssertionError is what
    # test frameworks and the assert statement use.
    assert _find(_raises_assertion_error) == []


def test_only_sources_and_data_in_package():
    # Generated artifacts (C sources, extension modules, build output)
    # must not sit beside the sources, where they could be committed.
    stray = []
    for path in sorted(SOURCE.rglob("*")):
        rel = path.relative_to(SOURCE)
        if "__pycache__" in rel.parts or path.is_dir():
            continue
        if rel.suffix == ".py":
            continue
        if rel.suffix == ".tsv" and rel.parts[:-1] == ("data",):
            continue
        stray.append(str(rel))
    assert stray == []


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.module is not None
            and node.module.split(".")[0] == "numpy")


def test_package_does_not_import_numpy():
    # The scans are plain integer code; numpy is only a test oracle, so
    # no module of the package may import it, directly or through
    # another module.
    assert _find(_imports_numpy) == []
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    check = ("import sys, k3ade.cli\n"
             "sys.exit('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_benchmark_reads_defined_names():
    # A traced benchmark run reads each per-layer "<layer>.<fn>.calls" or
    # ".self_s" figure from the spans of the wrapped function, and its
    # tracer wraps only public, module-level, non-generator functions;
    # it also reads the caches and the backend name below.  Deleting or
    # reshaping one of these makes a traced run die with KeyError.
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    spans = [name.split(".") for name in names
             if name.count(".") == 2 and name.endswith((".calls", ".self_s"))]
    assert spans
    broken = []
    for layer, attr, _ in spans:
        module = importlib.import_module(f"k3ade.{layer}")
        fn = getattr(module, attr, None)
        if (attr.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or inspect.isgeneratorfunction(fn)):
            broken.append(f"{layer}.{attr}")
    assert broken == []

    from k3ade import classifier, kernels, local_invariants
    assert callable(classifier._exists_cached.cache_info)
    for cache in ("_SET_CACHE", "_REC_CACHE"):
        len(getattr(local_invariants, cache))
    assert isinstance(kernels.backend(), str)


def test_genus_path_stays_on_integers():
    # The genus decision reads the scaled integers of a form; a Fraction
    # or a Fraction-valued evaluation there would bring back the
    # rational arithmetic the presentation was built to avoid.
    banned = {"Fraction", "eval_q", "eval_b"}
    found = []
    for name in ("local_invariants.py", "genus.py"):
        tree = ast.parse((SOURCE / name).read_text(), filename=name)
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None)
            if used in banned:
                found.append(f"{name}:{node.lineno} {used}")
    assert found == []


def _parse(name):
    return ast.parse((SOURCE / name).read_text(), filename=name)


def _body(name, fn):
    """The syntax tree of the function fn of module name."""
    return next(node for node in ast.walk(_parse(name))
                if isinstance(node, ast.FunctionDef) and node.name == fn)


#: The top-level statements of the package that may name Fraction:
#: rat_inverse, kept because the benchmark names it, and its import.
FRACTION_ALLOWED = {"exact_linalg.py from fractions import Fraction",
                    "exact_linalg.py rat_inverse"}


def test_oracle_lifts_stay_on_integers():
    # Forms are scaled integers read and written as text in integers,
    # the oracle's glue lifts are integer dual coordinates and the
    # short-vector descent is fraction-free, so no other statement of
    # any module names Fraction.
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if "Fraction" in _identifiers(stmt):
                name = getattr(stmt, "name", None) or ast.unparse(stmt)
                found.add(f"{path.name} {name}")
    assert sorted(found - FRACTION_ALLOWED) == []


def test_split_builds_no_form():
    # The genus decision reads each p-part's scaled integers and splits
    # them in place: no FiniteQuadraticForm is built per prime or per
    # split step, neither by a helper that makes one nor by a call of
    # the constructor, by its name or as an attribute.
    banned = {"form_on_generators", "p_part", "_derived"}
    checked = {"genus._local_data": _body("genus.py", "_local_data"),
               "local_invariants.split_masks": _body("local_invariants.py",
                                                     "split_masks")}
    assert {where: sorted(banned & _identifiers(node))
            for where, node in checked.items()} == {where: []
                                                    for where in checked}
    assert {where: [call.lineno for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and _callee_name(call.func) == "FiniteQuadraticForm"]
            for where, node in checked.items()} == {where: []
                                                    for where in checked}


#: Fast-path names: the subgroup walk, the per-type context and the
#: brute-force subgroup and factor routines.  The shared partner test
#: exists_even_lattice is not listed: genus is not walked, and it stays
#: shared until the oracle gets its own partner test from Nikulin's
#: Thm 1.10.1 (ROADMAP.md, direction 4).
FAST_PATH_NAMES = {"span", "subquotient", "_invariant_factors", "_pair_stream",
                   "_candidates", "isotropic_list", "element_order",
                   "_context"}


def test_oracle_reads_no_fast_path():
    # slow_check_pair reads the glue group off the overlattice, so
    # neither it nor any function of classifier or lattice_ops that it
    # calls, directly or in turn, names a fast-path routine.
    defs = {node.name: node for name in ("classifier.py", "lattice_ops.py")
            for node in _parse(name).body if isinstance(node, ast.FunctionDef)}
    todo, walked = ["slow_check_pair"], {}
    while todo:
        fn = todo.pop()
        if fn in walked or fn not in defs:
            continue
        node = defs[fn]
        walked[fn] = sorted(FAST_PATH_NAMES & _identifiers(node))
        todo += [_callee_name(call.func) for call in ast.walk(node)
                 if isinstance(call, ast.Call)]
    assert {"overlattice", "root_type", "short_vectors"} <= set(walked)
    assert {fn: found for fn, found in walked.items() if found} == {}


def _callee_name(func):
    """The name a call is made by: a plain name, or the last attribute
    of a dotted one."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _identifiers(node):
    """Every name a syntax tree reads or binds: names, attributes and
    imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_public_names_have_a_reader():
    # src/ holds the classifier, its oracle and the CLI: a public
    # module-level def or class that no other statement of the package
    # reads, that the benchmark does not name and that READ_OUTSIDE
    # does not list is read only by tests, and belongs in them.
    statements = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.name, stmt) for stmt in tree.body]
    readers = [(stmt, _identifiers(stmt)) for _, stmt in statements]
    bench = BENCHMARK.read_text() + "".join(
        path.read_text()
        for path in sorted((BENCHMARK.parent / "k3bench").glob("*.py")))
    unread = []
    for name, stmt in statements:
        if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                or stmt.name.startswith("_") or stmt.name in READ_OUTSIDE):
            continue
        if any(stmt.name in ids for other, ids in readers
               if other is not stmt):
            continue
        if re.search(rf"\b{stmt.name}\b", bench):
            continue
        unread.append(f"{name}:{stmt.lineno} {stmt.name}")
    assert unread == []
