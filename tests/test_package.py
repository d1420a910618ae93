"""The package namespace is filled on first use: `import cobcalc` loads no
layer, the first public name loads every layer and binds all of `__all__`,
and a submodule name loads only that submodule.  Each of these tests starts
a fresh interpreter, since the test process has loaded every layer already.

The layers import each other at the top of a module and form no cycle, the
CLI's per-command imports excepted; that check reads the source only, and
runs without pytest as

    PYTHONPATH=src python tests/test_package.py --check

which exits 1 if a module imports a sibling layer inside a function or the
layers' imports form a cycle."""

import argparse
import ast
import importlib
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import cobcalc
from fresh_process import LOADED, run_fresh

LAYERS = ("chow_models", "cobordism", "core_algebra", "fgl", "fixedpoint", "report", "symmfunc")


def test_import_loads_no_layer():
    assert run_fresh("import sys, json, cobcalc; print(json.dumps(%s))" % LOADED) == ["cobcalc"]


def test_every_public_name_is_its_layers_object():
    code = """
import sys, json, cobcalc
first = cobcalc.verify_all is cobcalc.fixedpoint.verify_all
loaded = %s
layers = [sys.modules["cobcalc." + m] for m in sys.argv[1:]]
bad = []
for name in cobcalc.__all__:
    if name in ("clear_caches", "__version__"):
        continue
    holders = [vars(m)[name] for m in layers if name in vars(m)]
    if not holders or any(h is not getattr(cobcalc, name) for h in holders):
        bad.append(name)
print(json.dumps([first, loaded, bad]))
""" % LOADED
    first, loaded, bad = run_fresh(code, *LAYERS)
    assert first
    # one public name loads every layer, the CLI excepted
    assert loaded == ["cobcalc"] + ["cobcalc." + m for m in LAYERS]
    assert bad == []


def test_star_import_binds_all_names():
    code = """
import json, cobcalc
ns = {}
exec("from cobcalc import *", ns)
print(json.dumps([n for n in cobcalc.__all__ if n not in ns]))
"""
    assert run_fresh(code) == []


def test_submodule_name_loads_only_that_submodule():
    code = """
import sys, json, cobcalc
fgl = cobcalc.fgl
print(json.dumps([fgl is sys.modules["cobcalc.fgl"], %s]))
""" % LOADED
    assert run_fresh(code) == [True, ["cobcalc", "cobcalc.core_algebra", "cobcalc.fgl"]]
    code = """
import sys, json, cobcalc
print(json.dumps([hasattr(cobcalc, "fixedpoint"), "verify_all" in vars(cobcalc), %s]))
""" % LOADED
    found, bound, loaded = run_fresh(code)
    # a submodule name binds no public name
    assert found and not bound
    assert "cobcalc.fixedpoint" in loaded and "cobcalc.cli" not in loaded


def test_dir_lists_public_and_submodule_names_without_loading():
    code = """
import sys, json, cobcalc
names = dir(cobcalc)
print(json.dumps([sorted(set(cobcalc.__all__) - set(names)), "fgl" in names, %s]))
""" % LOADED
    missing, has_fgl, loaded = run_fresh(code)
    assert missing == [] and has_fgl
    assert loaded == ["cobcalc"]


def test_unknown_name_raises_attribute_error_without_loading():
    code = """
import sys, json, cobcalc
try:
    cobcalc.no_such_name
    raised = False
except AttributeError:
    raised = True
print(json.dumps([raised, hasattr(cobcalc, "no_such_name"), %s]))
""" % LOADED
    assert run_fresh(code) == [True, False, ["cobcalc"]]


def test_clear_caches_before_and_after_use():
    code = """
import sys, json, cobcalc
cobcalc.clear_caches()
before = %s
def answers():
    p3 = cobcalc.VarietySpec.multiproj([3])
    return [cobcalc.chern_number(p3, (2, 1)), cobcalc.lazard_piece(4).rank,
            cobcalc.verify_all(cobcalc.builtin_action("linear_pn", n=2, a=1)).ok]
first = answers()
cobcalc.clear_caches()
empty = not cobcalc.chow_models._model_cache
print(json.dumps([before, first, empty, answers() == first]))
""" % LOADED
    before, first, empty, same = run_fresh(code)
    assert before == ["cobcalc"]
    assert first[2] is True
    assert empty and same


def test_each_input_is_a_parameter_once():
    # a bundle carries its model, the lmod2 series order is n + 3, the
    # Lazard basis reads the law it needs and every class is taken over
    # B(ZZ) (Chern classes over ZZ), so none of them is a parameter; a line
    # is an int vector, which changes no parameter of a bundle's makers
    code = """
import sys, inspect, json, cobcalc
from functools import reduce
names = sys.argv[1:]
print(json.dumps({n: list(inspect.signature(reduce(getattr, n.split("."), cobcalc)).parameters)
                  for n in names}))
"""
    want = {
        "verify_lmod2": ["action", "max_m"],
        "verify_all": ["action", "max_m"],
        "lazard_basis": ["n"],
        "quillen_pushforward": ["V", "m"],
        "chern_total": ["E"],
        "total_P": ["E"],
        "total_P_deformed": ["E", "y_max"],
        "fundamental_class": ["spec", "theory"],
        "ChowModel": ["spec"],
        "VirtualSplitBundle": ["model", "plus_lines", "minus_lines", "plus_trivial", "minus_trivial"],
        "FixedComponent.from_lines": ["spec", "codim", "line_vectors", "trivial_rank", "minus_trivial_rank"],
        "Report": ["command"],
    }
    assert run_fresh(code, *want) == want


def test_public_names_are_listed_once():
    # the package's _EXPORTS is the one table of public names: no layer
    # keeps a list of its own
    code = """
import sys, json, importlib
mods = [importlib.import_module("cobcalc." + m) for m in sys.argv[1:]]
print(json.dumps([m.__name__ for m in mods if hasattr(m, "__all__")]))
"""
    assert run_fresh(code, *LAYERS) == []


# The benchmark reads the package from outside: bench/session.py through the
# public names, and bench/tracer.py by wrapping the functions that its TIMED
# and COUNTED tables name.  Both files are read as text, so a rename that
# would break a benchmark run fails here too.
BENCH = Path(__file__).resolve().parent.parent / "bench"
# traced names that had gone before these tests were written; each reads as
# zero calls in a trace
TRACED_GONE = {"symmfunc.q_alpha", "symmfunc.cf_class", "core_algebra.TruncatedSeries.reversion"}


def test_session_reads_only_public_names():
    tree = ast.parse((BENCH / "session.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cc"}
    assert {"fundamental_class", "verify_all", "lazard_piece"} <= read
    assert sorted(read - set(cobcalc.__all__)) == []


def test_traced_names_still_resolve():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED")}
    traced = {m + "." + name for table in tables.values() for m, names in table.items() for name in names}
    assert {"symmfunc.total_P", "symmfunc.total_P_deformed", "chow_models.quillen_pushforward",
            "core_algebra.BDomain.mul"} <= traced
    gone = []
    for name in sorted(traced - TRACED_GONE):
        modname, dotted = name.split(".", 1)
        mod = importlib.import_module("cobcalc." + modname)
        if "." in dotted:  # a method must be the class's own, as the tracer patches vars(cls)
            clsname, meth = dotted.split(".")
            ok = meth in vars(getattr(mod, clsname, object))
        else:
            ok = getattr(mod, dotted, None) is not None
        if not ok:
            gone.append(name)
    assert gone == []


# The layer graph, read off the source: the CLI imports each command's layers
# inside the command, so that a command loads only what it runs; every other
# module imports its sibling layers at the top, and those imports form no
# cycle, so each layer can be read and loaded after the layers it names.
PACKAGE = Path(cobcalc.__file__).resolve().parent


def _sibling_imports(path, siblings):
    """The sibling layers that the module at `path` imports, as (at the top
    level, inside a function): relative imports and imports of
    `cobcalc.<layer>` alike."""
    top, local = set(), set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.ImportFrom):
                base = "cobcalc." + (child.module or "") if child.level == 1 else child.module or ""
                # `from cobcalc import fgl` imports the submodule cobcalc.fgl
                names = [base.rstrip(".") + "." + a.name for a in child.names] + [base]
            elif isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            found = {n.split(".")[1] for n in names if n.startswith("cobcalc.")}
            (local if inside else top).update(found & siblings)
            visit(child, inside or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(path.read_text()), False)
    return top, local


def layer_graph_problems():
    """Each module but `cli` that imports a sibling layer inside a function,
    and a cycle of the layers' imports, top-level and local alike; an empty
    list when there is neither."""
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    graph, problems = {}, []
    for name in sorted(siblings - {"cli"}):
        top, local = _sibling_imports(PACKAGE / (name + ".py"), siblings)
        if local:
            problems.append("%s imports %s inside a function" % (name, ", ".join(sorted(local))))
        graph[name] = top | local
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        problems.append("the layers import in a cycle: " + " -> ".join(exc.args[1]))
    return problems


def test_layers_import_at_top_level_without_a_cycle():
    problems = layer_graph_problems()
    assert [p for p in problems if "inside a function" in p] == []
    assert [p for p in problems if "cycle" in p] == []


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="check the import graph of the cobcalc layers")
    ap.add_argument("--check", action="store_true", help="check the layer graph, exit 1 on a problem")
    if not ap.parse_args().check:
        ap.error("nothing to do without --check")
    found = layer_graph_problems()
    for line in found:
        print(line)
    print("layer graph: %d problem(s)" % len(found))
    sys.exit(1 if found else 0)
