"""Source-level guards: where the library enumerates permutations and
refuses large ground sets, what it imports, where the lane kernel lives,
which side the loop kernels compute and where the CLI maps errors."""

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import chainrep

SRC = Path(chainrep.__file__).parent
SWEEPS = {"permutations", "all_chains"}


def sweep_sites() -> set[tuple[str, str]]:
    """(file, enclosing function) of every use of a permutation enumerator."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in SWEEPS:
                sites.add((path.name, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "<module>")
    return sites


def test_literal_sweeps_only_where_the_sweep_is_the_statement():
    # Route (b) of the four-way report; every other chain optimum goes
    # through the lattice-path DP, and the chain enumerator is a test oracle.
    assert sweep_sites() == {("represent.py", "_extremal_measures_in_core")}


def test_each_size_limit_is_checked_in_the_loop_it_bounds():
    # Route (b)'s m! sweep and the 3^m table of chain_opt_all each refuse a
    # ground set above their own limit, defined next to them; the 2^m path
    # DP and every caller of these kernels check no size. The package root
    # re-exports SWEEP_LIMIT, naming it as a string in its lazy export table.
    gates, raisers, limits, defined = [], set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_require_size"):
                gates.append((path.name, scope))
            if (isinstance(node, ast.Raise) and node.exc is not None
                    and "GroundSetTooLarge" in ast.unparse(node.exc)):
                raisers.add((path.name, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "<module>")
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    and path.name == "__init__.py" else None)
            if name in {"SWEEP_LIMIT", "TABLE_LIMIT", "require_sweepable"}:
                limits.add((path.name, name))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    defined.add((path.name, name))
    assert sorted(gates) == [("chains.py", "chain_opt_all"),
                             ("represent.py", "_extremal_measures_in_core")]
    assert raisers == {("chains.py", "_require_size")}
    assert defined == {("chains.py", "TABLE_LIMIT"), ("represent.py", "SWEEP_LIMIT")}
    assert limits == {
        ("chains.py", "TABLE_LIMIT"), ("represent.py", "SWEEP_LIMIT"),
        ("cli.py", "SWEEP_LIMIT"), ("__init__.py", "SWEEP_LIMIT"),
    }


def test_package_root_exports_no_module():
    # ``from chainrep import *`` binds the public names, not the submodules.
    modules = [n for n in chainrep.__all__ if isinstance(getattr(chainrep, n), ModuleType)]
    assert modules == []
    assert "SWEEP_LIMIT" in chainrep.__all__ and "all_chains" not in dir(chainrep)


def test_package_root_keeps_choquet_the_function():
    # Only the import system's binding of the submodule is dropped.
    with pytest.raises(AttributeError, match="cannot rebind chainrep.choquet"):
        chainrep.choquet = len
    assert chainrep.choquet is sys.modules["chainrep.choquet"].choquet


def test_library_imports_only_the_standard_library():
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, n) for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


def test_no_runtime_dependencies():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_lane_kernel_defined_once_in_setfn_and_private():
    # bench/spans.py puts a span on every public function, and the lane
    # helpers run once per chain, so a public one would swamp a traced run.
    lanes = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and "lane" in node.name.lower()]
    assert lanes and {f for f, _ in lanes} == {"setfn.py"}
    assert all(n.startswith("_") for _, n in lanes)
    assert len({n for _, n in lanes}) == len(lanes)
    packing = {path.name for path in SRC.glob("*.py")
               if re.search(r"\b(from|to)_bytes\b", path.read_text())}
    assert packing == {"setfn.py"}


def test_lane_tests_take_no_negative_operand():
    # A negative operand of & is converted to two's complement first, one
    # more pass over every lane, so _Lanes.first_clear compares x & mask
    # with mask rather than reading mask & ~x.
    tree = ast.parse((SRC / "setfn.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)] == []


def test_cli_maps_exceptions_to_exit_codes_only_in_main():
    # run_command owns load, emit and persist, and main the one
    # exception-to-exit map; a command only computes and renders.
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def stderr_uses(root):
        return sum(isinstance(node, ast.Attribute) and node.attr == "stderr"
                   for node in ast.walk(root))
    assert stderr_uses(tree) == stderr_uses(functions["main"]) > 0
    commands = {name: fn for name, fn in functions.items() if name.startswith("cmd_")}
    assert len(commands) == 7
    handlers = sorted(
        (name, ast.unparse(handler.type))
        for name, fn in commands.items()
        for node in ast.walk(fn) if isinstance(node, ast.Try)
        for handler in node.handlers
    )
    assert handlers == []
    pipeline = {"_load_document", "parse_set_function_document",
                "parse_weighted_space_document", "_emit", "_persist"}
    called = {(name, node.func.id) for name, fn in commands.items()
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in pipeline}
    assert called == set()


def test_set_function_image_is_read_not_rebuilt():
    # A set function carries its integer image; rebuilding it from the
    # Fraction values outside setfn.py would materialise them for nothing.
    rebuilt = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "setfn.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "int_image" and any(
                isinstance(arg, ast.Attribute) and arg.attr == "values" for arg in node.args
            ):
                rebuilt.append((path.name, node.lineno))
    assert rebuilt == []


def test_lawinv_loops_read_the_integer_image():
    # Every law-invariant integral is a bisect on a distribution's integer
    # image. A level mask, a Fraction mass, a layer decomposition, a rebuilt
    # survival segment list or a Fraction survival integral per loop
    # iteration is the Fraction layer route that the image replaced.
    per_iteration = {"layer_decompose", "level_mask", "mass", "survival_segments",
                     "_survival_min_integral"}
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    tree = ast.parse((SRC / "lawinv.py").read_text())
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{node.name}", node)
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert len(functions) > 30
    sites = set()
    for name, fn in functions:
        for loop in ast.walk(fn):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in per_iteration:
                        sites.add((name, called))
    assert sites == set()


# The loop kernels compute the submodular, maximum and lower-core side only;
# each mirror negates the integer image at its public edge.
ONE_SIDED_KERNELS = {
    ("setfn.py", "_exchange_violation"), ("setfn.py", "_Lanes"),
    ("setfn.py", "_CoreLanes"), ("chains.py", "chain_opt_path"),
    ("chains.py", "chain_opt_all"), ("chains.py", "chain_opt"),
    ("represent.py", "_extremal_measures_in_core"),
    ("represent.py", "_sup_matches_everywhere"),
    ("represent.py", "_local_candidates_in_core"),
}
SIDES = {"lower", "maximize", "submodular"}


def test_kernels_take_no_side():
    found, sided = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and (path.name, node.name) in ONE_SIDED_KERNELS):
                found.add((path.name, node.name))
                names = {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)}
                names |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                sided |= {(path.name, node.name, s) for s in names & SIDES}
    assert found == ONE_SIDED_KERNELS
    assert sided == set()


def test_lanes_work_out_their_own_bounds():
    # _Lanes(ints) packs the range of ints; _CoreLanes(caps, total) the
    # range of the caps and the total its weight vectors sum to.
    arity = {"_Lanes": 1, "_CoreLanes": 2}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in arity):
                calls.append((path.name, node.func.id, len(node.args), len(node.keywords)))
    assert {name for _, name, _, _ in calls} == set(arity)
    assert [c for c in calls if (c[2], c[3]) != (arity[c[1]], 0)] == []


def test_step_distribution_reads_its_image_not_its_fractions():
    # Survival and quantile pieces are read off the integer image. A loop
    # over the Fraction breakpoints or levels outside the checks of
    # __post_init__ is a second copy of what the image already holds.
    tree = ast.parse((SRC / "lawinv.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "StepDistribution")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert {"__post_init__", "survival_segments", "quantile_segments"} <= set(methods)
    loops = set()
    for name, method in methods.items():
        for node in ast.walk(method):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            loops |= {(name, sub.attr) for sub in ast.walk(node.iter)
                      if isinstance(sub, ast.Attribute) and sub.attr in {"breakpoints", "levels"}
                      and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
    assert {(name, attr) for name, attr in loops if name != "__post_init__"} == set()


def test_integrand_ground_is_checked_where_the_image_is_built():
    # _function_image refuses an integrand on another ground set for every
    # integral built on f's image. rearrangement_sup reads f's values
    # directly, and comonotone_attainment refuses before its own hypothesis
    # checks, so each keeps its own copy.
    tree = ast.parse((SRC / "lawinv.py").read_text())
    raising = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               for sub in ast.walk(node)
               if isinstance(sub, ast.Constant)
               and sub.value == "integrand lives on a different ground set"}
    assert raising == {"_function_image", "rearrangement_sup", "comonotone_attainment"}


def test_each_command_declares_its_input_once():
    # build_parser gives every command that reads a document its file and
    # its load function; run_command branches on no command but repro-table,
    # which reads none, and calls no document parser by name.
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = {node.args[0].value for node in ast.walk(functions["build_parser"])
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_parser"}
    assert len(commands) == 7
    run = functions["run_command"]
    assert {node.value for node in ast.walk(run)
            if isinstance(node, ast.Constant) and node.value in commands} == {"repro-table"}
    assert {node.id for node in ast.walk(run) if isinstance(node, ast.Name)
            and node.id.startswith("parse_")} == set()
    files = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "add_argument"
             and [ast.unparse(arg) for arg in node.args] == ["'file'"]]
    assert len(files) == 1
