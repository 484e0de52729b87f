"""Source-level guards on where the library enumerates permutations."""

import ast
from pathlib import Path

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
    # Route (b) of the four-way report and the public enumerator itself;
    # every other chain optimum goes through the lattice-path DP.
    assert sweep_sites() == {
        ("chains.py", "all_chains"),
        ("represent.py", "_extremal_measures_in_core"),
    }
