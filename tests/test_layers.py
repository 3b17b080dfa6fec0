"""Package layering: which module may import what, read from the source."""

import ast
from pathlib import Path

import hypergrowth
from hypergrowth import constructions, ideals, structure

SRC = Path(hypergrowth.__file__).parent


def package_imports(path, walk=ast.walk):
    """{package module: names imported from it} over every import of the
    file that walk reaches; ast.walk reaches those inside function bodies."""
    out = {}
    for node in walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.level == 1 and node.module is None:  # from . import x
                for name in names:
                    out.setdefault(name, set())
            elif node.level == 1:
                out.setdefault(node.module, set()).update(names)
            elif (node.module or "").startswith("hypergrowth."):
                out.setdefault(node.module.split(".")[1], set()).update(names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("hypergrowth."):
                    out.setdefault(a.name.split(".")[1], set())
    return out


def import_time_walk(tree):
    """ast.walk that does not enter function bodies: the nodes that run
    when the module is imported."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(n for n in ast.iter_child_nodes(node) if not isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_ideals_imports_only_core():
    assert set(package_imports(SRC / "ideals.py")) == {"core"}


def test_structure_imports_core_and_matrices():
    assert set(package_imports(SRC / "structure.py")) <= {"core", "matrices"}


def test_matrices_imports_only_core():
    assert set(package_imports(SRC / "matrices.py")) == {"core"}


def test_rng_imports_no_package_module():
    assert package_imports(SRC / "rng.py") == {}


def test_cli_loads_verify_on_first_use():
    # the cold-start claim: verify is imported in a function body only
    assert "verify" in package_imports(SRC / "cli.py")
    assert set(package_imports(SRC / "cli.py", import_time_walk)) == {
        "constructions", "core", "ideals", "structure"}


def test_no_private_names_from_constructions_or_matrices():
    for path in SRC.glob("*.py"):
        for module in ("constructions", "matrices"):
            taken = package_imports(path).get(module, set())
            assert not [n for n in taken if n.startswith("_")], (path.name, module)


def test_no_private_names_from_structure():
    for path in SRC.glob("*.py"):
        taken = package_imports(path).get("structure", set())
        assert not [name for name in taken if name.startswith("_")], path.name


def test_moved_names_live_in_structure():
    assert hypergrowth.count_p_tame is structure.count_p_tame
    assert hypergrowth.pair_wealthy_type2 is structure.pair_wealthy_type2
    assert not hasattr(ideals, "count_p_tame")
    assert not hasattr(constructions, "pair_wealthy_type2")
