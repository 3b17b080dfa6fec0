"""Package layering: which module may import what, read from the source."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # at import time; sequences is imported inside the functions that
    # count builtins or compare with G, so a start that only counts
    # avoid ideals never runs it
    assert set(package_imports(SRC / "ideals.py", import_time_walk)) == {
        "core"}
    assert set(package_imports(SRC / "ideals.py")) == {"core", "sequences"}


def test_sequences_imports_no_package_module():
    assert package_imports(SRC / "sequences.py") == {}


def test_structure_imports_core_and_matrices():
    assert set(package_imports(SRC / "structure.py")) <= {"core", "matrices"}


def test_matrices_imports_only_core():
    assert set(package_imports(SRC / "matrices.py")) == {"core"}


def test_rng_imports_no_package_module():
    assert package_imports(SRC / "rng.py") == {}


def test_cli_loads_verify_on_first_use():
    # the cold-start claim: every layer, verify included, is imported in
    # the body of a verb that calls it, and none at import time
    assert {"core", "ideals", "sequences", "constructions", "structure",
            "verify"} <= set(package_imports(SRC / "cli.py"))
    assert package_imports(SRC / "cli.py", import_time_walk) == {}


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


def test_package_init_imports_no_layer():
    # the layers are registered lazily, never imported by __init__
    assert package_imports(SRC / "__init__.py") == {}


class TestPublicApi:
    """The package's names, resolved on access from the layers."""

    EXPORTS = {
        "core": (
            "AnyColoring", "Coloring", "ColoringPattern", "Edge",
            "IncompatibleColoringsError", "InvalidEdgeError", "all_edges",
            "coloring_from_text", "coloring_to_text", "contains",
            "edge_index", "edge_unindex", "homogeneity",
            "injection_witnesses", "relabel", "restrict_normalize",
            "reverse"),
        "matrices": (
            "DimensionMismatchError", "Fullness", "Match2", "Metrics2",
            "Metrics3", "PatternClass", "StarMatrix2", "StarMatrix3",
            "al_23d", "cross", "find_pattern2", "fullness", "layer",
            "matrix2_from_text", "matrix3_from_text", "metrics2",
            "metrics3", "pattern_variants"),
        "structure": (
            "NuclearDecomposition", "RichWitness", "SizeMismatchError",
            "TameReport", "WealthyVariant", "WealthyWitness",
            "WEALTHY_FAMILIES", "count_p_tame", "crossing_matrix",
            "is_c_simple", "is_p_tame", "is_r_rich", "is_wealthy",
            "nuclear_decomposition", "pair_wealthy_type2", "rich_deletions",
            "rich_window_edges", "wealthy_size", "wealthy_variants"),
        "constructions": (
            "Chain", "ChainEmbedding", "DisobedientResult", "SoutheastPath",
            "StringEmbedding", "chain_path", "chain_to_path", "embed_chain",
            "embed_string", "enumerate_chains", "enumerate_paths",
            "make_disobedient", "make_rich", "make_string_coloring",
            "make_wealthy", "path_to_chain", "slice_to_pair_coloring"),
        "ideals": (
            "BUILTIN_NAMES", "DichotomyVerdict", "GrowthRecord", "IdealSpec",
            "avoid_growth", "avoid_members", "builtin_count",
            "builtin_member", "builtin_members", "builtin_pattern_basis",
            "census_distinct", "dichotomy_verdict", "fnv1a64", "growth",
            "ideal_spec_from_text", "ideal_spec_to_text", "load_cache",
            "update_cache"),
        "sequences": (
            "sequence_F", "sequence_G", "sequence_Gk", "sequence_value"),
        "rng": ("Lcg",),
    }

    def test_all_lists_the_exported_names(self):
        want = [name for names in self.EXPORTS.values() for name in names]
        assert len(want) == len(set(want)) == 94
        assert sorted(hypergrowth.__all__) == sorted(want)

    def test_dir_covers_names_and_layers(self):
        assert set(hypergrowth.__all__) | set(self.EXPORTS) <= set(
            dir(hypergrowth))

    def test_each_name_is_its_layers_attribute(self):
        for layer, names in self.EXPORTS.items():
            module = importlib.import_module(f"hypergrowth.{layer}")
            assert getattr(hypergrowth, layer) is module
            assert module is sys.modules[f"hypergrowth.{layer}"]
            for name in names:
                assert getattr(hypergrowth, name) is getattr(module, name), (
                    layer, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hypergrowth.no_such_name
        assert not hasattr(hypergrowth, "verify_all")
        with pytest.raises(ImportError):
            from hypergrowth import no_such_name  # noqa: F401

    def run_python(self, code):
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)

    def test_reload_keeps_layers_and_a_dropped_layer_is_imported(self):
        code = ("import importlib, sys, hypergrowth\n"
                "core = sys.modules['hypergrowth.core']\n"
                "importlib.reload(hypergrowth)\n"
                "assert sys.modules['hypergrowth.core'] is core\n"
                "del sys.modules['hypergrowth.rng']\n"
                "print(hypergrowth.Lcg(0).next_u64())\n"
                "assert hypergrowth.rng is sys.modules['hypergrowth.rng']\n")
        res = self.run_python(code)
        assert (res.returncode, res.stdout) == (0, "1442695040888963407\n"), (
            res.stderr)

    def test_registered_layers_read_as_initialized(self):
        # an import statement that names a layer skips the module lock
        # when its spec says it is not initializing; the flag is read
        # past the lazy module's class, so no layer runs here
        code = ("import sys, hypergrowth\n"
                "for layer in hypergrowth._EXPORTS:\n"
                "    mod = sys.modules['hypergrowth.' + layer]\n"
                "    spec = object.__getattribute__(mod, '__spec__')\n"
                "    print(layer, spec._initializing, type(mod).__name__)\n")
        res = self.run_python(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "".join(f"{layer} False _LazyModule\n"
                                     for layer in self.EXPORTS)

    def test_star_import(self):
        code = ("from hypergrowth import *\n"
                "import hypergrowth\n"
                "names = hypergrowth.__all__\n"
                "assert all(globals()[n] is getattr(hypergrowth, n) "
                "for n in names)\n"
                "assert 'structure' not in globals()\n"
                "print(len(names))\n")
        res = self.run_python(code)
        assert (res.returncode, res.stdout) == (0, "94\n"), res.stderr
