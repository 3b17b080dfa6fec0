"""Growth of downward-closed classes of edge-colored ordered hypergraphs.

Importing the package runs no layer.  It registers each layer (core,
ideals, sequences, matrices, structure, constructions, rng) in
sys.modules through importlib.util.LazyLoader, and a layer's body runs
on the first access to one of its attributes: a start runs only the
layers its verb calls (sequence runs sequences alone, growth of an
avoid ideal runs core and ideals) and never compiles the others.  The
public names listed in __all__, and the layer names themselves, resolve
on access through the module __getattr__, which reads the layer from
sys.modules each time.  A layer reached by name (hypergrowth.ideals) is
run at that access, while sys.modules still holds the layers that its
body imports.  Nothing here binds a layer at import time: a registered
layer whose sys.modules entry has been replaced by the time of its
first access raises ValueError (a check of LazyLoader's), and a binding
would keep such a stale layer in reach.

Python 3.11's LazyLoader takes no lock on a layer's first access, so two
threads that touch the same unloaded layer at once can race: the second
may read the layer before its body has run.  The library starts no
threads; a program that does can touch the layers it uses first.
"""

import importlib.util as _util
import sys as _sys
from importlib import import_module as _import_module

_EXPORTS = {
    "core": (
        "AnyColoring", "Coloring", "ColoringPattern", "Edge",
        "IncompatibleColoringsError", "InvalidEdgeError", "all_edges",
        "coloring_from_text", "coloring_to_text", "contains", "edge_index",
        "edge_unindex", "homogeneity", "injection_witnesses", "relabel",
        "restrict_normalize", "reverse"),
    "matrices": (
        "DimensionMismatchError", "Fullness", "Match2", "Metrics2",
        "Metrics3", "PatternClass", "StarMatrix2", "StarMatrix3", "al_23d",
        "cross", "find_pattern2", "fullness", "layer", "matrix2_from_text",
        "matrix3_from_text", "metrics2", "metrics3", "pattern_variants"),
    "structure": (
        "NuclearDecomposition", "RichWitness", "SizeMismatchError",
        "TameReport", "WealthyVariant", "WealthyWitness", "WEALTHY_FAMILIES",
        "count_p_tame", "crossing_matrix", "is_c_simple", "is_p_tame",
        "is_r_rich", "is_wealthy", "nuclear_decomposition",
        "pair_wealthy_type2", "rich_deletions", "rich_window_edges",
        "wealthy_size", "wealthy_variants"),
    "constructions": (
        "Chain", "ChainEmbedding", "DisobedientResult", "SoutheastPath",
        "StringEmbedding", "chain_path", "chain_to_path", "embed_chain",
        "embed_string", "enumerate_chains", "enumerate_paths",
        "make_disobedient", "make_rich", "make_string_coloring",
        "make_wealthy", "path_to_chain", "slice_to_pair_coloring"),
    "ideals": (
        "BUILTIN_NAMES", "DichotomyVerdict", "GrowthRecord", "IdealSpec",
        "avoid_growth", "avoid_members", "builtin_count", "builtin_member",
        "builtin_members", "builtin_pattern_basis", "census_distinct",
        "dichotomy_verdict", "fnv1a64", "growth", "ideal_spec_from_text",
        "ideal_spec_to_text", "load_cache", "update_cache"),
    "sequences": ("sequence_F", "sequence_G", "sequence_Gk",
                  "sequence_value"),
    "rng": ("Lcg",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"

# name -> layer that defines it; a layer name maps to itself
_HOME = {layer: layer for layer in _EXPORTS}
_HOME.update((name, layer) for layer, names in _EXPORTS.items()
             for name in names)


def _register(layer: str) -> None:
    name = f"{__name__}.{layer}"
    if name in _sys.modules:  # a reload of the package keeps its layers
        return
    spec = _util.find_spec(name)
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    # what the import system sets on a spec once its module has run; the
    # lazy path never sets it, and without it every import statement that
    # names the layer looks the flag up, fails and swallows the error
    spec._initializing = False
    _sys.modules[name] = module
    spec.loader.exec_module(module)


for _layer in _EXPORTS:
    _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _sys.modules.get(f"{__name__}.{layer}")
    if module is None:  # taken out of sys.modules: import it anew
        module = _import_module(f"{__name__}.{layer}")
    if name != layer:
        return getattr(module, name)
    # run the layer now, while sys.modules holds the layers it imports
    module.__name__
    return module


def __dir__():
    return sorted({*globals(), *_HOME})
