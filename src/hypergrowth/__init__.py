"""Growth of downward-closed classes of edge-colored ordered hypergraphs."""

from .core import (AnyColoring, Coloring, ColoringPattern, Edge,
                   IncompatibleColoringsError, InvalidEdgeError, all_edges,
                   coloring_from_text, coloring_to_text, contains,
                   edge_index, edge_unindex, homogeneity,
                   injection_witnesses, relabel, restrict_normalize, reverse)
from .matrices import (DimensionMismatchError, Fullness, Match2, Metrics2,
                       Metrics3, PatternClass, StarMatrix2, StarMatrix3,
                       al_23d, cross, find_pattern2, fullness, layer,
                       matrix2_from_text, matrix3_from_text, metrics2,
                       metrics3, pattern_variants)
from .structure import (NuclearDecomposition, RichWitness, SizeMismatchError,
                        TameReport, WealthyVariant, WealthyWitness,
                        WEALTHY_FAMILIES, count_p_tame, crossing_matrix,
                        is_c_simple, is_p_tame, is_r_rich, is_wealthy,
                        nuclear_decomposition, pair_wealthy_type2,
                        rich_deletions, rich_window_edges, wealthy_size,
                        wealthy_variants)
from .constructions import (Chain, ChainEmbedding, DisobedientResult,
                            SoutheastPath, StringEmbedding, chain_path,
                            chain_to_path, embed_chain, embed_string,
                            enumerate_chains, enumerate_paths,
                            make_disobedient, make_rich, make_string_coloring,
                            make_wealthy, path_to_chain,
                            slice_to_pair_coloring)
from .ideals import (BUILTIN_NAMES, DichotomyVerdict, GrowthRecord, IdealSpec,
                     avoid_growth, avoid_members, builtin_count,
                     builtin_member, builtin_members, builtin_pattern_basis,
                     census_distinct, dichotomy_verdict,
                     fnv1a64, growth, ideal_spec_from_text,
                     ideal_spec_to_text, load_cache, sequence_F, sequence_G,
                     sequence_Gk, sequence_value, update_cache)
from .rng import Lcg

__version__ = "0.1.0"
