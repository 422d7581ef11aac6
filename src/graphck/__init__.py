"""Exact K-theory of (Toeplitz) graph algebras and partial-isometry labs."""

from .abelian import (
    ColumnLattice,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    format_group,
    hom_compose,
    kernel_basis,
    parse_group_expr,
    smith_normal_form,
)
from .graphs import (
    FiniteGraph,
    GraphChain,
    GraphFormatError,
    check_condition_a,
    check_condition_b2,
    dump_graph,
    every_cycle_has_exit,
    graph_from_json_dict,
    is_cycle,
    is_irreducible,
    load_graph,
)
from .ktheory import (
    ChainKTheory,
    KTheoryResult,
    boundary_map,
    chain_ktheory_report,
    inclusion_k0,
    les_check,
    relation_matrix,
)
from .synthesis import (
    SynthesisRequest,
    SynthesisResult,
    build_case_i,
    build_case_ii,
    build_case_iii,
    synthesize,
)

__version__ = "0.1.0"

# the numeric lab, and numpy with it, loads on first use of one of its names
_LAB_NAMES = (
    "DefectReport", "LabError", "MatField", "condition_o_residuals",
    "lemma36_w", "partial_isometry_defect", "straighten", "straighten_family",
)


def __getattr__(name: str):
    if name in _LAB_NAMES:
        from . import lab
        return getattr(lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
