"""Overlapping graph clustering via vertex splitting.

Covers by cliques, split sequences, reductions between the four problems,
a 3k+3 vertex kernel, exact desk-scale solvers, and a counterexample hunter
over all small graphs.  See the README for the problem statements and the
command-line interface.
"""

from .certificates import (
    CostBreakdown,
    EdgeAdd,
    EdgeDelete,
    InapplicableStep,
    ModificationSequence,
    NodeCliqueCover,
    NotACover,
    P3Packing,
    SigmaCliqueCover,
    VerifyReport,
    VertexSplit,
    cover_cost,
    cover_respects_critical_cliques,
    verify_cevs_cover,
    verify_modification_sequence,
    verify_node_cover,
    verify_p3_packing,
    verify_sigma_cover,
)
from .graph import (
    CriticalCliqueGraph,
    DuplicateVertex,
    ForeignNeighbor,
    Graph,
    GraphError,
    NeighborhoodNotCovered,
    Split,
    UnknownVertex,
    VertexId,
    apply_split,
    critical_clique_graph,
    is_cluster_graph,
)
from .hunter import (
    HuntReport,
    NotASweepPrefix,
    canonical_form,
    enumerate_graphs,
    graph_from_canonical,
    hunt,
    hunt_graph,
)
from .kernel import (
    IsolateRemoval,
    KernelTrace,
    RuleIStep,
    RuleIIStep,
    kernelize,
    rule1_applicable,
)
from .reductions import (
    BudgetUnderflow,
    Instance,
    InvalidCertificate,
    NotAClusterGraphAfter,
    Problem,
    ReductionTrace,
    convert_cvs_scc,
    convert_scc_cvs,
    cover_to_modifications,
    cover_to_splits,
    reduce_cvs_to_cevs,
    reduce_ncc_to_scc,
    splits_to_cover,
    translate_ncc_cert_to_scc,
    translate_scc_cert_to_ncc,
    universal_names,
)
from .solvers import (
    SizeLimitExceeded,
    cevs_search,
    max_p3_packing,
    solve_cevs_exact,
    solve_cvs_exact,
    solve_ncc_exact,
    solve_scc_exact,
)

__version__ = "0.1.0"
