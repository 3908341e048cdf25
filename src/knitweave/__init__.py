"""knitweave: exact, certificate-producing solvers for linkages, knitted
subgraphs, separations, and contraction-criticality on small dense graphs."""

from .errors import (
    Graph6Error,
    InputError,
    KnitweaveError,
    PreconditionError,
    ResourceError,
)
from .graphs import (
    Graph,
    MinorWitness,
    bits,
    canonical_form,
    contraction_quotients,
    independence_number,
    induced,
    mask_of,
    max_clique,
    neighbors_closed,
    nonisomorphic_graphs,
    rho,
    set_of,
)
from .solver import (
    Configuration,
    Knit,
    Linkage,
    PlanarObstruction,
    TerminalSpec,
    build_configuration,
    disjoint_paths,
    is_k_linked,
    is_profile_knitted,
    knit,
    pairs_spec,
    s_value,
    two_pair_obstruction,
)
from .structure import (
    MassedReport,
    MinimizeResult,
    Separation,
    enumerate_separations,
    is_p_massed,
    is_rigid,
    minimize_pair,
    pair_is_knitted,
)
from .coloring import (
    Coloring,
    chromatic_number,
    dirac_neighborhood_check,
    is_contraction_critical,
)
from .certify import (
    DenseNeighborhoodReport,
    GreedyLinkResult,
    Knitted1Verdict,
    common_neighbor_certificate,
    dense_conditions,
    easy_connectivity_threshold,
    find_dense_neighborhood,
    greedy_link,
    knitted1_check,
    mader_threshold,
    main_theorem_table,
)
from .formats import certificate_from_json, certificate_to_json
from .formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6

__version__ = "0.1.0"
