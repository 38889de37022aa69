"""Exact and heuristic perfect tournament packings in digraphs.

Bitmask digraphs and tournaments, extremal host constructions, an exact
branch-and-bound packing solver, a local-search transitive-triangle packer,
density and independence dichotomies, copy complexes with matching-threshold
checks, absorbing families, matching lemmas with certificates, a staged
extremal cyclic-triangle packer, and threshold-verification sweeps with a
CLI front end (`tpack`).
"""

from .core import (
    Digraph,
    DomainError,
    Embedding,
    FLOAT_SLACK,
    Graph,
    InvariantViolation,
    Tournament,
    all_tournaments,
    at_least,
    bits,
    canonical_tournament_key,
    ceil_frac,
    copy_masks,
    digraph_to_text,
    k3_minus_pattern,
    load_digraph,
    load_digraph_text,
    mask_of,
    min_semidegree,
    parse_tournament_name,
    spans_copy,
    total_min_degree,
)
from .constructions import (
    BlowupPartition,
    ContainmentWitness,
    alpha_contains_c3_blowup,
    blowup_deficit,
    make_c3_blowup,
    make_k3minus_example,
    make_near_independent_extremal,
    make_near_tournament_extremal,
    make_source_counterexample,
    random_digraph_min_semidegree,
    random_digraph_out_or_in,
    random_digraph_total_min_degree,
    random_tournament,
)
from .solver import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EXHAUSTED_NONE,
    MaxPackingResult,
    Obstruction,
    PACKED,
    PackCertificate,
    Packing,
    find_max_packing,
    find_perfect_family_packing,
    find_perfect_packing,
    max_disjoint_sets,
    normalize_patterns,
    validate_obstruction,
    verify_packing,
)
from .t3local import (
    SwapNotFound,
    SwapStep,
    SwapTrace,
    minimize_arcs_two_thirds,
    satisfies_out_or_in,
    swap_c3,
    t3_pack,
    two_thirds_threshold,
)
from .turan import (
    CandidateSets,
    ConsistentResult,
    ConsistentTransitive,
    TuranResult,
    consistent_or_independent,
    count_copies,
    density_precondition_holds,
    find_kr_from_density,
    independent_or_copy,
)
from .complexes import (
    Complex,
    build_complex,
    check_matching_threshold,
    degree_sequence,
    is_downward_closed,
    matching_to_packing,
    packing_to_matching,
    restricted_deficit,
    subtournaments_by_size,
    top_layer_matching,
)
from .absorbing import (
    AbsorberFamily,
    AssignmentFailed,
    ConnectorCount,
    FamilyEmpty,
    absorb,
    build_absorbing_family,
    count_connectors,
    count_connectors_2c3,
    estimate_connector_density,
    is_absorbing,
    spans_two_cycles,
)
from .structure import (
    ClosePartition,
    IndependentSetCertificate,
    PerfectMatching,
    StageFailed,
    VertexClassification,
    classify_vertices,
    d_matching_covering,
    d_matching_covering_digraph,
    extremal_c3_pack,
    matching_or_certificate,
    matching_or_certificate_digraph,
    validate_match_certificate,
)
from .harness import (
    Counterexample,
    SweepReport,
    TightnessEntry,
    TightnessReport,
    iter_min_semidegree_hosts,
    iter_out_or_in_hosts,
    replay_counterexample,
    sweep_out_or_in,
    sweep_semidegree,
    sweep_total_degree_c3,
    sweep_total_degree_kr,
    tightness_suite,
)

__version__ = "0.1.0"
