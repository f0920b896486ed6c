"""Spectral analysis of signed graphs.

Core object: :class:`SignedGraph`, a simple graph with +1/-1 edge signs.
On top of it: switching and balance, negative-cycle detection, LAPACK's
symmetric eigensolver checked against exact integer characteristic
polynomials, generators for the extremal families, index-increasing
perturbation moves, and an exhaustive census that verifies the extremal
characterization at small orders.
"""

from .core import SignedGraph, SgFormatError, complete_signed, new_graph
from .cycles import (
    CycleWitness,
    cycle_sign,
    double_cover,
    find_negative_ck,
    is_ck_negative_free,
    shortest_negative_cycle,
)
from .enumeration import (
    CensusReport,
    GraphListError,
    decode_graph6,
    encode_graph6,
    enumerate_underlying,
    has_c4,
    ingest_graph_list,
    switching_classes,
    verify_c4free_bounds,
    verify_max_index,
)
from .families import (
    FamilySpec,
    extremal_cubic,
    extremal_graph,
    extremal_index_root,
    extremal_partition,
    extremal_quotient_matrix,
    near_extremal_cubic,
    near_extremal_graph,
    near_extremal_partition,
    near_extremal_quotient_matrix,
)
from .polynomial import (
    IntPolynomial,
    largest_real_root,
    real_roots,
    root_multiplicity_exact,
)
from .proofmoves import (
    AscentResult,
    ConstraintViolation,
    Move,
    MoveCertificate,
    MoveKind,
    apply_move,
    candidate_moves,
    greedy_ascent,
    random_unbalanced_c4free,
)
from .spectra import (
    QuotientResult,
    SpectrumReport,
    VertexPartition,
    c4free_bound_check,
    char_poly_exact,
    char_poly_of_int_matrix,
    check_quotient_containment,
    eigenvalues_sym,
    index,
    nonneg_eigenvector_form,
    quotient_matrix,
    rayleigh,
    spectral_radius,
)
from .switching import (
    BalanceResult,
    NormalForm,
    forest_normal_form,
    is_balanced,
    switch,
    switching_equivalent,
    switching_isomorphic,
)

__version__ = "0.1.0"
