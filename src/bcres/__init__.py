"""Exact computational toolkit for broken-circuit complexes, Stanley-Reisner
ideals, graded Betti tables, Hilbert data and uniform decompositions of
matroids, hyperplane arrangements and graphs."""

__version__ = "0.1.0"

from .arrangements import (
    Arrangement,
    cone_arrangement,
    detect_product,
    koszul_report,
    os_ot_generators,
)
from .complexes import (
    SimplicialComplex,
    bc_complex,
    f_h_vectors,
    independence_complex,
    induced_subcomplex,
    reduced_homology_ranks,
)
from .decomposition import (
    Stratification,
    cross_validate,
    extremal_h_check,
    fvector_bound_check,
    generalized_bound_check,
    stratify,
    two_term_decomposition,
)
from .graphs import Graph, build_gnr, cycle_matroid, gnr_report
from .hilbert import (
    HilbertData,
    binomial_form_fit,
    h_binomial_fit,
    hilbert_function,
    linear_value_criterion,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    broken_circuit_ideal,
    colon_ideal,
    complete_intersection_check,
    complex_of_ideal,
    component_ideal,
    facet_ideal,
    polarize,
    power_ideal,
    quotients_analysis,
    stanley_reisner_ideal,
)
from .matroid import (
    Matroid,
    TuttePolynomial,
    build_matroid,
    circuit_matroid,
    direct_sum,
    graphic_matroid,
    linear_matroid,
    uniform_matroid,
)
from .resolutions import (
    BettiTable,
    LinearityVerdict,
    betti_hochster,
    betti_table,
    betti_taylor_oracle,
    classify_linearity,
    componentwise_linear_check,
    linearity_verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
