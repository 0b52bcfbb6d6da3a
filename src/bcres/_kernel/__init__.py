"""Exact kernels: matrix ranks, simplicial homology and the Hochster summation."""

from .pykernel import (
    BACKEND,
    hochster_betti,
    homology_ranks,
    rank_int,
    rank_mod_p,
    rank_sparse,
)
