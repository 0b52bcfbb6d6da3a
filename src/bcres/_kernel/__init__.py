"""Exact kernels: dense elimination and ranks, simplicial homology and the Hochster summation."""

from .pykernel import (
    BACKEND,
    echelon_residue,
    hochster_betti,
    homology_ranks,
    rank_int,
    rank_mod_p,
    rank_sparse,
)
