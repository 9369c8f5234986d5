"""Exact combinatorial matrix families with local-identity verification."""

from .core import (
    Composition,
    Filling,
    Partition,
    compositions,
    centralizer_order,
    last_part_sum,
    multiplicity,
    multiset_diff,
    multiset_intersect,
    multiset_union,
    partial_sum_product,
    partitions,
    sort_comp,
)
from .framework import (
    IndexedMatrix,
    LocalSystem,
    Pairing,
    build_A,
    build_B,
    check_sorting_condition,
    local_lhs,
    local_terms,
    square_fold_B,
    square_restrict_A,
    verify_inversion,
    verify_local,
)
from .kostka import enumerate_ssyt, kostka_pair, kostka_system, srht_find
from .rimhook import (
    Abacus,
    Permutation,
    abacus_from_partition,
    abacus_move_bead,
    count_by_cyc_comp,
    cyc_comp,
    cyc_part,
    enumerate_rht,
    rimhook_pair,
    rimhook_system,
)
from .refine import (
    cbt_find,
    refine_system,
    refines,
    self_inverse_matrix,
    weighted_factors,
    weighted_system,
)
from .brick import brick_B_closed, brick_local_g, enumerate_obt, obt_system, w_of
from .involutions import (
    KostkaPair,
    RhtTriple,
    f_lambda,
    f_lambda_inv,
    f_mu_rho,
    f_mu_rho_inv,
    kostka_involution,
    kostka_survivor,
    rht_involution,
    verify_pairing,
)

__version__ = "0.1.0"
