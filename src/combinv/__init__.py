"""Exact combinatorial matrix families with local-identity verification."""

from .core import (
    Composition,
    Filling,
    Partition,
    compositions,
    last_part_sum,
    multiplicity,
    multiset_diff,
    partitions,
    sort_comp,
)
from .framework import (
    IndexedMatrix,
    LocalSystem,
    Pairing,
    build_A,
    build_B,
    local_terms,
    verify,
    verify_inversion,
    verify_local,
)
from .kostka import enumerate_ssyt, kostka_pair, kostka_system, srht_find
from .rimhook import (
    Abacus,
    Permutation,
    abacus_from_partition,
    abacus_move_bead,
    cyc_comp,
    cyc_part,
    enumerate_rht,
    rimhook_pair,
    rimhook_system,
)
from .refine import cbt_find, refine_system, weighted_system
from .brick import enumerate_obt, obt_system
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
