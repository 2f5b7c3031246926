"""Binary de Bruijn sequence construction via Zech logarithms.

Cycle joining on LFSR cycle structures, exact conjugate-pair location,
spanning-tree counting and certification, cross-join pairing, and the
product-of-irreducibles extension, with a CLI on top.
"""

from .conjugacy import conjugate_of, cyclotomic_numbers
from .crossjoin import (
    CrossJoinPair,
    apply_crossjoin,
    crossjoin_bfs,
    enumerate_crossjoin_pairs,
    feedback_of_debruijn,
    fryers_coefficient,
    fryers_coefficients,
    fryers_total,
    random_crossjoin,
)
from .cycles import (
    CycleCtx,
    CyclePos,
    cycle_position,
    exponent_to_state,
    find_associated_primitive,
    state_to_exponent,
)
from .gf2poly import (
    associated_irreducible,
    insert_zero,
    is_debruijn,
    is_irreducible,
    is_primitive,
    lfsr_bits,
    lfsr_state_at,
    poly_from_set_notation,
    poly_to_set_notation,
    seq_from_hex,
    seq_to_hex,
)
from .graph import (
    AdjSubgraph,
    SpanningTree,
    TreeCert,
    build_subgraph,
    certify_almost_star,
    certify_star,
    connected_subgraph,
    count_spanning_trees,
    deterministic_spanning_tree,
    export_dot,
    sample_spanning_tree,
)
from .joining import (
    Anf,
    NlfsrFeedback,
    ProductCtx,
    ProductCycleLabel,
    anf_bits,
    anf_stream,
    generate_debruijn,
    join_feedback,
    pair_product,
    patched_lfsr_bits,
    product_conjugate,
    product_cycle_of,
    product_cycle_structure,
    tree_feedback,
)
from .zech import (
    CorruptTableError,
    MissingEntryError,
    ResourceCapError,
    ZechTable,
    build_zech_table,
    chain_sweep,
    coset_leader,
    zech_bruteforce,
    zech_chain,
    zech_closure,
    zech_seed_trinomial,
    zech_subfield_lift,
)

__version__ = "0.1.0"
