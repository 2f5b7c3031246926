import types

import zechbruijn

# every public name of the package; a new export is a change to this list
PUBLIC_NAMES = [
    "AdjSubgraph", "Anf", "CorruptTableError", "CrossJoinPair",
    "CycleCtx", "CyclePos", "MissingEntryError", "NlfsrFeedback", "ProductCtx",
    "ProductCycleLabel", "ResourceCapError", "SpanningTree", "TreeCert", "ZechTable",
    "anf_bits", "anf_stream", "apply_crossjoin", "associated_irreducible",
    "build_subgraph", "build_zech_table", "certify_almost_star", "certify_star",
    "chain_sweep", "conjugate_of", "connected_subgraph", "coset_leader",
    "count_spanning_trees", "crossjoin_bfs", "cycle_position", "cyclotomic_numbers",
    "deterministic_spanning_tree", "enumerate_crossjoin_pairs", "exponent_to_state",
    "export_dot", "feedback_of_debruijn", "find_associated_primitive",
    "fryers_coefficient", "fryers_coefficients", "fryers_total", "generate_debruijn",
    "insert_zero", "is_debruijn", "is_irreducible", "is_primitive", "join_feedback",
    "lfsr_bits", "lfsr_state_at", "pair_product",
    "patched_lfsr_bits", "poly_from_set_notation", "poly_to_set_notation",
    "product_conjugate", "product_cycle_of", "product_cycle_structure",
    "random_crossjoin", "sample_spanning_tree", "seq_from_hex", "seq_to_hex",
    "state_to_exponent", "tree_feedback", "zech_bruteforce", "zech_chain",
    "zech_closure", "zech_seed_trinomial", "zech_subfield_lift",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(zechbruijn).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
