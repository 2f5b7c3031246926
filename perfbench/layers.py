"""The per-layer metrics and the wrappers that measure them.

A layer is a package module. Its time is the self time of the spans
around the public names the jobs call: the names `zechbruijn.cli`
imports, the `resolve` and `dump` methods of each table those calls
return or receive, `NlfsrFeedback.to_anf`, `Anf.__str__`, and the
benchmark's own library calls.
"""

import os
import types

from zechbruijn import cli, conjugacy, crossjoin, cycles, graph, joining, zech

from spans import Patches, traced, traced_generator

# span name -> self-time metric of its layer
TIME_METRICS = {
    "cli.main": "cli.self_s",
    "seq_to_hex": "gf2poly.hex_encode_s",
    "connected_subgraph": "graph.subgraph_s",
    "count_spanning_trees": "graph.tree_count_s",
    "deterministic_spanning_tree": "graph.tree_select_s",
    "certify_star": "graph.certify_s",
    "certify_almost_star": "graph.certify_s",
    "build_zech_table": "zech.build_s",
    "ZechTable.resolve": "zech.resolve_s",
    "ZechTable.dump": "zech.dump_s",
    "ZechTable.load": "zech.load_s",
    "tree_feedback": "joining.feedback_s",
    "generate_debruijn": "joining.generate_s",
    "NlfsrFeedback.to_anf": "joining.anf_expand_s",
    "Anf.__str__": "joining.anf_format_s",
    "random_crossjoin": "crossjoin.sample_s",
    "enumerate_crossjoin_pairs": "crossjoin.enumerate_s",
    "crossjoin_bfs": "crossjoin.bfs_s",
    "fryers_coefficients": "crossjoin.fryers_s",
    "fryers_total": "crossjoin.fryers_s",
    "CycleCtx": "cycles.ctx_s",
    "cyclotomic_numbers": "conjugacy.cyclotomic_s",
}

# every per-layer metric, in report order, with its unit
PER_LAYER = [
    ("gf2poly.hex_encode_s", "s"), ("gf2poly.hex_chars", "chars"),
    ("graph.subgraph_s", "s"), ("graph.edges", "count"),
    ("graph.tree_count_s", "s"), ("graph.laplacian_dim", "count"),
    ("graph.tree_select_s", "s"),
    ("graph.certify_s", "s"), ("graph.certs_attempted", "count"),
    ("graph.certs_found", "count"), ("graph.cert_found_ratio", "ratio"),
    ("zech.build_s", "s"), ("zech.build_calls", "count"),
    ("zech.cosets_known", "count"), ("zech.cosets_total", "count"),
    *((f"zech.prov.{prov}", "count") for prov in zech.PROVENANCES),
    ("zech.resolve_calls", "count"), ("zech.resolve_s", "s"),
    ("zech.resolve_misses", "count"), ("zech.resolve_hit_ratio", "ratio"),
    ("zech.dump_s", "s"), ("zech.load_s", "s"), ("zech.file_bytes", "bytes"),
    ("joining.feedback_s", "s"), ("joining.generate_s", "s"),
    ("joining.bits_generated", "bits"), ("joining.anf_expand_s", "s"),
    ("joining.anf_format_s", "s"),
    ("crossjoin.sample_s", "s"), ("crossjoin.samples_ok", "count"),
    ("crossjoin.samples_failed", "count"), ("crossjoin.enumerate_s", "s"),
    ("crossjoin.pairs_found", "count"), ("crossjoin.bfs_s", "s"),
    ("crossjoin.bfs_functions", "count"), ("crossjoin.fryers_s", "s"),
    ("cycles.ctx_s", "s"), ("conjugacy.cyclotomic_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# metrics that must repeat exactly between runs of one seed
EXACT = [name for name, unit in PER_LAYER
         if unit != "s" and name != "trace.overhead_ratio"]


def untraced_lib():
    """The callables the jobs use, unwrapped."""
    return types.SimpleNamespace(
        main=cli.main,
        certify_star=graph.certify_star,
        certify_almost_star=graph.certify_almost_star,
        CycleCtx=cycles.CycleCtx,
        cyclotomic_numbers=conjugacy.cyclotomic_numbers,
        build_zech_table=cli.build_zech_table,
        random_crossjoin=cli.random_crossjoin,
        enumerate_crossjoin_pairs=crossjoin.enumerate_crossjoin_pairs,
        crossjoin_bfs=crossjoin.crossjoin_bfs,
        load_table=zech.ZechTable.load,
    )


def install(tracer, tables=()):
    """Wrap every traced name; returns (traced lib, Patches to undo it).

    `tables` are shared ZechTables the jobs receive; their `resolve` is
    traced like that of the tables built during the pass.
    """
    patches = Patches()
    counts = tracer.counts
    random_crossjoin = cli.random_crossjoin

    def add(metric, value):
        counts[metric] += value

    def watch(table):
        resolve = table.resolve

        def traced_resolve(*args, **kwargs):
            try:
                return tracer.leaf("ZechTable.resolve", resolve, *args, **kwargs)
            except zech.MissingEntryError:
                counts["zech.resolve_misses"] += 1
                raise
        patches.set(table, "resolve", traced_resolve)
        patches.set(table, "dump", traced(
            tracer, "ZechTable.dump", table.dump,
            after=lambda _, fp: add("zech.file_bytes", fp.tell())))

    def count_build(table):
        add("zech.build_calls", 1)
        add("zech.cosets_known", len(table.entries))
        add("zech.cosets_total", zech.num_cosets(table.n))
        counts.update(f"zech.prov.{prov}" for _, prov in table.entries.values())

    def built(table, *_, **__):
        watch(table)
        tracer.deferred.append(lambda: count_build(table))

    def certs(found, *_, **__):
        found = found if isinstance(found, list) else [found]
        add("graph.certs_attempted", len(found))
        add("graph.certs_found", sum(c.found for c in found))

    def sample(*args, **kwargs):
        try:
            out = tracer.call("random_crossjoin", random_crossjoin, *args, **kwargs)
        except ValueError:
            counts["crossjoin.samples_failed"] += 1
            raise
        counts["crossjoin.samples_ok"] += 1
        return out

    after = {
        "build_zech_table": built,
        "CycleCtx": None,
        "connected_subgraph": lambda g, *_, **__: add("graph.edges", len(g.mult)),
        "count_spanning_trees": lambda _, g: add("graph.laplacian_dim", g.size - 1),
        "deterministic_spanning_tree": None,
        "tree_feedback": None,
        "generate_debruijn": lambda bits, *_, **__: add("joining.bits_generated", len(bits)),
        "seq_to_hex": lambda text, *_: add("gf2poly.hex_chars", len(text)),
        "certify_star": certs,
        "certify_almost_star": certs,
        "fryers_total": None,
        "cyclotomic_numbers": None,
    }
    for name, hook in after.items():
        patches.set(cli, name, traced(tracer, name, getattr(cli, name), after=hook))
    patches.set(cli, "random_crossjoin", sample)
    patches.set(cli, "fryers_coefficients",
                traced_generator(tracer, "fryers_coefficients", cli.fryers_coefficients))
    patches.set(joining.NlfsrFeedback, "to_anf",
                traced(tracer, "NlfsrFeedback.to_anf", joining.NlfsrFeedback.to_anf))
    patches.set(joining.Anf, "__str__", traced(tracer, "Anf.__str__", joining.Anf.__str__))
    for table in tables:
        watch(table)

    lib = types.SimpleNamespace(
        main=traced(tracer, "cli.main", cli.main),
        certify_star=cli.certify_star,
        certify_almost_star=cli.certify_almost_star,
        CycleCtx=cli.CycleCtx,
        cyclotomic_numbers=cli.cyclotomic_numbers,
        build_zech_table=cli.build_zech_table,
        random_crossjoin=cli.random_crossjoin,
        enumerate_crossjoin_pairs=traced(
            tracer, "enumerate_crossjoin_pairs", crossjoin.enumerate_crossjoin_pairs,
            after=lambda pairs, *_, **__: add("crossjoin.pairs_found", len(pairs))),
        crossjoin_bfs=traced(
            tracer, "crossjoin_bfs", crossjoin.crossjoin_bfs,
            after=lambda out, *_, **__: add("crossjoin.bfs_functions", len(out[0]))),
        load_table=traced(
            tracer, "ZechTable.load", zech.ZechTable.load,
            after=lambda _, fp: add("zech.file_bytes", os.fstat(fp.fileno()).st_size)),
    )
    return lib, patches


def layer_metrics(tracer):
    """Per-layer values of one traced pass (trace.overhead_ratio excluded)."""
    out = {name: 0.0 if unit == "s" else 0
           for name, unit in PER_LAYER if name != "trace.overhead_ratio"}
    for span, seconds in tracer.self_times().items():
        out[TIME_METRICS[span]] += seconds
    for name, value in tracer.counts.items():
        out[name] += value
    out["zech.resolve_calls"] = calls = tracer.leaf_calls("ZechTable.resolve")
    out["zech.resolve_hit_ratio"] = (calls - out["zech.resolve_misses"]) / calls if calls else 0.0
    attempted = out["graph.certs_attempted"]
    out["graph.cert_found_ratio"] = out["graph.certs_found"] / attempted if attempted else 0.0
    return out
