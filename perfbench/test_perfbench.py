"""Self-tests of the benchmark: wrappers, self-time arithmetic, the gate.

    python -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if not any(Path(p).resolve() == HERE.parent / "src" for p in sys.path if p):
    sys.path.insert(0, str(HERE.parent / "src"))

from zechbruijn import zech_bruteforce  # noqa: E402
from zechbruijn.gf2poly import poly_from_set_notation  # noqa: E402
from zechbruijn.zech import MissingEntryError, ZechTable  # noqa: E402

from gate import Gate, digest  # noqa: E402
from reference import NOMINAL_S, Section  # noqa: E402
from layers import EXACT, PER_LAYER, install, layer_metrics, untraced_lib  # noqa: E402
from run import IMPORT_PROBES, import_times, overhead_ratio, paired_pass, run_pass  # noqa: E402
from spans import Patches, Tracer, traced, traced_generator  # noqa: E402
from workloads import N28_TRIES, WORKLOADS, CliJob, LibJob  # noqa: E402


class Boom(Exception):
    pass


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_wrappers_pass_arguments_results_and_exceptions_through():
    tracer = Tracer()
    marker = object()

    def f(a, b=None, *rest, **kw):
        return (a, b, rest, kw, marker)

    wrapped = traced(tracer, "f", f)
    assert wrapped(1, b=2) == (1, 2, (), {}, marker)
    assert wrapped(1, 2, 3, x=4) == (1, 2, (3,), {"x": 4}, marker)
    assert wrapped.__name__ == "f"

    exc = Boom("x")

    def g():
        raise exc
    with pytest.raises(Boom) as info:
        traced(tracer, "g", g)()
    assert info.value is exc
    with pytest.raises(Boom) as info:
        tracer.leaf("g", g)
    assert info.value is exc
    assert tracer.leaf("h", f, 1, b=2) == (1, 2, (), {}, marker)

    gen = traced_generator(tracer, "gen", lambda n: (i * i for i in range(n)))
    assert list(gen(4)) == [0, 1, 4, 9]
    assert tracer.leaf_calls("gen") == 6     # creation, four items, the end
    assert not tracer.stack


def test_resolve_wrapper_counts_misses_and_reraises_unchanged():
    table = zech_bruteforce(poly_from_set_notation("n=5;{2}"))
    want = [table.resolve(k) for k in range(1, 31)]
    partial = ZechTable(5)
    tracer = Tracer()
    _, patches = install(tracer, [table, partial])
    try:
        assert [table.resolve(k) for k in range(1, 31)] == want
        with pytest.raises(MissingEntryError) as info:
            partial.resolve(3)
        assert type(info.value) is MissingEntryError
        assert "leader 3" in str(info.value)
    finally:
        patches.restore()
    assert "resolve" not in vars(table)
    metrics = layer_metrics(tracer)
    assert metrics["zech.resolve_calls"] == 31
    assert metrics["zech.resolve_misses"] == 1
    assert metrics["zech.resolve_hit_ratio"] == 30 / 31


def test_patches_restore_originals():
    class Box:
        def method(self):
            return 1

    box = Box()
    patches = Patches()
    patches.set(Box, "method", lambda self: 2)
    patches.set(box, "method", lambda: 3)
    assert box.method() == 3
    patches.restore()
    assert box.method() == 1 and "method" not in vars(box)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10]: child a [1, 4] holding b [2, 3]; child c [5, 9] with two
    # leaf calls of 0.5 s and 1.5 s
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 6.5, 7, 8.5, 9, 10]))

    def c():
        tracer.leaf("leaf", lambda: None)
        tracer.leaf("leaf", lambda: None)

    def root():
        tracer.call("a", lambda: tracer.call("b", lambda: None))
        tracer.call("c", c)

    tracer.call("root", root)
    selfs = tracer.self_times()
    assert selfs == {"root": 3, "a": 2, "b": 1, "c": 2, "leaf": 2}
    assert sum(selfs.values()) == 10     # the root's duration
    assert tracer.leaf_calls("leaf") == 2
    spans = tracer.to_json()["spans"]
    assert [(s["name"], s["parent"]) for s in spans] == [
        ("root", -1), ("a", 0), ("b", 1), ("c", 0)]


def test_wrong_recorded_output_makes_error_rate_nonzero(tmp_path):
    jobs = [CliJob("fryers_n5", ("fryers", "--n", "5")),
            LibJob("answer", lambda lib, shared, out: 42, str)]
    lib = untraced_lib()
    first = run_pass(jobs, lib, {}, tmp_path, Gate({}))
    exit_code, sha = first["digests"]["fryers_n5"]
    right = {"fryers_n5": {"exit": exit_code, "sha256": sha},
             "answer": {"exit": 0, "sha256": digest(b"42")}}
    assert run_pass(jobs, lib, {}, tmp_path, Gate(right))["failures"] == []

    wrong = dict(right, answer={"exit": 0, "sha256": digest(b"43")})
    failures = run_pass(jobs, lib, {}, tmp_path, Gate(wrong))["failures"]
    assert [(f["job"], f["known"]) for f in failures] == [("answer", False)]


def test_known_failure_is_pinned_to_its_exception_and_message(tmp_path):
    job = next(j for j in WORKLOADS["crossjoin"].jobs(1) if j.name == "crossjoin_n28")
    shared = {"p28": poly_from_set_notation("n=28;{3}")}

    def outcome(result):
        def random_crossjoin(*args, **kwargs):
            if isinstance(result, Exception):
                raise result
            return result
        return types.SimpleNamespace(build_zech_table=lambda p: ZechTable(28),
                                     random_crossjoin=random_crossjoin)

    def known(lib):
        failures = run_pass([job], lib, shared, tmp_path, Gate({}))["failures"]
        assert [f["job"] for f in failures] == ["crossjoin_n28"]
        return failures[0]["known"]

    assert known(outcome(ValueError(f"no valid pair found within {N28_TRIES} tries")))
    # fewer draws, another error, another exception type, or no failure
    assert not known(outcome(ValueError("no valid pair found within 1000 tries")))
    assert not known(outcome(ValueError("table build failed")))
    assert not known(outcome(RuntimeError(f"no valid pair found within {N28_TRIES} tries")))
    assert not known(outcome(("pair", "feedback", {})))


def test_paired_pass_traces_each_job_next_to_its_untraced_run(tmp_path):
    jobs = [CliJob("fryers_n5", ("fryers", "--n", "5")),
            LibJob("bfs_n3", lambda lib, shared, _: lib.crossjoin_bfs(shared["seq"], 1),
                   lambda out: str(len(out[0])))]
    shared = {"seq": (0, 0, 0, 1, 0, 1, 1, 1)}
    gate = Gate({})
    first = run_pass(jobs, untraced_lib(), shared, tmp_path, gate)
    gate = Gate({name: {"exit": e, "sha256": sha} for name, (e, sha) in first["digests"].items()})
    untraced, traced = paired_pass(jobs, shared, tmp_path, gate)
    assert untraced["failures"] == traced["failures"] == []
    assert untraced["digests"] == traced["digests"]
    assert list(traced["job_s"]) == ["fryers_n5", "bfs_n3"]
    assert traced["layers"]["crossjoin.bfs_functions"] > 0
    assert [s["name"] for s in traced["trace"]["spans"] if s["parent"] == -1] == [
        "cli.main", "crossjoin_bfs"]
    assert overhead_ratio([(untraced, traced)]) > 0


def test_structural_check_rejects_a_wrong_tau():
    job = CliJob("cj", ("crossjoin", "--p", "n=5;{2}", "--count", "1"), check="crossjoin")
    table = zech_bruteforce(poly_from_set_notation("n=5;{2}"))
    a, b = 7, 21
    ta, tb = table.resolve(a), table.resolve(b)
    good = f"a={a} b={b} tau(a)={ta} tau(b)={tb} degree=3\nh = x0\n".encode()
    gate = Gate({})
    assert gate.check(job, 0, good) is None
    assert gate.finish() == []
    bad = good.replace(f"tau(b)={tb}".encode(), f"tau(b)={tb + 1}".encode())
    assert gate.check(job, 0, bad) is None
    assert [name for name, _ in gate.finish()] == ["cj"]
    assert gate.check(job, 3, None) == "exit 3, expected 0"


def test_section_times_its_body_at_reference_speed_and_passes_exceptions():
    exc = Boom("x")
    section = Section()
    with pytest.raises(Boom) as info:
        with section:
            raise exc
    assert info.value is exc
    assert section.seconds >= 0 and section.before > 0 and section.after > 0
    assert section.normalised == (
        section.seconds * NOMINAL_S / ((section.before + section.after) / 2))


def test_import_probes_time_a_fresh_interpreter_up_to_the_import():
    times = import_times(HERE.parent)
    assert len(times) == IMPORT_PROBES and all(0 < t < 60 for t in times)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert spec["paths"] == [HERE.name]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()]
    assert "zech.resolve_calls" in EXACT and "zech.resolve_s" not in EXACT
