import json
import math
import sys

import pytest

from zechbruijn import (
    ZechTable,
    build_zech_table,
    is_debruijn,
    poly_from_set_notation,
    seq_from_hex,
)
from zechbruijn.cli import main
from zechbruijn.gf2poly import degree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zech_bruteforce_order10(tmp_path, capsys):
    out_file = tmp_path / "t10.zech"
    code, _out, err = run(capsys, "zech", "--p", "n=10;{3}",
                          "--mode", "bruteforce", "--out", str(out_file))
    assert code == 0
    assert "elements=1022/1022" in err
    with open(out_file) as fp:
        table = ZechTable.load(fp)
    assert table.complete and table.resolve(3) == 10


def test_zech_order4_entry_count(capsys):
    code, out, err = run(capsys, "zech", "--p", "n=4;{1}")
    assert code == 0
    assert "elements=14/14" in err
    assert out.splitlines()[0] == "zech v1 n=4 p=0x13 complete=1"


def test_zech_partial_exit_code(capsys):
    code, out, err = run(capsys, "zech", "--p", "n=17;{6}",
                         "--mode", "propagate", "--no-lift")
    assert code == 2
    assert "complete=0" in out.splitlines()[0]


def test_zech_invalid_poly(capsys):
    assert main(["zech", "--p", "n=4;{9}"]) == 3


def test_debruijn_walkthrough_sequence(capsys):
    code, out, _err = run(capsys, "debruijn", "--p", "n=4;{1}", "--t", "3",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rec = payload["sequences"][0]
    bits = seq_from_hex(rec["hex"], rec["period"])
    assert bits == [int(c) for c in "0000101001111011"]
    assert payload["f"] == "n=4;{3,2,1}"
    # the pipeline stops growing the subgraph once connected: 4 of the
    # full graph's 8 trees are reachable from it
    assert payload["spanning_trees"] == "4"


def test_debruijn_order10_window_verified(capsys):
    code, out, _err = run(capsys, "debruijn", "--p", "n=10;{3}", "--t", "31",
                          "--count", "2", "--seed", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for rec in payload["sequences"]:
        assert is_debruijn(seq_from_hex(rec["hex"], rec["period"]), 10)


def test_debruijn_certificate_only(capsys):
    code, out, _err = run(capsys, "debruijn", "--p", "n=10;{3}", "--t", "31",
                          "--count", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sequences"] == []
    assert float(payload["log2_trees"]) > 0


def test_debruijn_rejects_invalid_t(capsys):
    assert main(["debruijn", "--p", "n=10;{3}", "--t", "33"]) == 3


def test_debruijn_rejects_t_equal_to_period(capsys):
    code, _out, err = run(capsys, "debruijn", "--p", "n=5;{2}", "--t", "31")
    assert code == 3
    assert err == "error: t = 31 must divide 2^5 - 1 and lie in [1, 2^5 - 2] for n = 5\n"


def test_debruijn_disconnected_graph_is_partial(capsys, monkeypatch):
    # a seed table closed under Flip/Inv only reaches u_0 from [0]
    from zechbruijn import cli, zech_closure, zech_seed_trinomial

    monkeypatch.setattr(cli, "build_zech_table",
                        lambda p, mode="auto": zech_closure(zech_seed_trinomial(p)))
    code, out, err = run(capsys, "debruijn", "--p", "n=10;{3}", "--t", "31")
    assert code == 2 and out == ""
    assert err == ("error: adjacency graph disconnected; unreached cycles "
                   f"{list(range(1, 31))}\n")


def test_debruijn_dot_output(capsys):
    code, out, _err = run(capsys, "debruijn", "--p", "n=4;{1}", "--t", "3",
                          "--format", "dot")
    assert code == 0 and out.startswith("graph adjacency {")


def test_debruijn_hex_output(capsys):
    code, out, _err = run(capsys, "debruijn", "--p", "n=4;{1}", "--t", "3",
                          "--format", "hex")
    assert code == 0 and out.strip() == "16 0a7b"


def test_certify_almost_star(capsys):
    code, out, _err = run(capsys, "certify", "--p", "n=10;{3}", "--t", "31",
                          "--l", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == [1, 3, 7, 9, 13, 17, 21]
    assert payload["cp"] == 10


def test_certify_star_not_found_is_partial(capsys):
    code, out, _err = run(capsys, "certify", "--p", "n=10;{3}", "--t", "31")
    assert code == 2
    assert "no star spanning tree" in out


def test_certify_invalid_t_skipped(capsys):
    code, _out, err = run(capsys, "certify", "--p", "n=10;{3}", "--t", "33")
    assert code == 3
    assert "skipped" in err


def test_crossjoin_forced_pair(capsys):
    code, out, _err = run(capsys, "crossjoin", "--p", "n=5;{2}", "--ab", "7,21",
                          "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["tau_a"] == 22 and rec["tau_b"] == 25
    assert rec["feedback"] == "x0 + x1*x2*x4 + x1*x3*x4 + x2"
    assert rec["degree"] == 3


def test_crossjoin_forced_pair_missing_from_partial_table(capsys):
    # the n=28 sweep table stops short of the coset of 1
    code, out, err = run(capsys, "crossjoin", "--p", "n=28;{3}", "--ab", "1,2")
    assert code == 2 and out == ""
    assert err == "error: coset of 1 (leader 1) not in table\n"


@pytest.mark.parametrize("ab", ["7", "7,21,3", "7,x", ","])
def test_crossjoin_rejects_malformed_ab(capsys, ab):
    code, out, err = run(capsys, "crossjoin", "--p", "n=5;{2}", "--ab", ab)
    assert code == 3 and out == ""
    assert err == f"error: --ab expects two exponents as a,b (e.g. 7,21), got {ab!r}\n"


def test_crossjoin_rejects_count_below_one(capsys):
    for count in ("0", "-2"):
        code, out, err = run(capsys, "crossjoin", "--p", "n=5;{2}", "--count", count)
        assert code == 3 and out == ""
        assert err == f"error: --count must be at least 1, got {count}\n"


def test_debruijn_rejects_negative_count(capsys):
    code, out, err = run(capsys, "debruijn", "--p", "n=5;{2}", "--t", "1",
                         "--count", "-1")
    assert code == 3 and out == ""
    assert err == "error: --count must be at least 0, got -1\n"


def test_crossjoin_where_propagation_stalls(capsys):
    # the n=17;{6} table is brute-forced: propagation stalls on it
    code, out, _err = run(capsys, "crossjoin", "--p", "n=17;{6}", "--count", "3",
                          "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    for r in records:
        assert r["a"] < r["b"] < r["tau_a"] < r["tau_b"]


def test_fryers_output(capsys):
    code, out, _err = run(capsys, "fryers", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [payload["coefficients"][str(k)] for k in (1, 3, 5, 7, 9, 11, 13, 15)] \
        == ["1", "35", "273", "715", "715", "273", "35", "1"]
    assert payload["total"] == "2048"


def test_fryers_rejects_order_below_two(capsys):
    code, out, err = run(capsys, "fryers", "--n", "0")
    assert code == 3
    assert out == "" and err == "error: order must be at least 2\n"


def test_fryers_order15_exceeds_int_str_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    code, out, _err = run(capsys, "fryers", "--n", "15", "--format", "json")
    assert code == 0
    if get_limit is None:
        expected = str(2 ** (2 ** 14 - 15))
    else:
        assert get_limit() == before    # the limit is restored
        sys.set_int_max_str_digits(0)
        try:
            expected = str(2 ** (2 ** 14 - 15))
        finally:
            sys.set_int_max_str_digits(before)
    assert json.loads(out)["total"] == expected


def test_fryers_order16_rows_and_total(capsys):
    code, out, _err = run(capsys, "fryers", "--n", "16")
    assert code == 0
    lines = out.splitlines()
    half = 1 << 15
    assert len(lines) == half // 2 + 1
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for k in (1, half // 2 - 1, half // 2 + 1, half - 1):
            want = str(math.comb(half, k) // half)
            assert lines[k // 2] == f"N(16;{k}) = {want}"
        assert lines[-1] == f"total = {2 ** (half - 16)}"
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("p, deg", [("0x0", -1), ("0x1", 0), ("n=0;{}", 0)])
def test_polynomial_of_degree_below_one_is_rejected(capsys, p, deg):
    code, out, err = run(capsys, "debruijn", "--p", p, "--t", "1")
    assert code == 3 and out == ""
    assert err == f"error: polynomial {p!r} has degree {deg}; need degree >= 1\n"


def test_cyclotomic_matrix(capsys):
    code, out, _err = run(capsys, "cyclotomic", "--p", "n=4;{1}", "--t", "3",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    mat = payload["matrix"]
    assert len(mat) == 3
    assert sum(map(sum, mat)) == 14


def test_cyclotomic_where_propagation_stalls(capsys):
    code, out, _err = run(capsys, "cyclotomic", "--p", "n=17;{6}", "--t", "1")
    assert code == 0 and out == "131070\n"


def test_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["debruijn", "--p", "n=10;{3}", "--t", "31", "--count", "3",
                     "--seed", "9", "--format", "json", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    cert1 = tmp_path / "c1.txt"
    cert2 = tmp_path / "c2.txt"
    for out in (cert1, cert2):
        assert main(["certify", "--p", "n=20;{3}", "--t", "41",
                     "--out", str(out)]) == 0
    assert cert1.read_bytes() == cert2.read_bytes()


def usage_error(capsys, *argv):
    """Exit code and standard error of an argparse usage error."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_missing_required_flag_exits_3(capsys):
    code, err = usage_error(capsys, "debruijn", "--p", "n=5;{2}")
    assert code == 3
    assert "the following arguments are required: --t" in err


def test_unknown_subcommand_exits_3(capsys):
    code, err = usage_error(capsys, "decimate", "--p", "n=5;{2}")
    assert code == 3
    assert "invalid choice: 'decimate'" in err


def test_help_exits_0(capsys):
    assert usage_error(capsys, "debruijn", "--help")[0] == 0


@pytest.mark.parametrize("argv, message", [
    (("zech", "--p", "n=4;{1}", "--format", "json"), "unrecognized arguments: --format json"),
    (("certify", "--p", "n=4;{1}", "--format", "hex"), "argument --format: invalid choice: 'hex'"),
    (("crossjoin", "--p", "n=5;{2}", "--format", "hex"), "argument --format: invalid choice: 'hex'"),
    (("fryers", "--n", "5", "--format", "dot"), "argument --format: invalid choice: 'dot'"),
    (("cyclotomic", "--p", "n=4;{1}", "--t", "3", "--format", "dot"),
     "argument --format: invalid choice: 'dot'"),
])
def test_format_a_subcommand_does_not_write_exits_3(capsys, argv, message):
    code, err = usage_error(capsys, *argv)
    assert code == 3 and message in err


def _refuse_table_builds(monkeypatch):
    def build(*_args, **_kwargs):
        raise AssertionError("a Zech table was built")
    monkeypatch.setattr("zechbruijn.cli.build_zech_table", build)


def test_debruijn_hex_above_materialize_cap_exits_3(capsys, monkeypatch):
    _refuse_table_builds(monkeypatch)
    code, out, err = run(capsys, "debruijn", "--p", "n=10;{3}", "--t", "31",
                         "--format", "hex", "--materialize-cap", "5")
    assert code == 3 and out == ""
    assert err == ("error: --format hex writes sequences, but n = 10 is above "
                   "--materialize-cap 5\n")


def test_materialize_cap_above_generation_cap_exits_3(capsys, monkeypatch):
    _refuse_table_builds(monkeypatch)
    code, out, err = run(capsys, "debruijn", "--p", "n=5;{2}", "--t", "1",
                         "--materialize-cap", "27")
    assert code == 3 and out == ""
    assert err == "error: --materialize-cap 27 is above the sequence generation cap 26\n"


def test_debruijn_hex_with_count_0_exits_3(capsys, monkeypatch):
    _refuse_table_builds(monkeypatch)
    code, out, err = run(capsys, "debruijn", "--p", "n=5;{2}", "--t", "1",
                         "--count", "0", "--format", "hex")
    assert code == 3 and out == ""
    assert err == "error: --format hex writes sequences, but --count is 0\n"


@pytest.mark.parametrize("argv, message", [
    (("certify", "--p", "n=10;{3}", "--budget-s", "-5"), "--budget-s must be at least 3, got -5"),
    (("certify", "--p", "n=10;{3}", "--t", "31", "--budget-z", "-1"),
     "--budget-z must be at least 1, got -1"),
    (("zech", "--p", "n=10;{3}", "--budget", "-1"), "--budget must be at least 0, got -1"),
])
def test_numeric_flag_below_minimum_exits_3(capsys, monkeypatch, argv, message):
    _refuse_table_builds(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (("zech", "--p", "n=28;{3}", "--mode", "bruteforce", "--cap", "30"), "--cap 30"),
    (("debruijn", "--p", "n=10;{3}", "--t", "31", "--mode", "propagate"),
     "--mode propagate"),
    (("cyclotomic", "--p", "n=10;{3}", "--t", "31", "--mode", "bruteforce"),
     "--mode bruteforce"),
])
def test_table_source_and_cap_are_not_options(capsys, monkeypatch, argv, flag):
    _refuse_table_builds(monkeypatch)
    code, err = usage_error(capsys, *argv)
    assert code == 3 and f"unrecognized arguments: {flag}" in err


def test_certify_l_without_t_exits_3_before_building(capsys, monkeypatch):
    _refuse_table_builds(monkeypatch)
    code, out, err = run(capsys, "certify", "--p", "n=10;{3}", "--l", "2")
    assert code == 3 and out == ""
    assert err == "error: --l needs --t\n"


def test_certify_budget_s_is_only_checked_for_the_sweep(capsys):
    # with --t no t is swept, so --budget-s is not read
    code, out, _err = run(capsys, "certify", "--p", "n=10;{3}", "--t", "3",
                          "--budget-s", "0")
    assert code == 0 and out == "t=3 center=u0 witness={1} cp=5 dbseqs~2^4.64\n"


@pytest.fixture(scope="module")
def zech63():
    """The default n=63 table: seed, sweeps and subfield lifts, partial.
    Its build takes over 100 s and 0.7 GB on a 2-core VM, so the module
    builds it once."""
    return build_zech_table(poly_from_set_notation("n=63;{1}"))


@pytest.mark.parametrize("argv,code,want", [
    (("--p", "n=28;{3}", "--t", "3", "--budget-z", "200"), 0,
     "t=3 center=u0 witness={1} cp=14 dbseqs~2^7.61\n"),
    (("--p", "n=63;{1}", "--t", "7", "--budget-z", "200"), 0,
     "t=7 center=u0 witness={1,9} cp=21 dbseqs~2^26.35\n"),
    (("--p", "n=63;{1}", "--t", "60247241209", "--budget-z", "50"), 2,
     "t=60247241209 center=u0: no star spanning tree found\n"),
], ids=["n28_t3", "n63_t7", "n63_no_star"])
def test_certify_on_partial_tables_above_the_cap(capsys, monkeypatch, request, argv, code, want):
    # n=28 and n=63 are propagated, so many lookups of the walk miss
    from zechbruijn import cli

    build = cli.build_zech_table
    monkeypatch.setattr(cli, "build_zech_table", lambda p: (
        request.getfixturevalue("zech63") if degree(p) == 63 else build(p)))
    assert run(capsys, "certify", *argv) == (code, want, "")


def test_certify_huge_budget_z_is_not_allocated(capsys):
    # the walk stops at the certificate, whatever --budget-z allows
    default = run(capsys, "certify", "--p", "n=20;{3}", "--t", "205")
    assert default == (0, "t=205 center=u0 witness={1,3,7,9,11,21,29,47,51,63,77} "
                          "cp=1 dbseqs~2^0.0\n", "")
    assert run(capsys, "certify", "--p", "n=20;{3}", "--t", "205",
               "--budget-z", "1000000000") == default
