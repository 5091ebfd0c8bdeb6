"""CLI behavior: golden outputs, JSON shapes, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burstcodes import BurstSpec, apply_burst, ball, c31_param_search, codes, verify
from burstcodes.cli import main

ROOT = Path(__file__).resolve().parent.parent

BALL_GOLDEN = """\
center 101000111 n=9
ball t=4 s=1: size 7, formula 7, match
000111
100111
101000
101001
101011
101111
110111
"""

CTS_DECODE_GOLDEN = """\
decoded 101011001101110
row 1: 10011  single-deletion  window [2, 3]
column window [1, 3]
row 2: 01001
row 3: 11110
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ball_golden(capsys):
    code, out, _ = run(capsys, "ball", "101000111", "--t", "4", "--s", "1")
    assert code == 0
    assert out == BALL_GOLDEN


def test_ball_length_one(capsys):
    code, out, _ = run(capsys, "ball", "0", "--t", "1", "--s", "1")
    assert code == 0
    assert "size 2, formula 2, match" in out


def test_ball_refined(capsys):
    code, out, _ = run(capsys, "ball", "101011100100", "--refined", "3", "0")
    assert code == 0
    assert "size 6, formula 6, match" in out


def test_ball_refined_no_formula(capsys):
    # 3 does not divide n = 8, and the closed form still holds
    code, out, _ = run(capsys, "ball", "10101110", "--refined", "3", "0")
    assert code == 0
    assert "refined ball k=3 l=0: size 5, formula 5, match" in out


def test_ball_with_no_insert_takes_the_refined_closed_form(capsys):
    # the full (t, 0)-ball is the refined (t, 0)-ball, whose closed form
    # holds where ball_size_formula() needs s >= 1
    for t, size in (("2", 3), ("0", 1)):
        code, out, _ = run(capsys, "ball", "0110", "--t", t, "--s", "0")
        assert code == 0
        assert f"ball t={t} s=0: size {size}, formula {size}, match" in out
        code, out, _ = run(capsys, "ball", "0110", "--t", t, "--s", "0", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["size"] == d["formula"] == size
        assert d["members"] == list(ball("0110", int(t), 0).members)


def test_ball_with_an_insert_longer_than_the_word(capsys):
    # the closed form holds at every n >= t, so t <= n < s has one too
    code, out, err = run(capsys, "ball", "011", "--t", "1", "--s", "5")
    assert (code, err) == (0, "")
    assert "ball t=1 s=5: size 64, formula 64, match" in out.splitlines()


def test_ball_json_matches_library(capsys):
    code, out, _ = run(capsys, "ball", "101000111", "--t", "4", "--s", "1", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["members"] == list(ball("101000111", 4, 1).members)
    assert d["size"] == d["formula"] == 7


def test_member_exit_codes(capsys):
    code, out, _ = run(capsys, "member", "c21", "--params", "3,0", "01100110")
    assert code == 0 and "01100110: member" in out
    code, out, _ = run(capsys, "member", "c21", "--params", "3,0", "01100111")
    assert code == 1 and "not a member" in out


def test_decode_cts_golden(capsys):
    code, out, _ = run(
        capsys, "decode", "cts", "--t", "4", "--s", "1", "--n", "15",
        "--params", "1,3,7,2,10,0", "101010101110", "--verbose",
    )
    assert code == 0
    assert out == CTS_DECODE_GOLDEN


def test_decode_cts_json(capsys):
    code, out, _ = run(
        capsys, "decode", "cts", "--t", "4", "--s", "1", "--n", "15",
        "--params", "1,3,7,2,10,0", "101010101110", "--json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["decoded"] == "101011001101110"
    assert d["rows"] == ["10011", "01001", "11110"]
    assert d["column_window"] == [1, 3]


def test_decode_cts_refuses_a_word_in_no_ball_exit_1(capsys):
    # the rows decode to 001010000010, but no (4, 2)-burst of it gives y
    code, out, err = run(
        capsys, "decode", "cts", "--n", "12", "--t", "4", "--s", "2",
        "--params", "0,3,0,0", "0000010010",
    )
    assert code == 1
    assert out == ""
    assert err == "DecodeFailure: cts_decode: no (t, s)-burst of the decoded word gives y\n"


def test_decode_c21_merge(capsys):
    code, out, _ = run(capsys, "decode", "c21", "--n", "5", "--params", "1,3", "1111")
    assert code == 0
    assert out.splitlines() == [
        "decoded 10011",
        "classification merge-00->1",
        "window [2, 2]",
    ]


def test_decode_vt(capsys):
    code, out, _ = run(capsys, "decode", "vt", "--n", "4", "--params", "3", "101")
    assert code == 0
    assert out.strip() == "decoded 1011"


def test_decode_svt21(capsys):
    code, out, _ = run(
        capsys, "decode", "svt21", "--n", "5", "--P", "3",
        "--window", "2,3", "--params", "2,2", "0101",
    )
    assert code == 0
    assert out.strip() == "decoded 01001"


def test_decode_svt21_missed_window_exit_1(capsys):
    code, _, err = run(
        capsys, "decode", "svt21", "--n", "5", "--P", "7",
        "--window", "1,1", "--params", "7,2", "0101",
    )
    assert code == 1
    assert "DecodeFailure" in err


def test_decode_c31_roundtrip(capsys):
    params, book = c31_param_search(8)
    x = book.members[0]
    y = apply_burst(x, BurstSpec(3, 1, 2, "0"))
    arg = f"{params.a},{params.b},{params.c},{params.d}"
    code, out, _ = run(
        capsys, "decode", "c31", "--n", "8", "--params", arg, y, "--verbose"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"decoded {x}"
    assert lines[1].startswith("classification ")
    assert lines[2].startswith("deltas ")


def test_search_json_shape(capsys):
    code, out, _ = run(capsys, "search", "c21", "--n", "8", "--members")
    assert code == 0
    d = json.loads(out)
    assert d["family"] == "c21" and d["n"] == 8
    assert d["size"] == len(d["members"])
    assert set(d["params"]) == {"a", "b"}
    assert isinstance(d["redundancy"], float)


C21_N8_MEMBERS = [
    "00111100", "01011010", "01100110", "01101001",
    "10010110", "10011001", "10100101", "11000011",
]


def test_search_lists_members_only_when_asked(capsys, monkeypatch):
    code, out, _ = run(capsys, "search", "c21", "--n", "8", "--members")
    assert code == 0
    d = json.loads(out)
    assert d.pop("members") == C21_N8_MEMBERS
    code, out, _ = run(capsys, "search", "c21", "--n", "8")
    assert (code, json.loads(out)) == (0, d)

    def no_listing(*args):
        raise AssertionError("search listed members it does not print")

    monkeypatch.setattr(codes, "_list_members", no_listing)
    code, out, _ = run(capsys, "search", "c21", "--n", "18")
    assert code == 0
    assert out == (
        '{"family": "c21", "n": 18, "params": {"a": 15, "b": 1}, '
        '"redundancy": 6.8232, "size": 2315}\n'
    )
    # the patch does sit on the listing path
    with pytest.raises(AssertionError, match="listed members"):
        main(["search", "c21", "--n", "8", "--members"])


@pytest.mark.parametrize(
    "argv, burst, asked",
    [
        ("decode c31 --n 8 --t 2 --s 1 --params 10,2,2,4 011001", "(3, 1)", "(2, 1)"),
        ("decode c21 --n 8 --t 1 --s 2 --params 0,0 0110010", "(2, 1)", "(1, 2)"),
        ("search c21 --n 7 --t 3 --s 1", "(2, 1)", "(3, 1)"),
        ("search vt --n 7 --s 1", "(1, 0)", "(1, 1)"),
        ("member c31 --t 4 --s 1 --params 33,3,0,1 000101101111", "(3, 1)", "(4, 1)"),
        ("member svt21 --P 4 --t 2 --s 2 --params 0,0 0101", "(2, 1)", "(2, 2)"),
    ],
)
def test_every_family_subcommand_refuses_another_burst(capsys, argv, burst, asked):
    family = argv.split()[1]
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: {family} corrects {burst}-bursts, not {asked}\n"


@pytest.mark.parametrize(
    "family, t, s, codewords, burst",
    [("lev2", 1, 0, 172, (2, 0)), ("c21", 1, 0, 66, (2, 1)), ("c21rll", 1, 0, 66, (2, 1)),
     ("c31", 2, 0, 13, (3, 1))],
    ids=["lev2", "c21", "c21rll", "c31"],
)
def test_a_family_takes_a_smaller_burst_as_well(capsys, family, t, s, codewords, burst):
    # a burst of t deletions is one the family's burst contains: --t and
    # --s ask for it, and the family's default burst stays its own
    shape = ("--n", "12", "--t", str(t), "--s", str(s))
    code, out, _ = run(capsys, "verify", "roundtrip", family, *shape)
    assert code == 0
    assert json.loads(out) == {
        "check": "roundtrip",
        # one burst per start, 13 - t of them
        "counts": {"codewords": codewords, "corruptions": codewords * (13 - t), "failures": 0},
        "params": {"codewords": codewords, "s": s, "t": t},
        "schema_version": 1,
        "verdict": "pass",
        "witness": None,
    }
    code, out, _ = run(
        capsys, "simulate", family, *shape, "--trials", "200", "--seed", "29", "--json",
    )
    assert code == 0
    d = json.loads(out)
    assert (d["t"], d["s"], d["successes"], d["trials"], d["witnesses"]) == (t, s, 200, 200, [])
    bigger = (burst[0] + 1, burst[1])
    code, out, err = run(
        capsys, "simulate", family, "--n", "12", "--t", str(bigger[0]), "--trials", "5"
    )
    assert (code, out) == (2, "")
    assert err == f"error: {family} corrects {burst}-bursts, not {bigger}\n"


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "burstcodes", "search", "c21", "--n", "8"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    code, out, err = run(capsys, "search", "c21", "--n", "8")
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_search_cts(capsys):
    code, out, _ = run(capsys, "search", "cts", "--n", "8", "--t", "3", "--s", "1")
    assert code == 0
    d = json.loads(out)
    assert d["family"] == "cts"
    assert d["size"] >= 1


def test_bounds_golden_row(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "3", "--s", "1", "--n", "8..16")
    assert code == 0
    assert "  12              93     6.5392           2   11.9069" in out.splitlines()


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "3", "--s", "1", "--n", "12", "--json")
    assert code == 0
    d = json.loads(out)
    assert d == {
        "bound": 93,
        "guaranteed_size": 2,
        "log2_bound": 6.5392,
        "max_redundancy": 11.9069,
        "n": 12,
    }


def test_verify_ball_laws(capsys):
    code, out, _ = run(capsys, "verify", "ball-laws", "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        d = json.loads(line)
        assert d["verdict"] == "pass"
        assert d["schema_version"] == 1
        assert "elapsed_s" not in d


def test_verify_book_checks(capsys):
    for check in ("disjoint", "roundtrip", "equivalence", "bound"):
        code, out, _ = run(capsys, "verify", check, "c21", "--n", "8")
        assert code == 0, check
        assert json.loads(out)["verdict"] == "pass"


def test_verify_ball_laws_refuses_a_huge_n_max_at_the_first_length_past_the_guard(capsys):
    code, out, err = run(capsys, "verify", "ball-laws", "--n-max", "100000000000")
    assert (code, out, err) == (3, "", "guard: ball-law sweep at n=15 exceeds guard 14\n")


def test_decode_cts_checks_the_word_length_before_the_row_masks(capsys):
    code, out, err = run(capsys, "decode", "cts", "--t", "4", "--s", "2", "--n", "100000000000",
                         "--params", "1,2,3,4", "0101")
    assert (code, out) == (2, "")
    assert err == "error: received word must have length 99999999998, got 4\n"


@pytest.mark.parametrize("argv", [
    ["decode", "c21rll", "--n", "8", "--params", "3,0", "0101010"],
    ["verify", "roundtrip", "c21rll", "--n", "8"],
    ["simulate", "c21rll", "--n", "8", "--trials", "20"],
])
def test_a_run_cap_past_the_length_is_no_cap(capsys, argv):
    # a cap of 10^11 would build a string that long; it reads as a cap of n
    code, out, _ = run(capsys, *argv, "--f", "100000000000")
    assert code == 0
    assert out.replace("100000000000", "8") == run(capsys, *argv, "--f", "8")[1]


def test_verify_ball_laws_over_the_work_guard_exits_3(capsys):
    code, out, err = run(
        capsys, "verify", "ball-laws", "--n-max", "12", "--t-max", "12", "--s-max", "12"
    )
    assert (code, out) == (3, "")
    assert err.startswith("guard: ") and "work guard" in err


def test_a_failing_verify_prints_its_witness(capsys, monkeypatch):
    # no searched book fails, so the disjointness pass is patched to clash
    clash = {"center_a": "00000000", "center_b": "11111111", "shared": "0000000"}
    monkeypatch.setattr(verify, "_disjoint", lambda members, t, s: (clash, 7))
    code, out, err = run(capsys, "verify", "disjoint", "c21", "--n", "8")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"
    assert err == f"witness: {json.dumps(clash, sort_keys=True)}\n"


def test_a_failing_simulate_exits_1_with_its_witnesses(capsys, monkeypatch):
    # every decode gives 00000000, which is not in the c21 book at n = 8
    wrong = codes.DecodeOutcome("0" * 8, codes.NO_ERROR, (1, 1))
    monkeypatch.setattr(codes, "c21_decode", lambda y, a, b, n: wrong)
    code, out, err = run(capsys, "simulate", "c21", "--n", "8", "--trials", "12", "--seed", "3")
    assert code == 1
    assert "success 0/12" in out
    lines = err.splitlines()
    assert len(lines) == 10 and all(line.startswith("witness: ") for line in lines)


def test_verify_cts_needs_ts(capsys):
    code, _, err = run(capsys, "verify", "disjoint", "cts", "--n", "8")
    assert code == 2
    code, out, _ = run(
        capsys, "verify", "disjoint", "cts", "--n", "8", "--t", "3", "--s", "1"
    )
    assert code == 0


def test_verify_and_simulate_take_the_run_cap(capsys):
    code, out, _ = run(capsys, "verify", "roundtrip", "c21rll", "--n", "8", "--f", "2")
    assert code == 0
    assert json.loads(out)["counts"]["failures"] == 0
    code, out, _ = run(capsys, "simulate", "c21rll", "--n", "10", "--f", "2", "--trials", "30")
    assert code == 0
    assert 'params {"a": 8, "b": 1, "f": 2}' in out and "success 30/30" in out
    # a family without a run cap refuses it, as member and search do
    for family, argv in (("vt", ("verify", "roundtrip", "vt")), ("c21", ("simulate", "c21"))):
        code, out, err = run(capsys, *argv, "--n", "8", "--f", "2")
        assert (code, out, err) == (2, "", f"error: {family} does not read --f\n")
    code, out, err = run(capsys, "verify", "ball-laws", "--f", "2")
    assert (code, out, err) == (2, "", "error: verify ball-laws reads no --f\n")


def test_simulate_deterministic_stdout(capsys):
    args = ("simulate", "c31", "--n", "8", "--trials", "200", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "success 200/200" in out1


def test_simulate_json(capsys):
    code, out, _ = run(
        capsys, "simulate", "c21", "--n", "8", "--trials", "50",
        "--seed", "3", "--json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["successes"] == d["trials"] == 50
    assert d["witnesses"] == []


def test_exit_2_on_malformed_word(capsys):
    code, _, err = run(capsys, "decode", "c21", "--n", "8", "--params", "3,0", "XYZ")
    assert code == 2


def test_exit_2_on_domain_error(capsys):
    code, _, err = run(capsys, "ball", "10", "--t", "5", "--s", "1")
    assert code == 2
    assert "error" in err
    code, _, err = run(
        capsys, "member", "cts", "--t", "2", "--s", "2", "--n", "4", "--params", "1,2", "0101"
    )
    assert code == 2
    assert err.startswith("error: construction needs t >= 2s >= 2")
    for P in ("0", "-2"):
        code, out, err = run(capsys, "search", "svt21", "--n", "6", "--P", P)
        assert (code, out) == (2, "")
        assert err == "error: window capacity P must be >= 1\n"
    code, _, err = run(capsys, "search", "c21rll", "--n", "6", "--f", "0")
    assert code == 2
    assert err == "error: run cap must be >= 1\n"
    # an option the family does not read is refused, not dropped
    for option, argv in (
        ("--f", ("member", "vt", "--f", "0", "--params", "0", "0110")),
        ("--f", ("search", "vt", "--n", "8", "--f", "0")),
        ("--P", ("search", "c21", "--n", "8", "--P", "0")),
        ("--P", ("decode", "c21", "--n", "5", "--params", "0,0", "--P", "3", "--window", "1,2",
                 "0110")),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {argv[1]} does not read {option}\n")
    # a fixed-burst family refuses any other burst, an omitted size taking its own
    for argv in (
        ("simulate", "c21", "--n", "8", "--t", "5"),
        ("verify", "roundtrip", "c21", "--n", "8", "--t", "5", "--s", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: c21 corrects (2, 1)-bursts, not (5, 1)\n")
    # no (2, 1)-burst fits a word of length 1
    for argv in (
        ("decode", "c21", "--n", "1", "--params", "0,0", ""),
        ("verify", "roundtrip", "c21", "--n", "1"),
        ("simulate", "c21", "--n", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: no (2, 1)-burst fits in length n=1\n")
    # length 0 leaves no deletion to undo and no modulus for lev2
    for argv, msg in (
        (("decode", "vt", "--n", "0", "--params", "0", ""), "no (1, 0)-burst fits in length n=0"),
        (("decode", "lev2", "--n", "0", "--params", "0", ""), "length must be >= 1"),
        (("member", "lev2", "--n", "0", "--params", "0", ""), "length must be >= 1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {msg}\n")
    # a ball-law sweep that would check no burst combination
    for flag, value, msg in (
        ("--t-max", "0", "ball-law sweep needs t_max, s_max >= 1, got 0, 4"),
        ("--s-max", "0", "ball-law sweep needs t_max, s_max >= 1, got 4, 0"),
        ("--n-max", "1", "--n-max must be >= 2, got 1"),
    ):
        code, out, err = run(capsys, "verify", "ball-laws", "--n-max", "5", flag, value)
        assert (code, out, err) == (2, "", f"error: {msg}\n")
    # the sweep reads no family, --n, --t or --s, so it refuses them
    unread = "error: verify ball-laws reads no family, --n, --t or --s\n"
    for extra in (("cts", "--n", "9", "--t", "4", "--s", "1"), ("c21",), ("--n", "9"),
                  ("--t", "2"), ("--s", "0")):
        code, out, err = run(capsys, "verify", "ball-laws", *extra, "--n-max", "3")
        assert (code, out, err) == (2, "", unread)
    # zero trials would pass vacuously, with or without --json
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "simulate", "c31", "--n", "12", "--trials", "0", *extra)
        assert (code, out, err) == (2, "", "error: trials must be >= 1, got 0\n")


def test_exit_3_on_guard(capsys):
    code, _, err = run(capsys, "search", "c21", "--n", "30")
    assert code == 3
    assert "guard" in err


def test_words_from_file(tmp_path, capsys):
    f = tmp_path / "words.txt"
    f.write_text("01100110\n10011001\n")
    code, out, _ = run(capsys, "member", "c21", "--params", "3,0", "--file", str(f))
    assert code == 0
    assert out.count("member") == 2


def test_no_words_is_usage_error(capsys):
    code, _, err = run(capsys, "ball", "--t", "2", "--s", "1")
    assert code == 2


def test_bounds_past_the_int_string_limit_refuses_before_printing(capsys):
    # the bound at n = 14,300 has 4,301 digits; at 14,299 it has 4,300
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python sets no int-to-string limit")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for n in ("14300", "14298..14302", "1..2000000"):
            assert run(capsys, "bounds", "--t", "2", "--s", "1", "--n", n, "--json")[:2] == (3, "")
        code, out, _ = run(capsys, "bounds", "--t", "2", "--s", "1", "--n", "14299")
        assert code == 0 and len(out.splitlines()[-1].split()[1]) == 4300
        # with no limit, the guard has nothing to refuse
        sys.set_int_max_str_digits(0)
        code, out, _ = run(capsys, "bounds", "--t", "2", "--s", "1", "--n", "14300", "--json")
        assert code == 0 and json.loads(out)["n"] == 14300
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_refuses_from_the_range_ends_before_it_builds_anything(capsys):
    # 2^(10^12) would not fit in memory, nor would a list of 10^12 lengths
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        code, out, err = run(capsys, "bounds", "--t", "2", "--s", "1", "--n", "1000000000000")
        assert (code, out) == (3, "") and "n=1000000000000 has more than" in err
    big = "1000000000000"
    code, out, err = run(capsys, "bounds", "--t", big, "--s", "1", "--n", f"1..{big}")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"bounds t={big} s=1",
        "   n           bound       log2   guarantee   max_red",
        f"{big}               1     0.0000           -         -",
    ]
    code, out, _ = run(capsys, "bounds", "--t", big, "--s", "1", "--n", f"1..{big}", "--json")
    assert code == 0 and json.loads(out) == {
        "n": 10**12, "bound": 1, "log2_bound": 0.0, "guaranteed_size": None,
        "max_redundancy": None}


def test_bounds_refuses_before_the_header(capsys):
    # an open-ended range is no single length
    for argv in (["--n", "5.."], ["--n", "..5"], ["--n", "12..8"]):
        assert run(capsys, "bounds", "--t", "2", "--s", "1", *argv)[:2] == (2, "")
    # t and s are checked before the header prints, with the limit off too
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        for off in (False, True):
            if off and limit is not None:
                sys.set_int_max_str_digits(0)
            code, out, err = run(capsys, "bounds", "--t", "0", "--s", "1", "--n", "1..5")
            assert (code, out) == (2, "") and "t >= 1 and s >= 1" in err
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    # a range wholly below max(t, s) has no row to refuse: the header alone
    code, out, _ = run(capsys, "bounds", "--t", "0", "--s", "5", "--n", "1..3")
    assert code == 0 and out.splitlines()[0] == "bounds t=0 s=5" and len(out.splitlines()) == 2


def test_the_bound_rises_with_n_and_no_guarantee_passes_it(capsys):
    # the bounds guard reads the largest printed int off the last n's bound
    for t in range(1, 7):
        for s in range(1, 7):
            assert main(["bounds", "--t", str(t), "--s", str(s), "--n", "1..200", "--json"]) == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            bounds = [row["bound"] for row in rows]
            assert bounds == sorted(bounds), (t, s)
            for row in rows:
                assert (row["guaranteed_size"] or 0) <= row["bound"], (t, s, row["n"])
