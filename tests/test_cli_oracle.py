"""CLI behaviour oracle: recorded invocations must replay byte for byte.

tests/cli_oracle.json holds, for every family x subcommand the CLI
supports, the argv, exit code, stdout and stderr of one invocation,
including each subcommand's --help and the error paths.  The records
were captured from the code before the family table replaced the
per-subcommand dispatch, so any drift in what a command prints fails
here.

To capture the records again from a checkout (overwrites the file):

    PYTHONPATH=<checkout>/src python3 tests/test_cli_oracle.py

argparse's own text (help and usage errors) varies between Python
minor versions, so records holding it are compared only on the minor
version they were captured with.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from burstcodes.cli import main

GOLDEN = Path(__file__).with_name("cli_oracle.json")
COLUMNS = "80"  # argparse wraps help to the terminal width


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# a missing file leaves no records, which the coverage test below fails
GOLDEN_DATA = (
    json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"python": [], "records": []}
)


@pytest.mark.parametrize(
    "record", GOLDEN_DATA["records"], ids=[r["name"] for r in GOLDEN_DATA["records"]]
)
def test_replay(record, monkeypatch):
    if "usage:" in record["stdout"] + record["stderr"] and (
        GOLDEN_DATA["python"] != list(sys.version_info[:2])
    ):
        pytest.skip("argparse text is only comparable on the capturing Python")
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code, out, err = invoke(record["argv"])
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


def test_every_family_and_subcommand_recorded():
    names = {r["argv"][0] for r in GOLDEN_DATA["records"] if r["argv"]}
    assert names >= {"ball", "member", "decode", "search", "verify", "bounds", "simulate"}
    pairs = {
        (r["argv"][0], r["argv"][1])
        for r in GOLDEN_DATA["records"]
        if len(r["argv"]) > 1 and r["exit"] == 0
    }
    for fam in ("vt", "lev2", "c21", "c21rll", "svt21", "cts", "c31"):
        assert ("member", fam) in pairs and ("search", fam) in pairs
        assert ("decode", fam) in pairs
    for fam in ("vt", "lev2", "c21", "c21rll", "cts", "c31"):
        assert ("simulate", fam) in pairs
        assert any(r["argv"][:3] == ["verify", "roundtrip", fam] and r["exit"] == 0
                   for r in GOLDEN_DATA["records"])
    for fam in ("c21", "cts", "c31"):
        for check in ("disjoint", "roundtrip", "equivalence", "bound"):
            assert any(
                r["argv"][:3] == ["verify", check, fam] and r["exit"] == 0
                for r in GOLDEN_DATA["records"]
            )


# ----------------------------------------------------------- capture


def _cases():
    """(name, argv) pairs; words come from small searched codebooks."""
    from burstcodes import (
        BurstSpec,
        apply_burst,
        c31_param_search,
        cts_param_search,
        pigeonhole_search,
    )
    from burstcodes.words import all_words

    def outsider(book):
        return next(w for w in all_words(book.n) if w not in book.members)

    def hit(x, t, s, start, ins):
        return apply_burst(x, BurstSpec(t, s, start, ins))

    cases = {"help": "--help", "no-command": "", "bad-command": "frobnicate"}
    for cmd in ("ball", "member", "decode", "search", "verify", "bounds", "simulate"):
        cases[f"{cmd}-help"] = f"{cmd} --help"
    cases |= {
        "ball": "ball 101000111 --t 4 --s 1",
        "ball-json": "ball 101000111 --t 4 --s 1 --json",
        "ball-two-words": "ball 0110 10 --t 2 --s 2",
        "ball-refined": "ball 101011100100 --refined 3 0",
        "ball-refined-na": "ball 10101110 --refined 3 0 --json",
        "ball-needs-t": "ball 0110 --s 1",
        "ball-too-short": "ball 10 --t 5 --s 1",
        "ball-bad-word": "ball 10x --t 1 --s 1",
        "ball-no-words": "ball --t 1 --s 1",
        "ball-stray-flag": "ball 0110 --t 1 --s 1 --bogus",
    }

    # one searched book per simple family, n small
    simple = {
        "vt": (pigeonhole_search("vt", 6), ""),
        "lev2": (pigeonhole_search("lev2", 6), ""),
        "c21": (pigeonhole_search("c21", 7), ""),
        "c21rll": (pigeonhole_search("c21rll", 8), ""),
        "svt21": (pigeonhole_search("svt21", 7, P=3), "--P 3"),
    }
    for fam, ((params, book), extra) in simple.items():
        vals = ",".join(str(v) for k, v in params.items() if k not in ("f", "P"))
        x, other = book.members[0], outsider(book)
        cases |= {
            f"member-{fam}": f"member {fam} --params {vals} {extra} {x}",
            f"member-{fam}-mixed": f"member {fam} {extra} --params {vals} {x} {other}",
            f"member-{fam}-json": f"member {fam} --params {vals} {extra} {other} --json",
            f"member-{fam}-param-count": f"member {fam} --params 1,2,3 {extra} {x}",
            f"search-{fam}": f"search {fam} --n {book.n} {extra}",
            f"search-{fam}-members": f"search {fam} --n 5 {extra} --members",
        }
    cases |= {
        "member-c21rll-cap": "member c21rll --params 0,0 --f 2 00100100",
        "search-c21rll-cap": "search c21rll --n 8 --f 2 --members",
        "member-svt21-needs-P": "member svt21 --params 1,1 0110",
        "member-n-mismatch": "member c21 --n 5 --params 1,1 0110",
        "member-no-params": "member vt 0110",
        "member-bad-params": "member vt --params 1,x 0110",
        "member-lengths-differ": "member vt --params 0 0110 011",
        "search-svt21-needs-P": "search svt21 --n 6",
        "search-needs-n": "search c21",
        "search-guard": "search c21 --n 30",
        "search-vt-zero": "search vt --n 0",
    }

    # decodes of the simple families
    (params, book), _ = simple["vt"]
    x, a = book.members[3], params["a"]
    cases |= {
        "decode-vt": f"decode vt --n 6 --params {a} {x[1:]}",
        "decode-vt-json": f"decode vt --n 6 --params {a} {x[:-1]} --json",
        "decode-vt-needs-n": "decode vt --params 0 01010",
        "decode-vt-length": "decode vt --n 6 --params 0 0101",
    }
    (params, book), _ = simple["lev2"]
    x, a = book.members[5], params["a"]
    cases |= {
        "decode-lev2-one": f"decode lev2 --n 6 --params {a} {x[:2] + x[3:]}",
        "decode-lev2-two": f"decode lev2 --n 6 --params {a} {x[:2] + x[4:]}",
        "decode-lev2-none": f"decode lev2 --n 6 --params {a} {x} --json",
        "decode-lev2-not-codeword": f"decode lev2 --n 6 --params {a} {outsider(book)}",
    }
    (params, book), _ = simple["c21"]
    x = next(w for w in book.members if "00" in w and "1" in w)
    c21 = f"decode c21 --n 7 --params {params['a']},{params['b']}"
    cases |= {
        "decode-c21-merge": f"{c21} {hit(x, 2, 1, x.index('00') + 1, '1')}",
        "decode-c21-deletion": f"{c21} {hit(x, 2, 1, 3, x[2])}",
        "decode-c21-json": f"{c21} {hit(x, 2, 1, 1, '0')} --json",
        "decode-c21-two-words": f"{c21} {hit(x, 2, 1, 2, '1')} {hit(x, 2, 1, 5, '0')}",
        "decode-c21-failure": f"{c21} 111111",
        "decode-c21-bad-word": f"{c21} XYZ",
        "decode-c21rll-failure": "decode c21rll --n 8 --params 0,0 0101010",
    }
    # c21rll at its default cap, and at the cap --f sets
    for name, cap, extra in (("decode-c21rll", None, ""), ("decode-c21rll-cap", 2, "--f 2")):
        params, book = pigeonhole_search("c21rll", 8, f=cap)
        y = hit(book.members[1], 2, 1, 3, "0")
        cases[name] = f"decode c21rll --n 8 --params {params['a']},{params['b']} {extra} {y}"
    (params, book), _ = simple["svt21"]
    y = hit(book.members[2], 2, 1, 3, "0")
    svt = f"decode svt21 --n 7 --params {params['c']},{params['d']}"
    cases |= {
        "decode-svt21": f"{svt} --P 3 --window 2,4 {y}",
        "decode-svt21-json": f"{svt} --P 3 --window 3,3 {y} --json",
        "decode-svt21-missed": f"{svt} --P 3 --window 5,6 {y}",
        "decode-svt21-needs-window": f"{svt} --P 3 {y}",
        "decode-svt21-needs-P": f"{svt} --window 1,2 {y}",
        "decode-svt21-wide-window": f"{svt} --P 3 --window 1,5 {y}",
        "decode-svt21-bad-window": f"{svt} --P 3 --window 1 {y}",
    }

    # interleaved code: (15,4,1) worked example, (8,4,2) and one row (8,2,1)
    worked = "--t 4 --s 1 --n 15 --params 1,3,7,2,10,0"
    cases |= {
        "member-cts": f"member cts {worked} 101011001101110",
        "member-cts-mixed": f"member cts {worked} 101011001101110 101011001101111 --json",
        "member-cts-needs-n": "member cts --t 4 --s 1 --params 1,3,7,2,10,0 101011001101110",
        "member-cts-needs-params": "member cts --t 4 --s 1 --n 15 101011001101110",
        "member-cts-param-count": "member cts --t 4 --s 1 --n 15 --params 1,3 101011001101110",
        "member-cts-rows-divide": "member cts --t 4 --s 1 --n 4 --params 1,3,7,2,10,0 0110",
        "decode-cts": f"decode cts {worked} 101010101110",
        "decode-cts-verbose": f"decode cts {worked} 101010101110 --verbose",
        "decode-cts-json": f"decode cts {worked} 101010101110 --json",
        "decode-cts-json-verbose": f"decode cts {worked} 101010101110 --json --verbose",
        "decode-cts-failure": f"decode cts {worked} 111111111111",
        "decode-cts-needs-t": "decode cts --s 1 --n 15 --params 1,3,7,2,10,0 101010101110",
    }
    for n, t, s, start, ins in ((8, 4, 2, 3, "10"), (8, 2, 1, 4, "1")):
        params, book = cts_param_search(n, t, s)
        rows = [c for rp in params.row_params for c in rp]
        vals = ",".join(str(v) for v in (params.a, params.b, *rows))
        shape = f"--t {t} --s {s} --n {n}"
        x = book.members[-1]
        cases |= {
            f"member-cts-{n}-{t}-{s}": f"member cts {shape} --params {vals} {x} {outsider(book)}",
            f"decode-cts-{n}-{t}-{s}-verbose":
                f"decode cts {shape} --params {vals} {hit(x, t, s, start, ins)} --verbose",
            f"search-cts-{n}-{t}-{s}": f"search cts --n {n} --t {t} --s {s} --members",
        }
    cases |= {
        "search-cts": "search cts --n 12 --t 4 --s 1",
        "search-cts-needs-s": "search cts --n 12 --t 4",
        "search-cts-rows-divide": "search cts --n 10 --t 4 --s 1",
        "search-cts-guard": "search cts --n 27 --t 4 --s 1",
    }

    # the (3, 1) code at n = 8
    params, book = c31_param_search(8)
    vals = f"{params.a},{params.b},{params.c},{params.d}"
    x = book.members[1]
    c31 = f"decode c31 --n 8 --params {vals}"
    cases |= {
        "member-c31": f"member c31 --params {vals} {x}",
        "member-c31-mixed": f"member c31 --params {vals} {x} {outsider(book)} --json",
        "member-c31-odd": f"member c31 --params {vals} {x[:-1]}",
        "member-c31-param-count": f"member c31 --params 1,2 {x}",
        "search-c31": "search c31 --n 8 --members",
        "search-c31-odd": "search c31 --n 9",
    }
    # two-burst-deletion, 111->0, 000->1 and 101->0 on the two codewords
    for i, start, ins in ((1, 1, "0"), (1, 3, "0"), (0, 1, "1"), (0, 5, "0")):
        y = hit(book.members[i], 3, 1, start, ins)
        cases[f"decode-c31-{i}-{start}{ins}"] = f"{c31} {y}"
        cases[f"decode-c31-{i}-{start}{ins}-verbose"] = f"{c31} {y} --verbose"
    y = hit(x, 3, 1, 3, "1")
    cases |= {
        "decode-c31-json": f"{c31} {y} --json",
        "decode-c31-json-verbose": f"decode c31 --n 8 --params {vals} --json {y} --verbose",
        "decode-c31-failure": f"{c31} 000000",
        "decode-c31-length": f"{c31} 0000000",
    }

    # verify, bounds, simulate
    cases |= {
        "verify-ball-laws": "verify ball-laws --n-max 5",
        "verify-ball-laws-small": "verify ball-laws --n-max 4 --t-max 2 --s-max 3",
        "verify-ball-laws-guard": "verify ball-laws --n-max 15",
        "verify-needs-family": "verify disjoint --n 8",
        "verify-disjoint-c21rll": "verify disjoint c21rll --n 8",
        "verify-cts-needs-t": "verify disjoint cts --n 8",
        "verify-needs-n": "verify roundtrip c21",
        "verify-c31-odd": "verify roundtrip c31 --n 7",
    }
    books = {"c21": "--n 8", "cts": "--n 8 --t 3 --s 1", "c31": "--n 8"}
    for fam, opts in books.items():
        for check in ("disjoint", "roundtrip", "equivalence", "bound"):
            cases[f"verify-{check}-{fam}"] = f"verify {check} {fam} {opts}"
    # the deletion codes: a roundtrip each; the packing ceiling needs s >= 1
    cases |= {
        "verify-roundtrip-vt": "verify roundtrip vt --n 8",
        "verify-roundtrip-lev2": "verify roundtrip lev2 --n 8",
        "verify-roundtrip-c21rll": "verify roundtrip c21rll --n 8",
        "verify-bound-lev2": "verify bound lev2 --n 8",
    }
    cases |= {
        "bounds": "bounds --t 3 --s 1 --n 8..16",
        "bounds-json": "bounds --t 4 --s 2 --n 6..12 --json",
        "bounds-21": "bounds --t 2 --s 1 --n 3..9",
        "bounds-swapped": "bounds --t 1 --s 3 --n 2..6",
        "bounds-empty": "bounds --t 2 --s 1 --n 12..8",
        "simulate-c21": "simulate c21 --n 8 --trials 100 --seed 3",
        "simulate-c21-json": "simulate c21 --n 8 --t 5 --trials 40 --seed 9 --json",
        "simulate-cts": "simulate cts --n 8 --t 3 --s 1 --trials 100 --seed 5",
        "simulate-cts-42": "simulate cts --n 8 --t 4 --s 2 --trials 60 --json",
        "simulate-c31": "simulate c31 --n 8 --trials 100 --seed 7",
        "simulate-vt": "simulate vt --n 8 --trials 50 --seed 1",
        "simulate-lev2-json": "simulate lev2 --n 8 --trials 50 --seed 1 --json",
        "simulate-c21rll": "simulate c21rll --n 8 --trials 50 --seed 1",
        "simulate-cts-needs-s": "simulate cts --n 8 --t 3",
        "simulate-refuses-svt21": "simulate svt21 --n 8",
        "simulate-negative-trials": "simulate c21 --n 8 --trials -1",
        "simulate-guard": "simulate c31 --n 26 --trials 1",
    }
    return [(name, line.split()) for name, line in cases.items()]


def capture() -> dict:
    os.environ["COLUMNS"] = COLUMNS
    records = []
    for name, argv in _cases():
        code, out, err = invoke(argv)
        records.append({"name": name, "argv": argv, "exit": code, "stdout": out, "stderr": err})
    return {"python": list(sys.version_info[:2]), "records": records}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
