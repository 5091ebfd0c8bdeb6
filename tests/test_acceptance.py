"""Full-system checks: every guarantee the package makes, end to end.

One test per numbered guarantee, shared searches cached per session.
These are the slow, exhaustive sweeps; the per-module suites cover the
fast worked examples.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burstcodes
from burstcodes import (
    BurstSpec,
    apply_burst,
    ball,
    c21_decode,
    c31_decode,
    c31_param_search,
    cts_decode,
    cts_param_search,
    max_run_length,
    pigeonhole_search,
    refined_ball,
    sphere_packing_bound,
    svt21_decode,
    verify_ball_laws,
    verify_disjoint,
    verify_equivalence,
    verify_roundtrip,
)
from burstcodes.c31 import (
    PATTERN_000_TO_1,
    PATTERN_010_TO_1,
    PATTERN_101_TO_0,
    PATTERN_111_TO_0,
    TWO_BURST_DELETION,
)
from burstcodes.words import all_words

CTS_COMBOS = ((12, 4, 1), (15, 4, 1), (12, 3, 1), (12, 4, 2))
C31_LENGTHS = (8, 10, 12, 14, 16)
C21_LENGTHS = range(6, 13)

# ------------------------------------------------------- shared sweeps


@pytest.fixture(scope="session")
def ball_reports():
    return verify_ball_laws(range(4, 13), t_max=4, s_max=4)


@pytest.fixture(scope="session")
def c21_books():
    return {n: pigeonhole_search("c21", n) for n in C21_LENGTHS}


@pytest.fixture(scope="session")
def cts_books():
    return {combo: cts_param_search(*combo) for combo in CTS_COMBOS}


@pytest.fixture(scope="session")
def c31_books():
    return {n: c31_param_search(n) for n in C31_LENGTHS}


# ------------------------------------------------------ 1..3 ball laws


def test_01_ball_size_law(ball_reports):
    rep = ball_reports["size"]
    assert rep.verdict, rep.witness
    assert rep.counts["failures"] == 0
    assert rep.counts["words"] == sum(2**n for n in range(4, 13))


def test_02_refined_partition(ball_reports):
    rep = ball_reports["partition"]
    assert rep.verdict, rep.witness
    assert rep.counts["failures"] == 0


def test_03_refined_size_formulas(ball_reports):
    rep = ball_reports["refined-size"]
    assert rep.verdict, rep.witness
    assert rep.counts["formula_checks"] > 0
    assert rep.counts["failures"] == 0


# --------------------------------------------------- 4 worked examples


def test_04_worked_examples_bit_exact():
    assert ball("101000111", 4, 1).members == (
        "000111", "100111", "101000", "101001", "101011", "101111", "110111",
    )

    split_a = refined_ball("101011100100", 3, 0)
    split_b = refined_ball("101011100100", 4, 1)
    assert split_a.size == 6 and split_b.size == 4
    assert split_a.member_set() | split_b.member_set() == ball(
        "101011100100", 4, 1
    ).member_set()

    from burstcodes import CtsParams

    params = CtsParams.derive(15, 4, 1, 1, 3, ((7, 2), (10, 0)))
    assert cts_decode("101010101110", params) == "101011001101110"

    # overlapping-ball witnesses: these pairs cannot share a codebook
    assert "11100" in ball("00100", 2, 2).member_set()
    assert "11100" in ball("11111", 2, 2).member_set()
    assert "011" in ball("11111", 3, 1).member_set()
    assert "011" in ball("01010", 3, 1).member_set()


# ------------------------------------------------- 5 (2,1)-burst codes


def test_05_c21_codebooks(c21_books):
    for n, (params, book) in c21_books.items():
        a, b = params["a"], params["b"]
        assert verify_disjoint(book.members, 2, 1).verdict, n
        rep = verify_roundtrip(
            book.members, 2, 1, lambda y: c21_decode(y, a, b, n).word
        )
        assert rep.verdict, (n, rep.witness)
        assert book.redundancy <= math.log2(n) + 3 + 1, (n, book.redundancy)
        print(f"c21 n={n}: size {book.size}, redundancy {book.redundancy:.4f}")


# ------------------------------------------------- 6 windowed (2,1)


def test_06_svt21_every_window_placement():
    for n in range(6, 13):
        for P in (3, 4, 6):
            params, book = pigeonhole_search("svt21", n, P=P)
            c, d = params["c"], params["d"]
            for x in book.members:
                for q in range(1, n):
                    for ins in "01":
                        y = x[: q - 1] + ins + x[q + 1 :]
                        for lo in range(max(1, q - P + 1), q + 1):
                            got = svt21_decode(y, c, d, P, (lo, lo + P - 1), n)
                            assert got == x, (n, P, x, q, ins, lo)
            assert book.redundancy <= math.log2(P) + 3, (n, P, book.redundancy)


# ------------------------------------------------------ 7 run-cap size


def test_07_run_capped_words_fill_half_the_space():
    for n in range(8, 17):
        f = (n - 1).bit_length() + 3
        count = sum(1 for x in all_words(n) if max_run_length(x) <= f)
        assert count >= 2 ** (n - 1), (n, f, count)


# -------------------------------------------- 8 interleaved (t,s) code


def test_08_cts_codebooks(cts_books):
    for (n, t, s), (params, book) in cts_books.items():
        k, m = params.k, params.m
        assert verify_disjoint(book.members, t, s).verdict, (n, t, s)
        rep = verify_roundtrip(
            book.members, t, s, lambda y: cts_decode(y, params)
        )
        assert rep.verdict, (n, t, s, rep.witness)
        # every corruption keeps the array aligned: k rows, m-1 columns
        for x in book.members:
            for pos in range(1, n - t + 2):
                for ins in all_words(s):
                    y = apply_burst(x, BurstSpec(t, s, pos, ins))
                    assert len(y) == n - k
                    assert all(len(y[i::k]) == m - 1 for i in range(k))
        print(f"cts (n={n},t={t},s={s}): size {book.size}, "
              f"redundancy {book.redundancy:.4f}")


# --------------------------------------------------- 9 the (3,1) code


def _burst31_class(x: str, start: int, ins: str) -> str:
    """What a (3,1)-burst at this spot really did, from the corruption
    itself: reusable boundary symbol means a plain two-deletion burst,
    otherwise one of the four substitution patterns."""
    w = x[start - 1 : start + 2]
    if ins == w[0] or ins == w[2]:
        return TWO_BURST_DELETION
    return {
        ("000", "1"): PATTERN_000_TO_1,
        ("010", "1"): PATTERN_010_TO_1,
        ("111", "0"): PATTERN_111_TO_0,
        ("101", "0"): PATTERN_101_TO_0,
    }[(w, ins)]


def test_09_c31_codebooks(c31_books):
    for n, (params, book) in c31_books.items():
        assert verify_disjoint(book.members, 3, 1).verdict, n
        ambiguities = 0
        for x in book.members:
            for start in range(1, n - 1):
                for ins in "01":
                    y = apply_burst(x, BurstSpec(3, 1, start, ins))
                    word, trace = c31_decode(y, params, trace=True)
                    assert word == x, (n, x, start, ins)
                    assert trace.classification == _burst31_class(x, start, ins), (
                        n, x, start, ins, trace.classification,
                    )
                    if trace.survivors > 1:
                        ambiguities += 1
        assert ambiguities == 0
        assert book.redundancy <= math.log2(n) + 9, (n, book.redundancy)
        assert book.size >= -(-(2**n) // (320 * n)), (n, book.size)
        assert book.size <= (2 ** (n - 2)) // (n - 1), (n, book.size)
        assert sphere_packing_bound(n, 3, 1) == (2 ** (n - 2)) // (n - 1)
        print(f"c31 n={n}: size {book.size}, redundancy {book.redundancy:.4f}")


# -------------------------------------- 10 channel-direction symmetry


def test_10_swapped_burst_equivalence(c21_books, cts_books, c31_books):
    suites = []
    for n, (_, book) in c21_books.items():
        suites.append((book, 2, 1))
    for (n, t, s), (_, book) in cts_books.items():
        if n <= 12:
            suites.append((book, t, s))
    for n, (_, book) in c31_books.items():
        if n <= 12:
            suites.append((book, 3, 1))
    for book, t, s in suites:
        rep = verify_equivalence(book.members, t, s)
        assert rep.verdict and rep.counts == {
            "forward_pass": 1,
            "swapped_pass": 1,
        }, (book.family, book.n, t, s)

    for pair, (t, s) in ((("00100", "11111"), (2, 2)), (("11111", "01010"), (3, 1))):
        assert not verify_disjoint(pair, t, s).verdict
        assert not verify_disjoint(pair, s, t).verdict


# --------------------------------------------- 11 reproducible trials


def test_11_simulator_byte_identical():
    # the second run goes through the package's own entry point, so the
    # module and the package print the same bytes
    args = ["simulate", "c31", "--n", "12", "--trials", "10000", "--seed", "7"]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    first, second = (
        subprocess.run([sys.executable, "-m", entry, *args],
                       cwd=root, env=env, capture_output=True, timeout=600)
        for entry in ("burstcodes.cli", "burstcodes")
    )
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert b"success 10000/10000" in first.stdout


# --------------------------------------------- 12 public names


def test_12_every_public_name_resolves():
    assert [name for name in burstcodes.__all__ if not hasattr(burstcodes, name)] == []
