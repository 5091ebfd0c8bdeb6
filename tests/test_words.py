"""Word primitives: frozen examples plus structural properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from burstcodes.words import (
    all_words,
    check_word,
    deinterleave,
    interleave,
    rsyn0,
    run_count,
    run_profile,
    vt_syndrome,
    weights,
)

words_st = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=2**n - 1))
).map(lambda p: format(p[1], f"0{p[0]}b"))


def test_run_profile_reference_word():
    p = run_profile("1101110000")
    assert p.runs == (0, 0, 1, 2, 2, 2, 3, 3, 3, 3)
    assert p.count == 4
    assert p.rsyn == 19


def test_run_profile_single_runs():
    assert run_profile("0").runs == (0,)
    assert run_profile("1111").rsyn == 0
    assert run_profile("0101").count == 4


def test_run_profile_rejects_empty():
    with pytest.raises(ValueError):
        run_profile("")


def test_rsyn0_frozen_values():
    assert rsyn0("1101110000") == 29
    assert rsyn0("1111") == 4
    assert rsyn0("") == 0
    assert rsyn0("0101") == 6


def test_vt_syndrome_frozen_values():
    assert vt_syndrome("1101110000") == 1 + 2 + 4 + 5 + 6
    assert vt_syndrome("") == 0
    assert vt_syndrome("10011") == 10


def test_weights_frozen():
    w = weights("101000111")
    assert (w.total, w.odd, w.even) == (5, 4, 1)
    assert weights("").total == 0


def test_interleave_three_rows():
    assert interleave("101011100100", 3) == ("1011", "0100", "1100")
    assert interleave("101010101110", 3) == ("1011", "0101", "1010")


def test_interleave_identity_row():
    assert interleave("0110", 1) == ("0110",)


def test_interleave_rejects_bad_shapes():
    with pytest.raises(ValueError):
        interleave("01101", 2)
    with pytest.raises(ValueError):
        interleave("0110", 0)
    with pytest.raises(ValueError):
        interleave("", 1)


def test_deinterleave_reassembles():
    assert deinterleave(("10011", "01001", "11110")) == "101011001101110"
    assert deinterleave(("10", "01")) == "1001"


def test_deinterleave_rejects_ragged_rows():
    with pytest.raises(ValueError):
        deinterleave(("10", "011"))


def test_empty_inputs():
    assert run_count("") == 0
    with pytest.raises(ValueError, match="^need at least one row$"):
        deinterleave([])


def test_roundtrip_exhaustive_small():
    # every word of length <= 12, every divisor row count
    for n in range(1, 13):
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        for x in all_words(n):
            for k in divisors:
                assert deinterleave(interleave(x, k)) == x


def test_check_word_rejects_junk():
    with pytest.raises(ValueError):
        check_word("01021")
    with pytest.raises(ValueError):
        check_word(b"0101")  # type: ignore[arg-type]


def test_all_words_order_and_count():
    ws = list(all_words(3))
    assert ws == ["000", "001", "010", "011", "100", "101", "110", "111"]
    assert list(all_words(0)) == [""]


@given(words_st)
def test_vt_syndrome_bounded(x):
    n = len(x)
    assert 0 <= vt_syndrome(x) <= n * (n + 1) // 2


@given(words_st, st.sampled_from("01"))
def test_rsyn_extension_rule(x, a):
    # appending a symbol equal to the last one adds the last run index;
    # appending the other symbol adds one more than that
    p = run_profile(x)
    q = run_profile(x + a)
    if a == x[-1]:
        assert q.rsyn == p.rsyn + p.runs[-1]
        assert q.count == p.count
    else:
        assert q.rsyn == p.rsyn + p.runs[-1] + 1
        assert q.count == p.count + 1


@given(words_st)
def test_weights_split(x):
    w = weights(x)
    assert w.total == w.odd + w.even == x.count("1")


@given(words_st)
def test_run_count_matches_profile(x):
    assert run_count(x) == run_profile(x).count
