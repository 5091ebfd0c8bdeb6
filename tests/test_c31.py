"""(3, 1)-burst code: classification, decode, search."""

import pytest

from burstcodes.c31 import (
    C31Params,
    c31_decode,
    c31_member,
    c31_param_search,
    classify_31,
)
from burstcodes.channel import BurstSpec, _burst_outputs, apply_burst
from burstcodes.codes import (
    PATTERN_000_TO_1,
    PATTERN_010_TO_1,
    PATTERN_101_TO_0,
    PATTERN_111_TO_0,
    TWO_BURST_DELETION,
)
from burstcodes.errors import DecodeFailure
from burstcodes.words import all_words, rsyn0, run_count, weights


def ground_truth(x, start, ins):
    """Error shape implied by the actual deleted block and inserted bit."""
    w = x[start - 1 : start + 2]
    if ins == w[0] or ins == w[2]:
        return TWO_BURST_DELETION
    return {
        ("000", "1"): PATTERN_000_TO_1,
        ("010", "1"): PATTERN_010_TO_1,
        ("111", "0"): PATTERN_111_TO_0,
        ("101", "0"): PATTERN_101_TO_0,
    }[(w, ins)]


def test_membership_worked_values():
    p = C31Params(4, 6, 0, 2, 4)
    assert c31_member("0101", p)
    assert not c31_member("0110", p)
    assert not c31_member("01011", p)


def test_decode_two_burst_worked():
    p = C31Params(4, 6, 0, 2, 4)
    y = apply_burst("0101", BurstSpec(3, 1, 1, "0"))
    assert y == "01"
    assert classify_31(y, p) == TWO_BURST_DELETION
    assert c31_decode(y, p) == "0101"


def test_decode_failure_message():
    # the one 000->1 candidate, 0000, has one run where the params ask for 0 mod 5
    with pytest.raises(DecodeFailure) as exc:
        c31_decode("01", C31Params(4, 0, 0, 0, 0))
    assert str(exc.value) == "c31_decode: no syndrome-consistent candidate"


def test_params_reject_odd_length():
    with pytest.raises(ValueError):
        C31Params(7, 0, 0, 0, 0)


def test_classify_rejects_impossible_deltas():
    # received weight pattern that no (3,1)-burst can cause
    with pytest.raises(DecodeFailure):
        classify_31("1111", C31Params(6, 0, 0, 0, 0))


def test_classify_rejects_wrong_length():
    with pytest.raises(ValueError):
        classify_31("01", C31Params(6, 0, 0, 0, 0))


def test_exhaustive_roundtrip_and_classification_n8():
    params, book = c31_param_search(8)
    assert book.size >= 2
    for x in book.members:
        for start in range(1, 7):
            for ins in "01":
                y = apply_burst(x, BurstSpec(3, 1, start, ins))
                assert classify_31(y, params) == ground_truth(x, start, ins)
                assert c31_decode(y, params) == x, (x, start, ins)


def test_pattern_cases_all_reachable_n10():
    params, book = c31_param_search(10)
    seen = set()
    for x in book.members:
        for start in range(1, 9):
            for ins in "01":
                y = apply_burst(x, BurstSpec(3, 1, start, ins))
                seen.add(classify_31(y, params))
                assert c31_decode(y, params) == x
    assert TWO_BURST_DELETION in seen
    assert seen & {
        PATTERN_000_TO_1,
        PATTERN_010_TO_1,
        PATTERN_111_TO_0,
        PATTERN_101_TO_0,
    }


def test_trace_fields():
    params, book = c31_param_search(8)
    x = book.members[0]
    y = apply_burst(x, BurstSpec(3, 1, 2, "1"))
    word, trace = c31_decode(y, params, trace=True)
    assert word == x
    assert trace.classification == ground_truth(x, 2, "1")
    assert trace.survivors == 1
    assert trace.candidates >= 1
    assert isinstance(trace.run_filter_decisive, bool)
    assert trace.d_run == (params.d - run_count(y)) % 5


def test_search_determinism_and_membership():
    a = c31_param_search(8)
    b = c31_param_search(8)
    assert a[0] == b[0] and a[1].members == b[1].members
    for x in a[1].members:
        assert c31_member(x, a[0])


def test_search_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        c31_param_search(9)
    with pytest.raises(ValueError):
        c31_param_search(2)


def overlapping_buckets(n, a_mod, with_d):
    """Buckets of length-n words keyed by rsyn0 mod a_mod, the odd and even
    weights mod 4 and, with_d, the run count mod 5: how many of them hold
    two words whose (3, 1)-balls meet, how many there are, and the
    smallest such pair x < y of any bucket (None when there is none).

    Keys come from words.*, not from the search's rows, so the test
    stands apart from the automata it audits."""
    buckets = {}
    for x in all_words(n):
        w = weights(x)
        key = (rsyn0(x) % a_mod, w.odd % 4, w.even % 4)
        if with_d:
            key += (run_count(x) % 5,)
        buckets.setdefault(key, []).append(x)
    bad, pairs = 0, []
    for xs in buckets.values():
        # each output's owner is the smallest word reaching it, so the
        # smallest overlapping pair is among the (owner, x) recorded
        owner, hit = {}, False
        for x in xs:
            for out in _burst_outputs(int(x, 2), n, 3, 1):
                if owner.setdefault(out, x) != x:
                    pairs.append((owner[out], x))
                    hit = True
        bad += hit
    return bad, len(buckets), min(pairs, default=None)


@pytest.mark.parametrize(
    "n, a_mod, with_d, expected",
    [
        # the code's congruences: every bucket disjoint
        (8, 32, True, (0, 226, None)),
        (10, 40, True, (0, 638, None)),
        (12, 48, True, (0, 1338, None)),
        # without the run count d, broken from n = 8 on
        (8, 32, False, (1, 151, ("01011111", "11110101"))),
        (10, 40, False, (32, 286, ("0000100100", "0110000000"))),
        (12, 48, False, (149, 384, ("000000100100", "000110000000"))),
        # rsyn0 mod 2n instead of 4n, broken from n = 12 on
        (8, 16, True, (0, 216, None)),
        (10, 20, True, (0, 544, None)),
        (12, 24, True, (16, 880, ("000000001010", "001010000000"))),
    ],
    ids=[f"{kind}-n{n}" for kind in ("code", "no-d", "a-mod-2n") for n in (8, 10, 12)],
)
def test_weakened_constants_break_disjointness(n, a_mod, with_d, expected):
    assert overlapping_buckets(n, a_mod, with_d) == expected
