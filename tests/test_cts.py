"""Interleaved (t, s)-burst construction: worked decode, alignment, roundtrips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstcodes.channel import BurstSpec, apply_burst, ball
from burstcodes.codes import c21rll_decode, pigeonhole_search, rll_max_run
from burstcodes.cts import (
    CtsParams,
    _in_ball,
    column_window,
    cts_decode,
    cts_member,
    cts_param_search,
    window_capacity,
)
from burstcodes.errors import DecodeFailure, DecodingError
from burstcodes.words import all_words, deinterleave, interleave, vt_syndrome


def consistent_starts(row_x, row_y):
    """Starts p where row_x = row_y[:p-1] + pair + row_y[p:] for some pair."""
    return [
        p
        for p in range(1, len(row_x))
        if row_y[: p - 1] == row_x[: p - 1] and row_y[p:] == row_x[p + 1 :]
    ]


WORKED = CtsParams.derive(15, 4, 1, a=1, b=3, row_params=((7, 2), (10, 0)))


def test_worked_params_accept_the_codeword():
    assert WORKED.k == 3 and WORKED.m == 5
    assert WORKED.f == 6 and WORKED.P == 7
    assert cts_member("101011001101110", WORKED)


def test_worked_decode():
    x = "101011001101110"
    y = apply_burst(x, BurstSpec(4, 1, 6, "0"))
    assert y == "101010101110"
    assert cts_decode(y, WORKED) == x


def test_decode_refuses_a_row_1_outside_the_run_cap():
    # row 1 of 0000000 decodes to 00000000, a run of 8 over the cap f = 6
    params = CtsParams.derive(8, 2, 1, 0, 0)
    assert params.f == 6
    with pytest.raises(DecodeFailure, match="^row 1 decoded outside the run cap$"):
        cts_decode("0000000", params)


def _decoded(decode):
    """What decode() returns, or the refusal it raises."""
    try:
        return decode()
    except DecodingError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_c21rll_is_the_one_row_construction():
    # at its default cap, c21rll's book and decoder are cts's at (n, 2, 1)
    n = 12
    params, book = cts_param_search(n, 2, 1)
    rll, rll_book = pigeonhole_search("c21rll", n)
    assert rll == {"a": params.a, "b": params.b, "f": params.f}
    assert rll_book.members == book.members
    for y in all_words(n - 1):
        one_row = _decoded(lambda: cts_decode(y, params))
        rll_row = _decoded(lambda: c21rll_decode(y, rll["a"], rll["b"], n).word)
        # the same word or refusal, each refusal naming the decoder called
        assert "c21_decode" not in one_row + rll_row, y
        assert rll_row.replace("c21rll_decode:", "cts_decode:") == one_row, y


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError):
        cts_decode("101010101", WORKED)


def test_params_validation():
    with pytest.raises(ValueError):
        CtsParams.derive(12, 3, 2, 0, 0, ((0, 0),))  # t < 2s
    with pytest.raises(ValueError):
        CtsParams.derive(13, 4, 1, 0, 0, ((0, 0), (0, 0)))  # 3 does not divide 13
    with pytest.raises(ValueError):
        CtsParams.derive(12, 4, 1, 0, 0, ((0, 0),))  # needs 2 row pairs


def test_window_capacity_rule():
    assert window_capacity(5, 1) == rll_max_run(5) + 1
    assert window_capacity(6, 2) == rll_max_run(6) + 2


def _roundtrip_all_bursts(n, t, s):
    params, book = cts_param_search(n, t, s)
    assert book.size >= 1
    for x in book.members:
        assert cts_member(x, params)
        for start in range(1, n - t + 2):
            for ins in all_words(s):
                y = apply_burst(x, BurstSpec(t, s, start, ins))
                assert cts_decode(y, params) == x, (x, start, ins)
    return params, book


def test_roundtrip_8_3_1():
    _roundtrip_all_bursts(8, 3, 1)


def test_roundtrip_8_4_2():
    # s = 2 exercises the widened deletion window
    _roundtrip_all_bursts(8, 4, 2)


def test_roundtrip_degenerate_single_row():
    # t - s = 1: the whole word is row 1
    params, book = _roundtrip_all_bursts(6, 2, 1)
    assert params.k == 1 and params.row_params == ()


def test_directed_window_edge():
    # row 1's burst imitates a deletion at the front of a run, and the rows
    # below need the s >= 2 widening of its window to column 2
    x = "00000010"
    params = CtsParams.derive(8, 4, 2, 4, 1, ((0, 0),))
    assert cts_member(x, params)
    y = apply_burst(x, BurstSpec(4, 2, 4, "10"))
    word, trace = cts_decode(y, params, trace=True)
    assert word == x
    assert trace.column_window == (2, 4)


@st.composite
def long_cts_bursts(draw):
    """A burst on a word of length 60..256 whose row 1 respects the run cap."""
    t, s = draw(st.sampled_from(((3, 1), (4, 2), (5, 1), (6, 2))))
    k = t - s
    m = draw(st.integers(-(-60 // k), 256 // k))
    runs = draw(st.lists(st.integers(1, rll_max_run(m)), min_size=m, max_size=m))
    first = draw(st.integers(0, 1))
    row1 = "".join("01"[(first + i) % 2] * r for i, r in enumerate(runs))[:m]
    rows = [row1] + [draw(st.text("01", min_size=m, max_size=m)) for _ in range(k - 1)]
    start = draw(st.integers(1, k * m - t + 1))
    return t, s, rows, start, draw(st.text("01", min_size=s, max_size=s))


@settings(max_examples=150, deadline=None)
@given(long_cts_bursts())
def test_sampled_long_roundtrips(args):
    # every bucket is a code, so each row's own syndromes decode x back
    t, s, rows, start, ins = args
    x = deinterleave(rows)
    n, m = len(x), len(rows[0])
    mod = 2 * window_capacity(m, s) - 1
    row_params = tuple((vt_syndrome(r) % mod, r.count("1") % 4) for r in rows[1:])
    a, b = vt_syndrome(rows[0]) % (2 * m - 1), rows[0].count("1") % 4
    params = CtsParams.derive(n, t, s, a, b, row_params)
    assert cts_member(x, params)
    y = apply_burst(x, BurstSpec(t, s, start, ins))
    assert cts_decode(y, params) == x, (x, t, s, start, ins)


def test_seeded_roundtrips_at_256_4_2():
    # two rows of 128; row 1 is redrawn until it respects the run cap
    n, t, s = 256, 4, 2
    m = n // (t - s)
    f, mod = rll_max_run(m), 2 * window_capacity(m, s) - 1
    rng = random.Random(2561)
    for _ in range(10):
        row1 = format(rng.getrandbits(m), f"0{m}b")
        while "0" * (f + 1) in row1 or "1" * (f + 1) in row1:
            row1 = format(rng.getrandbits(m), f"0{m}b")
        row2 = format(rng.getrandbits(m), f"0{m}b")
        x = deinterleave([row1, row2])
        params = CtsParams.derive(
            n, t, s, vt_syndrome(row1) % (2 * m - 1), row1.count("1") % 4,
            ((vt_syndrome(row2) % mod, row2.count("1") % 4),),
        )
        for _ in range(5):
            start, ins = rng.randint(1, n - t + 1), format(rng.getrandbits(s), f"0{s}b")
            y = apply_burst(x, BurstSpec(t, s, start, ins))
            assert cts_decode(y, params) == x, (x, start, ins)


def test_the_ball_check_matches_the_burst_definition():
    # y is one (t, s)-burst of x exactly when some start i keeps x's
    # symbols before i and after the t deleted ones; a received word of
    # the construction is never empty
    for n in range(1, 7):
        for t in range(n + 1):
            for s in range(t == n, t + 1):
                for x in all_words(n):
                    for y in all_words(n - t + s):
                        found = any(
                            x[:i] == y[:i] and x[i + t :] == y[i + s :] for i in range(n - t + 1)
                        )
                        assert _in_ball(x, y, t) == found, (x, y, t, s)


@pytest.mark.parametrize("t, s", [(4, 2), (3, 1)])
def test_every_received_word_decodes_to_its_ball_or_is_refused(t, s):
    # each y of length n - t + s in a codeword's ball decodes to that
    # codeword, and each y in no ball raises, never returning a codeword
    n = 12
    params, book = cts_param_search(n, t, s)
    owner = {y: x for x in book.members for y in ball(x, t, s).members}
    for y in all_words(n - t + s):
        if y in owner:
            assert cts_decode(y, params) == owner[y], y
        else:
            with pytest.raises(DecodingError):
                cts_decode(y, params)


def test_search_meets_pigeonhole_average():
    from burstcodes.codes import rll_member

    params, book = cts_param_search(10, 3, 1)
    m, P = params.m, params.P
    eligible = sum(
        1 for x in all_words(10) if rll_member(interleave(x, params.k)[0], params.f)
    )
    buckets = (2 * m - 1) * 4 * ((2 * P - 1) * 4) ** (params.k - 1)
    assert eligible == 2**10  # cap 6 exceeds the row length, nothing excluded
    assert book.size >= -(-eligible // buckets)


def test_row_alignment_and_window_sufficiency():
    # every decode sees rows that are one deletion or one (2,1)-burst away,
    # and the column window derived from row 1 always contains a consistent
    # start for every other row
    for (n, t, s) in ((8, 3, 1), (8, 4, 2)):
        params, book = cts_param_search(n, t, s)
        k, m = params.k, params.m
        for x in book.members:
            rows_x = interleave(x, k)
            for start in range(1, n - t + 2):
                for ins in all_words(s):
                    y = apply_burst(x, BurstSpec(t, s, start, ins))
                    rows_y = tuple(y[i::k] for i in range(k))
                    from burstcodes.codes import c21_decode

                    out1 = c21_decode(rows_y[0], params.a, params.b, m)
                    assert out1.word == rows_x[0]
                    win = column_window(out1, s, m)
                    for i in range(1, k):
                        ps = consistent_starts(rows_x[i], rows_y[i])
                        assert ps, "row alignment broken"
                        assert any(
                            win[0] <= p <= win[1] for p in ps
                        ), (x, start, ins, i, win, ps)


def test_search_determinism():
    a = cts_param_search(8, 4, 2)
    b = cts_param_search(8, 4, 2)
    assert a[0] == b[0]
    assert a[1].members == b[1].members
