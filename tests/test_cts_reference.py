"""cts_decode against the public row decoders it is built from.

`ref_cts_decode` decodes row 1 with the public `c21_decode` (a refusal
there names `cts_decode`, the decoder called), checks its run cap,
decodes every other row with the public `svt21_decode` over
`column_window`, and returns the rows joined only when `ball` of the
word holds y, with the trace built from those public results when
asked.  The package reads every row's VT sum and weight from one int of
y and runs the splice solve on each row directly, and tests the ball
from the common prefix and suffix.  On every received word, with the
searched params, both must return the same word and trace, or raise the
same exception type with the same message: at n = 12, at the benchmark's
shapes (15, 4, 1) and (16, 4, 2), and with four rows at (12, 6, 2).

The row sums themselves are checked against `words.vt_syndrome` and a
count of each row's 1s.
"""

import random

import pytest

from burstcodes.channel import ball
from burstcodes.codes import c21_decode, rll_member, svt21_decode
from burstcodes.cts import (
    CtsTrace,
    _row_masks,
    _row_sums,
    column_window,
    cts_decode,
    cts_param_search,
)
from burstcodes.errors import DecodeAmbiguity, DecodeFailure, DecodingError
from burstcodes.words import all_words, deinterleave, interleave, vt_syndrome


def ref_cts_decode(y: str, params, trace: bool = False):
    k, m = params.k, params.m
    rows_y = interleave(y, k)
    try:
        out1 = c21_decode(rows_y[0], params.a, params.b, m)
    except DecodingError as exc:
        # a refusal names the decoder called, which is cts_decode
        raise type(exc)(str(exc).replace("c21_decode:", "cts_decode:", 1)) from None
    if not rll_member(out1.word, params.f):
        raise DecodeFailure("row 1 decoded outside the run cap")
    window = column_window(out1, params.s, m) if k > 1 else None
    rows_x = [out1.word] + [
        svt21_decode(row, c, d, params.P, window, m)
        for row, (c, d) in zip(rows_y[1:], params.row_params)
    ]
    word = deinterleave(rows_x)
    if y not in ball(word, params.t, params.s).member_set():
        raise DecodeFailure("cts_decode: no (t, s)-burst of the decoded word gives y")
    return (word, CtsTrace(out1, window, tuple(rows_x))) if trace else word


def outcome(decode, *args, **kwargs):
    """The decode's result, or the type and message of what it raised."""
    try:
        return decode(*args, **kwargs)
    except (ValueError, DecodingError) as exc:
        return type(exc), str(exc)


def check_every_received_word(n: int, t: int, s: int) -> None:
    params, _ = cts_param_search(n, t, s)
    kinds = set()
    for y in all_words(n - t + s):
        traced = outcome(ref_cts_decode, y, params, trace=True)
        decoded = isinstance(traced[0], str)
        assert outcome(cts_decode, y, params) == (traced[0] if decoded else traced), y
        got = outcome(cts_decode, y, params, trace=True)
        assert got == traced, y
        if decoded:
            # field by field, so a mismatch names the field
            trace, ref = got[1], traced[1]
            assert (trace.row1, trace.column_window, trace.rows) == (
                ref.row1, ref.column_window, ref.rows
            ), y
        kinds.add("decoded" if decoded else traced[0])
    # words decode, and others fail; no row is ever ambiguous
    assert "decoded" in kinds and DecodeFailure in kinds
    assert DecodeAmbiguity not in kinds and ValueError not in kinds


@pytest.mark.parametrize("t,s", [(4, 2), (3, 1), (4, 1)])
def test_cts_matches_the_public_row_decoders_on_every_received_word(t, s):
    check_every_received_word(12, t, s)


@pytest.mark.parametrize("n,t,s", [(15, 4, 1), (16, 4, 2), (12, 6, 2)])
def test_cts_matches_the_public_row_decoders_at_benchmark_and_four_row_shapes(n, t, s):
    check_every_received_word(n, t, s)


def row_sums_match(y: str, k: int) -> None:
    sums = _row_sums(int(y, 2), _row_masks(k, len(y)))
    want = [(vt_syndrome(y[i::k]), y[i::k].count("1")) for i in range(k)]
    assert sums == want, (y, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_row_sums_match_each_rows_vt_sum_and_weight(k):
    for n in range(1, 13):
        for y in all_words(n):
            row_sums_match(y, k)


@pytest.mark.parametrize("n", [256, 1024])
def test_row_sums_match_on_long_words(n):
    rng = random.Random(3400 + n)
    for _ in range(20):
        y = format(rng.getrandbits(n), f"0{n}b")
        for k in (1, 2, 3, 4, rng.randint(5, 40)):
            row_sums_match(y, k)
