"""cts_decode against the public row decoders it is built from.

`ref_cts_decode` decodes row 1 with the public `c21_decode` (a refusal
there names `cts_decode`, the decoder called), checks its run cap,
decodes every other row with the public `svt21_decode` over
`column_window`, and returns the rows joined only when `ball` of the
word holds y.  The package decodes the rows through their unchecked
cores and tests the ball from the common prefix and suffix.  On every
received word at n = 12, with the searched params, both must return the
same word or raise the same exception type with the same message.
"""

import pytest

from burstcodes.channel import ball
from burstcodes.codes import c21_decode, rll_member, svt21_decode
from burstcodes.cts import column_window, cts_decode, cts_param_search
from burstcodes.errors import DecodeAmbiguity, DecodeFailure, DecodingError
from burstcodes.words import all_words, deinterleave, interleave


def ref_cts_decode(y: str, params) -> str:
    k, m = params.k, params.m
    rows_y = interleave(y, k)
    try:
        out1 = c21_decode(rows_y[0], params.a, params.b, m)
    except DecodingError as exc:
        # a refusal names the decoder called, which is cts_decode
        raise type(exc)(str(exc).replace("c21_decode:", "cts_decode:", 1)) from None
    if not rll_member(out1.word, params.f):
        raise DecodeFailure("row 1 decoded outside the run cap")
    window = column_window(out1, params.s, m)
    rows_x = [out1.word] + [
        svt21_decode(row, c, d, params.P, window, m)
        for row, (c, d) in zip(rows_y[1:], params.row_params)
    ]
    word = deinterleave(rows_x)
    if y not in ball(word, params.t, params.s).member_set():
        raise DecodeFailure("cts_decode: no (t, s)-burst of the decoded word gives y")
    return word


def outcome(decode, *args):
    """The decode's result, or the type and message of what it raised."""
    try:
        return decode(*args)
    except (ValueError, DecodingError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("t,s", [(4, 2), (3, 1), (4, 1)])
def test_cts_matches_the_public_row_decoders_on_every_received_word(t, s):
    n = 12
    params, _ = cts_param_search(n, t, s)
    kinds = set()
    for y in all_words(n - t + s):
        got, want = outcome(cts_decode, y, params), outcome(ref_cts_decode, y, params)
        assert got == want, y
        kinds.add(want[0] if isinstance(want, tuple) else "decoded")
    # words decode, and others fail; no row is ever ambiguous
    assert "decoded" in kinds and DecodeFailure in kinds
    assert DecodeAmbiguity not in kinds and ValueError not in kinds
