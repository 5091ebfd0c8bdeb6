"""Every received word, for every decoder whose family needs no window.

At n = 12 each y of length n - t + s is tried against the searched book:
a y in a codeword's (t, s)-ball decodes to that codeword, and a y in no
ball raises DecodingError, never returning a codeword.  The cts case is
in tests/test_cts.py.
"""

import pytest

from burstcodes.channel import ball
from burstcodes.errors import DecodingError
from burstcodes.families import FAMILIES
from burstcodes.words import all_words


@pytest.mark.parametrize(
    "family,t,s",
    [("vt", 1, 0), ("lev2", 1, 0), ("lev2", 2, 0), ("c21", 2, 1), ("c21rll", 2, 1),
     ("c31", 3, 1)],
)
def test_every_received_word_decodes_to_its_ball_or_is_refused(family, t, s):
    n = 12
    fam = FAMILIES[family]
    params, book = fam.search(n, t, s, None, None)
    balls = [(x, ball(x, t, s).members) for x in book.members]
    owner = {y: x for x, members in balls for y in members}
    assert len(owner) == sum(len(members) for _, members in balls)  # disjoint
    for y in all_words(n - t + s):
        if y in owner:
            assert fam.decode(y, params, n, None).word == owner[y], y
        else:
            with pytest.raises(DecodingError):
                fam.decode(y, params, n, None)
