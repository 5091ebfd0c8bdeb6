"""lev2's per-class solve against the per-candidate loop it replaced.

`ref_lev2_candidates` is that loop: it tries every insert at every
position of y, n + 1 of them for one deletion and 2n for two, skipping
an insert whose first bit is the next symbol of y (the next position
gives its word), and checks each from prefix sums of y's transitions.
`codes._lev2_core` solves the congruence per window class instead, one
division at run starts and one bisection inside runs.  Both must return
the same dict of words and insert positions for every y of length
n - 1 and n - 2 and every residue up to n = 10, and on seeded words at
n = 64, 256 and 1024, long runs and plain draws alike.

`codes._transitions` reads y's transitions and their rsyn0 terms from
popcounts: the terms n + 1 - i sum to (n + 1) t less the VT sum of the
transition mask.  `ref_transitions` counts the transitions of 0y one by
one instead.
"""

import random
from functools import cache
from itertools import accumulate, product
from operator import mul, ne

import pytest

from burstcodes.codes import _lev2_core, _transitions
from burstcodes.words import all_words, rsyn0


def ref_transition_sums(y: str, n: int) -> tuple[list[int], list[int]]:
    flips = list(map(ne, "0" + y, y))  # flips[i - 1]: y_i != y_{i-1}
    head_a = list(accumulate(map(mul, flips, range(n, n - len(y), -1)), initial=0))
    return head_a, list(accumulate(flips, initial=0))


@cache
def ref_window_flips(w: str) -> tuple[int, int]:
    ks = [k for k in range(len(w) - 1) if w[k] != w[k + 1]]
    return len(ks), sum(ks)


@cache
def ref_insert_windows(k: int) -> dict:
    inserts = ["".join(bits) for bits in product("01", repeat=k)]
    return {
        (left, right): tuple((ins, *ref_window_flips(left + ins + right))
                             for ins in inserts if ins[0] != right)
        for left in "01" for right in ("0", "1", "")
    }


def ref_lev2_candidates(y: str, a: int, n: int) -> dict:
    m, k, mod = len(y), n - len(y), 2 * n
    head_a, head_t = ref_transition_sums(y, n)
    windows = ref_insert_windows(k)
    seen = {}
    for p in range(m + 1):
        # the suffix's own transitions sit at y coordinates p + 2..m
        j = p + 1 if p < m else m
        base = head_a[p] + head_a[m] - head_a[j] - k * (head_t[m] - head_t[j])
        for ins, cnt, offs in windows[y[p - 1] if p else "0", y[p : p + 1]]:
            if (base + cnt * (n - p) - offs) % mod == a:
                seen[y[:p] + ins + y[p:]] = p
    return seen


@pytest.mark.parametrize("n", range(1, 11))
def test_core_matches_the_loop_exhaustively(n):
    found = 0
    for m in (n - 1, n - 2):
        for y in all_words(m) if m >= 0 else ():
            # every candidate lands in one residue, so the dicts over all
            # residues hold every candidate once
            for a in range(2 * n):
                want = ref_lev2_candidates(y, a, n)
                assert _lev2_core(y, a, n) == want, (y, a)
                found += len(want)
    # n + 1 candidates per word of length n - 1, 2n per word of length n - 2
    assert found == 2 ** (n - 1) * (n + 1) + (2 ** (n - 2) * 2 * n if n >= 2 else 0)


@pytest.mark.parametrize(
    "n, a, want",
    [
        (1, 0, {"0": 0}),
        (1, 1, {"1": 0}),
        (2, 0, {"00": 0}),
        (2, 1, {"01": 0}),
        (2, 2, {"11": 0}),
        (2, 3, {"10": 0}),
    ],
)
def test_empty_received_word(n, a, want):
    # all n bits went missing: the words of length n whose rsyn0 is a
    assert want == {x: 0 for x in all_words(n) if rsyn0(x) % (2 * n) == a}
    assert _lev2_core("", a, n) == ref_lev2_candidates("", a, n) == want


def seeded_word(rng: random.Random, m: int, runs: bool) -> str:
    """A word of length m: fair bits, or runs of 1..8 equal bits."""
    if not runs:
        return "".join(rng.choice("01") for _ in range(m))
    out, bit = [], rng.choice("01")
    while len(out) < m:
        out += bit * rng.randint(1, 8)
        bit = "1" if bit == "0" else "0"
    return "".join(out[:m])


@pytest.mark.parametrize("n, draws", [(64, 24), (256, 8), (1024, 2)])
def test_core_matches_the_loop_on_seeded_words(n, draws):
    rng = random.Random(3200 + n)
    # one run, alternation, and bursts of seeded words, which must give
    # their word back under its own syndrome
    ys = ["0" * (n - 1), "1" * (n - 2), ("01" * n)[: n - 1], ("10" * n)[: n - 2]]
    for i in range(draws):
        x = seeded_word(rng, n, i % 2 == 0)
        k = rng.choice((1, 2))
        p = rng.randrange(n - k + 1)
        ys.append(x[:p] + x[p + k:])
        assert x in _lev2_core(ys[-1], rsyn0(x) % (2 * n), n)
    for y in ys:
        for a in rng.sample(range(2 * n), 6):
            assert _lev2_core(y, a, n) == ref_lev2_candidates(y, a, n), (y, a)


def ref_transitions(y: str, n: int) -> tuple[int, int, int]:
    """The coordinates i of y with y_i != y_{i-1}, y_0 = 0, as a mask with
    bit len(y) - i set; their number; and the sum of n + 1 - i over them."""
    zy = "0" + y
    at = [i for i in range(1, len(zy)) if zy[i] != zy[i - 1]]
    return sum(1 << len(y) - i for i in at), len(at), sum(n + 1 - i for i in at)


def test_transitions_match_the_plain_count_on_every_short_word():
    for n in range(1, 13):
        for m in range(max(n - 2, 0), n + 1):
            for y in all_words(m):
                assert _transitions(y, n) == ref_transitions(y, n), (y, n)


@pytest.mark.parametrize("n", [256, 1024])
def test_transitions_match_the_plain_count_on_seeded_words(n):
    rng = random.Random(3900 + n)
    for i in range(30):
        y = seeded_word(rng, n - i % 3, i % 2 == 0)
        assert _transitions(y, n) == ref_transitions(y, n), (y, n)
