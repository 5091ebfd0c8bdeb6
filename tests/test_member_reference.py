"""The member tests and bucket counts against the code they replaced.

Every member test now runs its family's row automata, the ones the
searches count with, over one word.  The `ref_*` functions below are
the earlier bodies, written on the syndrome functions of words.py; for
every word up to length 10 and for sampled words up to length 40, the
package must return the same verdict or raise the same exception type
with the same message.  Parameters cover each word's own residues, the
same residues shifted by whole moduli either way (negative and
out-of-range values), and near misses.

One difference is intended: c21rll_member with a run cap f < 1 now
refuses every word, where the earlier body refused only the words
inside the C21 bucket and returned False for the rest.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstcodes.c31 import C31Params, c31_member
from burstcodes.cli import main
from burstcodes.codes import (
    c21_member,
    c21rll_member,
    lev2_member,
    rll_max_run,
    rll_member,
    svt21_member,
    vt_member,
)
from burstcodes.cts import CtsParams, cts_member, window_capacity
from burstcodes.words import (
    all_words,
    check_word,
    interleave,
    rsyn0,
    run_count,
    vt_syndrome,
    weights,
)

# ---------------------------------------------------------------- reference


def ref_vt_member(x: str, a: int, n: int) -> bool:
    check_word(x)
    if len(x) != n:
        return False
    return vt_syndrome(x) % (n + 1) == a % (n + 1)


def ref_lev2_member(x: str, a: int, n: int) -> bool:
    if n < 1:
        raise ValueError("length must be >= 1")
    check_word(x)
    if len(x) != n:
        return False
    return rsyn0(x) % (2 * n) == a % (2 * n)


def ref_c21_member(x: str, a: int, b: int, n: int) -> bool:
    check_word(x)
    if len(x) != n:
        return False
    return vt_syndrome(x) % (2 * n - 1) == a % (2 * n - 1) and x.count("1") % 4 == b % 4


def ref_svt21_member(x: str, c: int, d: int, P: int) -> bool:
    check_word(x)
    if P < 1:
        raise ValueError("window capacity P must be >= 1")
    return vt_syndrome(x) % (2 * P - 1) == c % (2 * P - 1) and x.count("1") % 4 == d % 4


def ref_c21rll_member(x: str, a: int, b: int, n: int, f: int | None = None) -> bool:
    """C21 membership with the run cap added (default cap rll_max_run(n))."""
    if f is None:
        f = rll_max_run(n)
    return ref_c21_member(x, a, b, n) and rll_member(x, f)


def ref_c31_member(x: str, params: C31Params) -> bool:
    check_word(x)
    n = params.n
    if len(x) != n:
        return False
    w = weights(x)
    return (
        rsyn0(x) % (4 * n) == params.a % (4 * n)
        and w.odd % 4 == params.b % 4
        and w.even % 4 == params.c % 4
        and run_count(x) % 5 == params.d % 5
    )


def ref_cts_member(x: str, params: CtsParams) -> bool:
    check_word(x)
    if len(x) != params.n:
        return False
    rows = interleave(x, params.k)
    if not ref_c21rll_member(rows[0], params.a, params.b, params.m, params.f):
        return False
    return all(
        ref_svt21_member(row, c, d, params.P)
        for row, (c, d) in zip(rows[1:], params.row_params)
    )


def ref_construction_buckets(n: int, t: int, s: int) -> int | None:
    """Syndrome-bucket count of the best construction at (n, t, s)."""
    if (t, s) == (3, 1):
        # C31 needs n even and >= 4
        return 320 * n if n >= 4 and n % 2 == 0 else None
    if (t, s) == (2, 1):
        return 4 * (2 * n - 1)
    if s >= 1 and t >= 2 * s:
        k = t - s
        if n % k:
            return None
        m = n // k
        if m < 2:
            return None
        P = window_capacity(m, s)
        if k == 1:
            return 4 * (2 * m - 1)
        return 4 * (2 * m - 1) * (4 * (2 * P - 1)) ** (k - 1)
    return None


# ---------------------------------------------------------------- harness


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def same(new, ref, *args):
    assert outcome(new, *args) == outcome(ref, *args), args


def near(true: tuple, mods: tuple):
    """Parameter tuples around a word's own residues true (one per mod):
    the residues, shifted by whole moduli up and down, each one off by
    one, and all -1."""
    yield true
    yield tuple(v + m for v, m in zip(true, mods))
    yield tuple(v - 2 * m for v, m in zip(true, mods))
    for j in range(len(true)):
        yield true[:j] + (true[j] + 1,) + true[j + 1 :]
    yield (-1,) * len(true)


def weighted(x: str, mod: int) -> tuple[int, int]:
    return vt_syndrome(x) % mod, x.count("1")


def check_simple_families(x: str) -> None:
    L = len(x)
    for n in (L - 1, L, L + 1):
        for (a,) in near((vt_syndrome(x),), (n + 1,)):
            same(vt_member, ref_vt_member, x, a, n)
        for (a,) in near((rsyn0(x),), (2 * n,)):
            same(lev2_member, ref_lev2_member, x, a, n)
        for a, b in near(weighted(x, 2 * n - 1), (2 * n - 1, 4)):
            same(c21_member, ref_c21_member, x, a, b, n)
            for f in (None, 0, 1, 2):
                args = (x, a, b, n, f)
                new, ref = outcome(c21rll_member, *args), outcome(ref_c21rll_member, *args)
                if f is not None and f < 1:
                    # the one intended difference: every word is refused
                    assert new == (ValueError, "run cap must be >= 1"), args
                    assert ref in (new, False), args
                else:
                    assert new == ref, args
    for P in (-1, 0, 1, 2, 6):
        for c, d in near(weighted(x, 2 * P - 1), (2 * P - 1, 4)):
            same(svt21_member, ref_svt21_member, x, c, d, P)


def c31_residues(x: str) -> tuple:
    w = weights(x)
    return rsyn0(x), w.odd, w.even, run_count(x)


def check_c31(x: str, n: int) -> None:
    for vals in near(c31_residues(x), (4 * n, 4, 4, 5)):
        same(c31_member, ref_c31_member, x, C31Params(n, *vals))


def cts_residues(x: str, t: int, s: int) -> tuple:
    k = t - s
    m = len(x) // k
    rows = interleave(x, k)
    vals = weighted(rows[0], 2 * m - 1)
    for row in rows[1:]:
        vals += weighted(row, 2 * window_capacity(m, s) - 1)
    return vals


def check_cts(x: str, n: int, t: int, s: int, vals: tuple) -> None:
    params = CtsParams.derive(n, t, s, vals[0], vals[1], tuple(zip(vals[2::2], vals[3::2])))
    same(cts_member, ref_cts_member, x, params)


def cts_mods(n: int, t: int, s: int) -> tuple:
    m = n // (t - s)
    P = window_capacity(m, s)
    return (2 * m - 1, 4) + (2 * P - 1, 4) * (t - s - 1)


CTS_SHAPES = ((6, 2, 1), (8, 3, 1), (9, 4, 1), (12, 4, 1), (12, 4, 2), (12, 6, 3), (14, 2, 1))

# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("L", range(11))
def test_simple_families_match_reference(L):
    for x in all_words(L):
        check_simple_families(x)


def test_bad_words_raise_as_before():
    for x in ("01x", "2", None):
        cases = [
            (vt_member, ref_vt_member, (x, 0, 3)),
            (lev2_member, ref_lev2_member, (x, 0, 3)),
            (c21_member, ref_c21_member, (x, 0, 0, 3)),
            (svt21_member, ref_svt21_member, (x, 0, 0, 2)),
            (c21rll_member, ref_c21rll_member, (x, 0, 0, 3, None)),
            (c31_member, ref_c31_member, (x, C31Params(4, 0, 0, 0, 0))),
            (cts_member, ref_cts_member, (x, CtsParams.derive(6, 2, 1, 0, 0))),
        ]
        for new, ref, args in cases:
            assert outcome(new, *args)[0] is ValueError
            same(new, ref, *args)


def seeded_words(n: int, count: int) -> list[str]:
    rng = random.Random(n)
    return [format(rng.getrandbits(n), f"0{n}b") for _ in range(count)]


# every word to n = 12, seeded words past it; 5 divides 10 and 20, whose
# row keeps the run count in its rest, and the others pack it with rsyn0
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 16, 20, 24])
def test_c31_matches_reference(n):
    if n <= 12:
        words, shorter = all_words(n), all_words(n - 1)
    else:
        words, shorter = seeded_words(n, 400), seeded_words(n - 1, 20)
    for x in words:
        check_c31(x, n)
    # a word of another length is never a member
    for x in shorter:
        same(c31_member, ref_c31_member, x, C31Params(n, 0, 0, 0, 0))


@pytest.mark.parametrize("shape", CTS_SHAPES, ids=str)
def test_cts_matches_reference(shape):
    n, t, s = shape
    mods = cts_mods(n, t, s)
    for i, x in enumerate(all_words(n)):
        true = cts_residues(x, t, s)
        # the own residues for every word, the other shifts on a stride
        for vals in near(true, mods) if i % 5 == 0 else (true,):
            check_cts(x, n, t, s, vals)
    for x in ("0" * (n - 1), "1" * (n + 1)):
        check_cts(x, n, t, s, (0,) * len(mods))


SAMPLED_SHAPES = ((2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 3))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(13, 40).flatmap(lambda n: st.text("01", min_size=n, max_size=n)),
    st.sampled_from(SAMPLED_SHAPES),
)
def test_sampled_long_words_match_reference(x, shape):
    n = len(x)
    check_simple_families(x)
    if n % 2 == 0:
        check_c31(x, n)
    t, s = shape
    if n % (t - s) == 0:
        for vals in near(cts_residues(x, t, s), cts_mods(n, t, s)):
            check_cts(x, n, t, s, vals)


def test_construction_buckets_match_reference(capsys):
    # bounds refuses t = 0 and s = 0 and skips n < max(t, s), so these
    # are all the (n, t, s) its guarantee columns are read at
    for t in range(1, 9):
        for s in range(1, 9):
            assert main(["bounds", "--t", str(t), "--s", str(s), "--n", "1..300", "--json"]) == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert [row["n"] for row in rows] == list(range(max(t, s), 301))
            for row in rows:
                n = row["n"]
                buckets = ref_construction_buckets(n, t, s)
                want = (None, None)
                if buckets is not None:
                    want = (-(-(1 << n) // buckets), round(math.log2(buckets), 4))
                assert (row["guaranteed_size"], row["max_redundancy"]) == want, (n, t, s)
