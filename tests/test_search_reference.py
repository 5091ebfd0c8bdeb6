"""The dynamic-programming searches against brute-force bucketing.

The reference keys every word of length n with the family's syndrome
functions from words.py, keeps the largest bucket (ties to the smallest
key) and lists its members in word order.  The searches must agree on
the key, the size and the members tuple, byte for byte; the size comes
from the bucket counts, the members from a later listing pass.

Brute force stops at n = 12.  Past it, the packed count pass is checked
against the plain one it replaced, which keys a dict by full states.  For
c31 that plain pass runs the row as it was before its run count moved
into the leading residue, and for the weighted rows (c21, c21rll, svt21
and the cts rows) the row as it was before their weight did.
"""

import math
import random

import pytest

from burstcodes import codes
from burstcodes.c31 import c31_param_search
from burstcodes.codes import pigeonhole_search, rll_max_run, rll_member
from burstcodes.cts import cts_param_search, window_capacity
from burstcodes.families import FAMILIES
from burstcodes.words import all_words, interleave, rsyn0, run_count, vt_syndrome, weights


def reference_bucket(n, key_of):
    counts = {}
    for x in all_words(n):
        key = key_of(x)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    best = min(counts, key=lambda k: (-counts[k], k))
    return best, tuple(x for x in all_words(n) if key_of(x) == best)


def weighted_key(x, mod):
    return (vt_syndrome(x) % mod, weights(x).total % 4)


def pigeonhole_case(family, n, P=None, f=None):
    if family == "vt":
        key_of = lambda x: (vt_syndrome(x) % (n + 1),)  # noqa: E731
    elif family == "lev2":
        key_of = lambda x: (rsyn0(x) % (2 * n),)  # noqa: E731
    elif family == "c21":
        key_of = lambda x: weighted_key(x, 2 * n - 1)  # noqa: E731
    elif family == "c21rll":
        cap = rll_max_run(n) if f is None else f
        key_of = lambda x: weighted_key(x, 2 * n - 1) if rll_member(x, cap) else None  # noqa: E731
    else:
        key_of = lambda x: weighted_key(x, 2 * P - 1)  # noqa: E731
    params, book = pigeonhole_search(family, n, P=P, f=f)
    names = {"vt": "a", "lev2": "a", "svt21": "cd"}.get(family, "ab")
    return reference_bucket(n, key_of), tuple(params[c] for c in names), book


def c31_case(n):
    def key_of(x):
        w = weights(x)
        return (rsyn0(x) % (4 * n), w.odd % 4, w.even % 4, run_count(x) % 5)

    params, book = c31_param_search(n)
    return reference_bucket(n, key_of), (params.a, params.b, params.c, params.d), book


def cts_case(n, t, s):
    k = t - s
    m = n // k
    f, P = rll_max_run(m), window_capacity(m, s)

    def key_of(x):
        rows = interleave(x, k)
        if not rll_member(rows[0], f):
            return None
        key = weighted_key(rows[0], 2 * m - 1)
        for row in rows[1:]:
            key += weighted_key(row, 2 * P - 1)
        return key

    params, book = cts_param_search(n, t, s)
    found = (params.a, params.b) + sum(params.row_params, ())
    return reference_bucket(n, key_of), found, book


CASES = (
    [(pigeonhole_case, (fam, n)) for fam in ("vt", "lev2", "c21", "c21rll") for n in range(1, 13)]
    + [(pigeonhole_case, ("c21rll", n, None, f)) for f in (1, 2) for n in range(1, 13)]
    + [(pigeonhole_case, ("svt21", n, P)) for P in (1, 2, 3, 6) for n in range(1, 13)]
    + [(c31_case, (n,)) for n in range(4, 13, 2)]
    + [
        (cts_case, shape)
        for shape in ((6, 2, 1), (8, 3, 1), (9, 4, 1), (12, 4, 1), (12, 4, 2), (12, 6, 3), (14, 2, 1))
    ]
)


@pytest.mark.parametrize(
    "case, args", CASES, ids=[f"{c.__name__[:-5]}{a}" for c, a in CASES]
)
def test_search_matches_brute_force(case, args):
    (best, members), found, book = case(*args)
    assert found == best
    # size comes from the bucket counts, before any member is listed
    assert book.size == len(members)
    assert book.members == members
    assert book.size == len(book.members)
    # members are listed once; later accesses return the same tuple
    assert book.members is book.members


def ref_row_counts(init, step, mods, m):
    """Rests reached at each level, best key and size of one row by the
    dict-of-states forward pass: every state, the leading residue and the
    rest, is a key of its level."""
    level = {(0,) + init: 1}
    rests = [{init}]
    for pos in range(1, m + 1):
        nxt = {}
        for state, count in level.items():
            for bit in (0, 1):
                t = step(state[1:], pos, bit)
                if t is not None:
                    d, rest = t
                    key = ((state[0] + d) % mods[0],) + rest
                    nxt[key] = nxt.get(key, 0) + count
        level = nxt
        rests.append({state[1:] for state in level})
    sizes = {}
    for state, count in level.items():
        bucket = state[: len(mods)]
        sizes[bucket] = sizes.get(bucket, 0) + count
    best = min(sizes, key=lambda k: (-sizes[k], k))
    return rests, best, sizes[best]


def ref_c31_row(n):
    """The c31 row before its run count moved into the leading residue,
    the reference automaton for every length: key (rsyn0 mod 4n, odd
    weight, even weight, run count mod 5), rest (odd, even, runs, last
    bit)."""

    def step(rest, i, bit):
        odd, even, runs, last = rest
        d = 0
        if bit != last:
            d = n + 1 - i
            if i > 1:
                runs = (runs + 1) % 5
        if bit:
            if i % 2:
                odd = (odd + 1) % 4
            else:
                even = (even + 1) % 4
        return d, (odd, even, runs, bit)

    return (0, 0, 1, 0), step, (4 * n, 4, 4, 5)


def ref_weighted_row(mod, cap=None):
    """The weighted row before its weight moved into the leading residue,
    the reference automaton for c21, c21rll, svt21 and the cts rows: key
    (VT sum mod mod, weight mod 4), rest (weight,) or, with a run cap,
    (weight, last bit, run length)."""
    if cap is None:
        return (0,), lambda rest, i, b: (i * b, ((rest[0] + b) % 4,)), (mod, 4)

    def step(rest, i, b):
        w, last, run = rest
        run = run + 1 if b == last else 1
        if run > cap:
            return None
        return i * b, ((w + b) % 4, b, run)

    return (0, None, 0), step, (mod, 4)


def row_cap(case, r, m):
    """The run cap of the r-th distinct row of case, or None."""
    family, n, _, f = case
    if family == "c21rll":
        return rll_max_run(n) if f is None else f
    if family == "cts" and r == 0:
        return rll_max_run(m)
    return None


def ref_counts(case, r, row, m):
    """ref_row_counts over the r-th distinct row of case, or over its
    reference automaton, its rests projected to the row's: the packed c31
    row leaves out the runs, and a weighted row, lead (0, 1), the weight."""
    if case[0] == "c31":
        rests, best, size = ref_row_counts(*ref_c31_row(m), m)
        if len(row[0]) == 3:
            rests = [{(odd, even, last) for odd, even, _, last in level} for level in rests]
        return rests, best, size
    if row[3] == (0, 1):
        rests, best, size = ref_row_counts(*ref_weighted_row(row[2][0], row_cap(case, r, m)), m)
        return [{rest[1:] for rest in level} for level in rests], best, size
    return ref_row_counts(*row[:3], m)


def family_rows(family, n, t=None, s=None, P=None, f=None):
    return FAMILIES[family].rows(n, t, s, P, f)


def search_rows(family, n, *shape):
    """The distinct row automata a search at length n counts, and their
    length; shape is (t, s) for cts and (P, f) for every other family."""
    t, s, P, f = (*shape, None, None) if family == "cts" else (None, None, *shape)
    rows = family_rows(family, n, t, s, P, f)
    return tuple(dict.fromkeys(rows)), n // len(rows)


# counts are packed in fields of W bits, the least power of two >= 8 and
# >= m; the cts rows take m just below, at and just past W = m, 7, 8 and
# 9, 15, 16 and 17, 31 and 32, for both of their row automata;
# c31 packs its run count with rsyn0 except at n = 20 and 30, which 5
# divides, and is checked against the unpacked reference at every n
LONG_ROWS = (
    [(fam, n, None, None) for fam in ("vt", "lev2", "c21", "c21rll") for n in range(13, 41)]
    + [("c21rll", n, None, f) for f in (1, 2) for n in range(13, 41)]
    + [("svt21", n, P, None) for P in (1, 3, 6) for n in range(13, 41)]
    + [("c31", n, None, None) for n in range(14, 33, 2)]
    + [("cts", k * m, t, s) for t, s, k in ((4, 2, 2), (4, 1, 3)) for m in (7, 8, 9, 15, 16, 17, 31, 32)]
)


@pytest.mark.parametrize("case", LONG_ROWS, ids=map(str, LONG_ROWS))
def test_packed_counts_match_the_state_dict_pass(case):
    rows, m = search_rows(*case)
    assert len(rows) == (2 if case[0] == "cts" else 1)
    for r, row in enumerate(rows):
        levels, best, size = codes._row_counts(row, m)
        # the lister takes its suffixes from the rests of each level past
        # the middle, so each level must be exact
        assert ([set(level) for level in levels], best, size) == ref_counts(case, r, row, m)


@pytest.mark.parametrize("n", [16, 24])
def test_packed_c31_row_keeps_at_most_32_rests(n):
    # (odd, even, last bit): the run count rides in the leading residue
    (row,) = family_rows("c31", n)
    levels, _, _ = codes._row_counts(row, n)
    assert max(map(len, levels)) == 32


# the weight rides in the leading residue, so c21's and svt21's rows keep
# one rest, (), a level, and a capped row at most the 2 f pairs (last
# bit, run length)
WEIGHTED_ROWS = [
    ("c21", 16, None, None),
    ("c21", 24, None, None),
    ("svt21", 16, 6, None),
    ("svt21", 24, 1, None),
    ("c21rll", 16, None, None),
    ("c21rll", 24, None, 2),
    ("cts", 16, 4, 2),
    ("cts", 24, 4, 1),
]


@pytest.mark.parametrize("case", WEIGHTED_ROWS, ids=map(str, WEIGHTED_ROWS))
def test_weighted_rows_keep_no_weight_in_the_rest(case):
    rows, m = search_rows(*case)
    for r, (init, step, mods, lead) in enumerate(rows):
        assert lead == (0, 1) and math.prod(mods) == 4 * mods[0]
        calls = [0]

        def tally(rest, pos, bit, step=step):
            calls[0] += 1
            return step(rest, pos, bit)

        levels, _, _ = codes._row_counts((init, tally, mods, lead), m)
        cap = row_cap(case, r, m)
        if cap is None:
            # one rest a level, so one step call per bit per position
            assert set(levels) == {((),)}
            assert calls[0] == 2 * m
        else:
            assert max(map(len, levels)) <= 2 * cap
    if case == ("c21rll", 16, None, None):
        assert max(map(len, levels)) == 14 and calls[0] <= 338


@pytest.mark.parametrize("family,m", [("vt", 64), ("vt", 80), ("c21", 64), ("c21", 80)])
def test_counts_wider_than_64_bits_match_the_state_dict_pass(family, m):
    # at m = 64 the fields are 64 bits wide, which struct reads; at m = 80
    # they are 128 bits wide, which it cannot
    (row,) = family_rows(family, m)
    levels, best, size = codes._row_counts(row, m)
    assert ([set(level) for level in levels], best, size) == ref_counts(
        (family, m, None, None), 0, row, m
    )


def one_cell_rows(m):
    """Synthetic rows of length m whose every word ends in one cell, one
    leading residue of one key group, so at W = m the count 2^m overflows
    a W-bit field: one rest mod 1; one rest mod 2 with even increments; two
    rests (the last bit) that merge at position m, every step adding 1;
    two final rests (0, last bit) that share their key tail (0,)."""
    return {
        "mod-1": ((), lambda rest, i, b: (i * b, ()), (1,), (0,)),
        "mod-2-even": ((), lambda rest, i, b: (2 * i * b, ()), (2,), (0,)),
        "merging": ((0,), lambda rest, i, b: (1, (b,) if i < m else ()), (3,), (0,)),
        "one-tail": ((0, 0), lambda rest, i, b: (4 * b, (0, b)), (4, 2), (0,)),
    }


# W > m at 5 and 17, W = m at 8, 16, 32 and 64, and fields wider than 64
# bits, read without struct, at 128
@pytest.mark.parametrize("m", [5, 8, 16, 17, 32, 64, 128])
@pytest.mark.parametrize("name", ["mod-1", "mod-2-even", "merging", "one-tail"])
def test_a_row_whose_words_share_one_cell_counts_them_all(name, m):
    init, step, mods, lead = one_cell_rows(m)[name]
    calls = [0]

    def tally(rest, pos, bit):
        calls[0] += 1
        return step(rest, pos, bit)

    levels, best, size = codes._row_counts((init, tally, mods, lead), m)
    assert size == 2**m
    assert ([set(level) for level in levels], best, size) == ref_row_counts(init, step, mods, m)
    # each (rest, pos, bit) is stepped once
    assert calls[0] == 2 * sum(map(len, levels[:-1]))


def sparse_rows(m):
    """Synthetic rows of length m with W = m that leave words out: one
    that keeps only 0^m, in field 0 of 3; the same word in the top field,
    residue 2; one that leaves out only 1^m, putting the other 2^m - 1
    words in the top field.  A row that keeps one word ends on an int with
    one set bit, as 2^m words in one cell would, so only the words left
    out tell the two apart; 2^m - 1 is the largest count a field holds."""

    def only_zeros(d):
        return lambda rest, i, b: None if b else (d * (i == 1), ())

    def all_but_ones(rest, i, b):
        ones = rest[0] and b
        if i < m:
            return 2 * (i == 1), (ones,)
        return None if ones else (0, ())

    return {
        "zeros-field-0": ((), only_zeros(0), (3,), (0,)),
        "zeros-top-field": ((), only_zeros(2), (3,), (0,)),
        "all-but-ones": ((1,), all_but_ones, (3,), (0,)),
    }


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("name", ["zeros-field-0", "zeros-top-field", "all-but-ones"])
def test_a_row_that_leaves_words_out_counts_the_rest(name, m):
    init, step, mods, lead = sparse_rows(m)[name]
    levels, best, size = codes._row_counts((init, step, mods, lead), m)
    assert size == (2**m - 1 if name == "all-but-ones" else 1)
    assert ([set(level) for level in levels], best, size) == ref_row_counts(init, step, mods, m)


# every member is checked against its bucket up to this many; past it a
# seeded sample of SAMPLE members is
CHECK_ALL, SAMPLE = 5000, 200


@pytest.mark.parametrize(
    "search, args, kwargs, size",
    [
        (pigeonhole_search, ("c21", 16), {}, None),
        (pigeonhole_search, ("lev2", 15), {}, None),
        (c31_param_search, (16,), {}, None),
        (cts_param_search, (15, 4, 1), {}, None),
        (cts_param_search, (16, 4, 2), {}, None),
        (pigeonhole_search, ("vt", 20), {}, None),
        # a sparse row, capped at runs of 2
        (pigeonhole_search, ("c21rll", 16), {"f": 2}, None),
        (pigeonhole_search, ("svt21", 18), {"P": 6}, None),
        (c31_param_search, (20,), {}, None),
        # the guard
        (pigeonhole_search, ("c21", 24), {}, 100_178),
    ],
    ids=["c21-16", "lev2-15", "c31-16", "cts-15-4-1", "cts-16-4-2", "vt-20", "c21rll-16-f2",
         "svt21-18-P6", "c31-20", "c21-24"],
)
def test_members_past_brute_force_are_the_bucket(search, args, kwargs, size):
    # strictly increasing, each in the bucket, as many as counted: the bucket in order
    params, book = search(*args, **kwargs)
    members = book.members
    assert all(x < y for x, y in zip(members, members[1:]))
    assert len(members) == book.size == (size or book.size)
    if search is pigeonhole_search:
        rows = family_rows(args[0], book.n, P=kwargs.get("P"), f=kwargs.get("f"))
        vals = tuple(v for k, v in params.items() if k not in ("P", "f"))
    elif search is c31_param_search:
        rows, vals = family_rows("c31", book.n), (params.a, params.b, params.c, params.d)
    else:
        rows = family_rows("cts", *args)
        vals = (params.a, params.b) + sum(params.row_params, ())
    if len(members) > CHECK_ALL:
        members = random.Random(book.n).sample(members, SAMPLE)
    assert all(codes._in_bucket(x, book.n, rows, vals) for x in members)
