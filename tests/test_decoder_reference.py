"""The decoders against the string filters and loops they replaced.

`ref_vt_decode`, `ref_c21_decode` (with `ref_deletion_run`) and
`ref_svt21_decode` build every candidate preimage as a string and rescan
it with `vt_syndrome`.  The package decoders find their candidates in
closed form instead: a splice's VT sum less y's is a strictly monotone
function of the index of its position among y's 1s or 0s, so each
residue of the right class gives at most one position, found by one
replace or count of y; C21 reads a single deletion's window off y on
either side of the bit put in.  They must return the same word,
classification and window, and raise the same exception type with the
same message, candidate order, dedup rule and sorted survivor list
included.  `ref_pair_splices` is the O(n) loop the closed form
replaced, one suffix-weight table per call and one step per symbol; the
core, given the weight residue that picks the loop's one change (or
None for both changes of a bit put in, see `splice_weight`), must
return the same dict of words and last positions for every y up to
n = 10, and at n = 256 and 1024 on seeded draws.
`ref_lev2_decode` rescans every candidate with `rsyn0`, duplicates
included; the package solves its congruence per window class, each
distinct candidate once (`tests/test_lev2_reference.py` holds the
per-candidate loop that did it before).  It must match on every y and a
up to n = 8 and on seeded bursts and syndromes at n = 256 and 1024,
where words in no ball must raise the same `DecodeFailure`.  With every
whole-word run syndrome patched to raise, lev2 and c31 must still
decode: neither rescans a candidate.  C21(n) is SVT21 at
P = n, so C21 must also decode as SVT21 does over the window of every
start.  `ref_c31_decode` builds every distinct candidate and rescans it
with `rsyn0`, `weights` and `run_count`; the package tries the one
block each start's parity allows, skips a pair whose word the next
start gives, and checks each candidate from prefix and suffix tables of
y, and must match it in the word, every `C31Trace` field, and each
exception's type and message.
"""

import random
from functools import cache
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstcodes import c31, codes, words
from burstcodes.c31 import C31Params, C31Trace, c31_decode, c31_param_search, classify_31
from burstcodes.channel import BurstSpec, _check_room, apply_burst
from burstcodes.codes import (
    MERGE_00_TO_1,
    MERGE_11_TO_0,
    PATTERN_000_TO_1,
    PATTERN_010_TO_1,
    PATTERN_101_TO_0,
    PATTERN_111_TO_0,
    SINGLE_DELETION,
    TWO_BURST_DELETION,
    DecodeOutcome,
    _pair_splices,
    c21_decode,
    lev2_decode,
    lev2_member,
    svt21_decode,
    vt_decode,
)
from burstcodes.errors import DecodeAmbiguity, DecodeFailure, DecodingError
from burstcodes.words import all_words, check_word, rsyn0, run_count, vt_syndrome, weights

# ---------------------------------------------------------------- reference


def ref_survivors(candidates, predicate):
    """Deduplicated candidates passing predicate; candidates are (tag, word)."""
    seen: dict[str, object] = {}
    for tag, word in candidates:
        if word not in seen and predicate(word):
            seen[word] = tag
    return seen


def ref_expect_one(seen: dict, context: str) -> tuple[str, object]:
    if not seen:
        raise DecodeFailure(f"{context}: no syndrome-consistent candidate")
    if len(seen) > 1:
        raise DecodeAmbiguity(
            f"{context}: {len(seen)} syndrome-consistent candidates: "
            + ", ".join(sorted(seen))
        )
    [(word, tag)] = seen.items()
    return word, tag


def ref_vt_decode(y: str, a: int, n: int) -> str:
    """Recover the VT(n; a) codeword a single deletion of which gave y."""
    check_word(y)
    if len(y) != n - 1:
        raise ValueError(f"received word must have length {n - 1}, got {len(y)}")
    cands = ((i, y[:i] + bit + y[i:]) for i in range(n) for bit in "01")
    seen = ref_survivors(cands, lambda w: vt_syndrome(w) % (n + 1) == a % (n + 1))
    word, _ = ref_expect_one(seen, "vt_decode")
    return word


def ref_deletion_run(x: str, y: str) -> tuple[int, int]:
    """The run of x whose one-symbol deletion yields y, as 1-based bounds."""
    hits = [p for p in range(1, len(x) + 1) if x[: p - 1] + x[p:] == y]
    if not hits:
        raise DecodeFailure("decoded word does not reduce to the received word")
    return hits[0], hits[-1]


def ref_c21_decode(y: str, a: int, b: int, n: int) -> DecodeOutcome:
    """Correct one (2, 1)-burst against syndromes (a mod 2n-1, b mod 4).

    The weight delta picks the error shape; candidate preimages of that
    shape are filtered by the position-weighted syndrome.
    """
    _check_room(n, 2, 1)
    check_word(y)
    if len(y) != n - 1:
        raise ValueError(f"received word must have length {n - 1}, got {len(y)}")
    a = a % (2 * n - 1)
    b = b % 4
    delta = (b - y.count("1")) % 4

    def vt_ok(w: str) -> bool:
        return vt_syndrome(w) % (2 * n - 1) == a

    if delta == 3 or delta == 2:
        mark, patch, label = (
            ("1", "00", MERGE_00_TO_1) if delta == 3 else ("0", "11", MERGE_11_TO_0)
        )
        cands = (
            (p, y[: p - 1] + patch + y[p:])
            for p in range(1, n)
            if y[p - 1] == mark
        )
        seen = ref_survivors(cands, vt_ok)
        word, p = ref_expect_one(seen, "c21_decode")
        return DecodeOutcome(word, label, (p, p))

    # delta 0 or 1: the burst kept one of the two symbols it deleted, so the
    # net effect is a single deletion
    cands = ((i, y[:i] + bit + y[i:]) for i in range(n) for bit in "01")
    seen = ref_survivors(cands, lambda w: vt_ok(w) and w.count("1") % 4 == b)
    word, _ = ref_expect_one(seen, "c21_decode")
    return DecodeOutcome(word, SINGLE_DELETION, ref_deletion_run(word, y))


def ref_svt21_decode(
    y: str, c: int, d: int, P: int, window: tuple[int, int], n: int
) -> str:
    """Correct a (2, 1)-burst known to start inside window.

    window is a 1-based inclusive interval of at most P coordinates; it
    is clamped to the valid start range 1..n-1.  Only syndromes mod
    2P-1 and mod 4 are needed because candidate starts this close
    together can never collide on both.
    """
    check_word(y)
    if len(y) != n - 1:
        raise ValueError(f"received word must have length {n - 1}, got {len(y)}")
    if P < 1:
        raise ValueError("window capacity P must be >= 1")
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    if hi - lo + 1 > P:
        raise ValueError(f"window {window} longer than P={P}")
    lo, hi = max(lo, 1), min(hi, n - 1)
    if lo > hi:
        raise ValueError(f"window {window} has no valid burst start for n={n}")
    c = c % (2 * P - 1)
    d = d % 4
    cands = (
        (p, y[: p - 1] + pair + y[p:])
        for p in range(lo, hi + 1)
        for pair in ("00", "01", "10", "11")
    )
    seen = ref_survivors(
        cands,
        lambda w: vt_syndrome(w) % (2 * P - 1) == c and w.count("1") % 4 == d,
    )
    word, _ = ref_expect_one(seen, "svt21_decode")
    return word


def ref_lev2_decode(y: str, a: int, n: int) -> str:
    """Recover from a burst of at most two deletions.

    The received length says how many symbols went missing (0, 1, or 2);
    the zero-prefixed run syndrome mod 2n then pins the unique preimage.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    check_word(y)
    a = a % (2 * n)
    if len(y) == n:
        if lev2_member(y, a, n):
            return y
        raise DecodeFailure("lev2_decode: full-length word is not a codeword")
    if len(y) == n - 1:
        cands = ((i, y[:i] + bit + y[i:]) for i in range(n) for bit in "01")
    elif len(y) == n - 2:
        cands = (
            (i, y[:i] + pair + y[i:])
            for i in range(n - 1)
            for pair in ("00", "01", "10", "11")
        )
    else:
        raise ValueError(f"received length {len(y)} not in {{n, n-1, n-2}} for n={n}")
    seen = ref_survivors(cands, lambda w: rsyn0(w) % (2 * n) == a)
    word, _ = ref_expect_one(seen, "lev2_decode")
    return word


def ref_suffix_ones(y: str) -> tuple[list[int], int]:
    """ones[i], the number of 1s in y[i:] for i = 0..len(y), and y's VT sum."""
    ones = list(accumulate(map("1".__eq__, reversed(y)), initial=0))[::-1]
    return ones, sum(ones)


@cache
def ref_splice_pairs(changes: tuple) -> tuple:
    """Per symbol y_p, the pairs b0 b1 of a weight change in changes, as
    (change, b1, pair): all of them at the first position, and after it
    those with b1 != y_p."""
    first = {
        yp: tuple(
            (b0 + b1 - int(yp), b1, "01"[b0] + "01"[b1])
            for b0 in (0, 1)
            for b1 in (0, 1)
            if b0 + b1 - int(yp) in changes
        )
        for yp in "01"
    }
    later = {yp: tuple(pr for pr in first[yp] if pr[1] != int(yp)) for yp in "01"}
    return first, later


def ref_pair_splices(
    y: str, ones: list[int], V: int, mod: int, target: int, lo: int, hi: int, changes
) -> dict:
    """The words that replace one y_p, lo <= p <= hi, by a pair b0 b1 whose
    weight change b0 + b1 - y_p is in changes and whose VT sum is target
    mod mod, each with the last p that gives it.

    ones and V are ref_suffix_ones(y).  One step per symbol: the splice's
    sum is V + ones[p] + p * change + b1, and after lo only b1 != y_p is
    tried, since with b1 = y_p the word is that of (y_{p-1}, b0) at p - 1.
    """
    first, later = ref_splice_pairs(changes)
    target = (target - V) % mod
    seen = {}
    table = first
    for p, yp in enumerate(y[lo - 1 : hi], lo):
        for change, b1, pair in table[yp]:
            if (ones[p] + p * change + b1) % mod == target:
                seen[y[: p - 1] + pair + y[p:]] = p
        table = later
    return seen


REF_PATTERN_OF = {
    PATTERN_000_TO_1: ("1", "000"),
    PATTERN_010_TO_1: ("1", "010"),
    PATTERN_111_TO_0: ("0", "111"),
    PATTERN_101_TO_0: ("0", "101"),
}


def ref_c31_candidates(y: str, label: str, n: int) -> set:
    """Every preimage of y that a burst of shape label allows."""
    if label == TWO_BURST_DELETION:
        return {
            y[: q - 1] + pair + y[q - 1 :]
            for q in range(1, n)
            for pair in ("00", "01", "10", "11")
        }
    mark, block = REF_PATTERN_OF[label]
    return {y[: j - 1] + block + y[j:] for j in range(1, n - 1) if y[j - 1] == mark}


def ref_c31_decode(y: str, params: C31Params, *, trace: bool = False):
    """Recover the codeword one (3, 1)-burst of which produced y.

    Returns the codeword, or (codeword, C31Trace) when trace=True.
    Exactly one candidate must survive all four congruences; anything
    else aborts with DecodeFailure or DecodeAmbiguity.
    """
    label = classify_31(y, params)
    n = params.n
    cands = ref_c31_candidates(y, label, n)

    def passes_abc(w: str) -> bool:
        ww = weights(w)
        return (
            rsyn0(w) % (4 * n) == params.a % (4 * n)
            and ww.odd % 4 == params.b % 4
            and ww.even % 4 == params.c % 4
        )

    partial = [w for w in cands if passes_abc(w)]
    survivors = [w for w in partial if run_count(w) % 5 == params.d % 5]
    word, _ = ref_expect_one(dict.fromkeys(survivors), "c31_decode")
    if not trace:
        return word
    t = C31Trace(
        d_odd=(params.b - weights(y).odd) % 4,
        d_even=(params.c - weights(y).even) % 4,
        d_run=(params.d - run_count(y)) % 5,
        classification=label,
        candidates=len(cands),
        survivors=len(survivors),
        run_filter_decisive=len(partial) > 1,
    )
    return word, t


# ---------------------------------------------------------------- comparison


def outcome(decode, *args):
    """The decode's result, or the type and message of what it raised."""
    try:
        return decode(*args)
    except (ValueError, DecodingError) as exc:
        return type(exc), str(exc)


def assert_same(fast, ref, *args):
    got, want = outcome(fast, *args), outcome(ref, *args)
    assert got == want, args
    return want


def kind(got):
    """A compared outcome's classification, "decoded" or exception type."""
    if isinstance(got, tuple):
        return got[0]
    return getattr(got, "classification", "decoded")


SPLICE_CHANGES = ((-1,), (0,), (1,), (2,), (0, 1))


def splice_weight(y: str, changes: tuple):
    """The core's weight argument that selects changes: y's weight plus
    the one change, mod 4, or None for both changes of an inserted bit."""
    return None if changes == (0, 1) else (y.count("1") + changes[0]) % 4


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_splices_match_the_reference_loop(n):
    size = n - 1
    # the full window, a window from the middle, where the first position
    # is not 1, and the last position alone, lo = hi = n - 1; then windows
    # that stop short of len(y), where the core counts the symbols up to hi
    windows = {(1, size), ((size + 1) // 2, size), (size, size), (1, size // 2), (2, size - 1)}
    windows = {(lo, hi) for lo, hi in windows if lo <= hi}
    most = 0
    for y in all_words(size):
        ones, V = ref_suffix_ones(y)
        for mod in {2 * n - 1, n + 1, 3, 5}:
            for changes in SPLICE_CHANGES:
                for lo, hi in windows:
                    for target in range(mod):
                        want = ref_pair_splices(y, ones, V, mod, target, lo, hi, changes)
                        weight = splice_weight(y, changes)
                        assert _pair_splices(y, mod, target, lo, hi, weight) == want, (
                            y, mod, target, lo, hi, changes,
                        )
                        most = max(most, len(want))
    # a small modulus over a long window leaves several words
    assert most >= min(n - 1, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_vt_and_c21_match_reference_exhaustively(n):
    vt_kinds, c21_kinds = set(), set()
    for y in all_words(n - 1):
        for a in range(n + 1):
            vt_kinds.add(kind(assert_same(vt_decode, ref_vt_decode, y, a, n)))
        for a in range(2 * n - 1):
            for b in range(4):
                c21_kinds.add(kind(assert_same(c21_decode, ref_c21_decode, y, a, b, n)))
    # VT(n; a) is a perfect single-deletion code: every y has exactly one
    # preimage.  C21 corrects its bursts, so no y has two.
    assert vt_kinds == {"decoded"}
    if n == 1:
        # no (2, 1)-burst fits in one symbol
        assert c21_kinds == {ValueError}
        return
    assert c21_kinds == {SINGLE_DELETION, MERGE_00_TO_1, MERGE_11_TO_0, DecodeFailure}


def without_context(got):
    """A compared outcome with the decoder's name dropped from a message."""
    if isinstance(got, tuple):
        return got[0], got[1].partition(": ")[2]
    return getattr(got, "word", got)


@pytest.mark.parametrize("n", range(2, 9))
def test_c21_is_svt21_over_the_full_window(n):
    kinds = set()
    for y in all_words(n - 1):
        for a in range(2 * n - 1):
            for b in range(4):
                got = without_context(outcome(c21_decode, y, a, b, n))
                want = without_context(outcome(svt21_decode, y, a, b, n, (1, n - 1), n))
                assert got == want, (y, a, b, n)
                kinds.add(kind(want))
    assert kinds == {"decoded", DecodeFailure}


@pytest.mark.parametrize("n", range(1, 9))
def test_lev2_matches_reference_exhaustively(n):
    kinds = set()
    for length in range(max(n - 3, 0), n + 1):
        for y in all_words(length):
            for a in range(2 * n):
                kinds.add(kind(assert_same(lev2_decode, ref_lev2_decode, y, a, n)))
    # a full-length non-codeword fails, a length below n - 2 is refused, and
    # LEV2(n; a) is a perfect code, so no y has two preimages
    assert kinds == {"decoded", DecodeFailure} | ({ValueError} if n >= 3 else set())


def c31_residues(x: str, n: int) -> tuple[int, int, int, int]:
    w = weights(x)
    return rsyn0(x) % (4 * n), w.odd % 4, w.even % 4, run_count(x) % 5


def c31_kind(got):
    """A compared c31 outcome's classification and run_filter_decisive,
    or its exception type."""
    if isinstance(got[0], type):
        return got[0], None
    return got[1].classification, got[1].run_filter_decisive


@pytest.mark.parametrize("n", range(4, 11, 2))
def test_c31_matches_reference_exhaustively(n):
    kinds = set()
    labels = (TWO_BURST_DELETION, *REF_PATTERN_OF)
    for y in all_words(n - 2):
        # every candidate's own residues, which it passes, and for a
        # pattern candidate a near miss that it passes in a, b and c but
        # not in the run count (at these lengths the run count decides
        # only between pattern candidates)
        points = set()
        for label in labels:
            misses = (0,) if label == TWO_BURST_DELETION else (0, 1)
            for x in ref_c31_candidates(y, label, n):
                a, b, c, d = c31_residues(x, n)
                points |= {(a, b, c, d + miss) for miss in misses}
        for vals in points:
            got = assert_same(
                lambda *args: c31_decode(*args, trace=True),
                lambda *args: ref_c31_decode(*args, trace=True),
                y,
                C31Params(n, *vals),
            )
            kinds.add(c31_kind(got))
    # every shape decodes, some weight deltas are no (3, 1)-burst's, and
    # from n = 8 the run count alone can pick between candidates
    assert kinds >= {(label, False) for label in labels} | {(DecodeFailure, None)}
    assert any(decisive for _, decisive in kinds) == (n >= 8)


@pytest.mark.parametrize("P", [1, 2, 3, 4, 5])
def test_svt21_matches_reference_on_every_window(P):
    kinds = set()
    for n in range(2, 7):
        # every placement: clipped at either end, empty, longer than P and
        # entirely outside the start range 1..n-1
        windows = [(lo, hi) for lo in range(1 - P, n + 1) for hi in range(lo - 1, lo + P + 1)]
        for y in all_words(n - 1):
            for c in range(2 * P - 1):
                for d in range(4):
                    for w in windows:
                        kinds.add(kind(assert_same(svt21_decode, ref_svt21_decode, y, c, d, P, w, n)))
    # at P = 1 the sum mod 1 cannot tell the pair 01 from 10
    ambiguous = {DecodeAmbiguity} if P == 1 else set()
    assert kinds == {"decoded", DecodeFailure, ValueError} | ambiguous


def test_bad_inputs_match_reference():
    for args in (("0101", 3, 4), ("01", 0, 4), ("0a1", 0, 4), ("", 0, 1)):
        assert_same(vt_decode, ref_vt_decode, *args)
    for args in (("0101", 3, 0, 4), ("011", 0, 0, 5), ("0x11", 0, 0, 5), ("", 0, 0, 1)):
        assert_same(c21_decode, ref_c21_decode, *args)
    for args in (
        ("0101", 7, 2, 0, (1, 1), 5),
        ("0101", 7, 2, 3, (1, 4), 5),
        ("010", 7, 2, 3, (1, 1), 5),
        ("01z1", 7, 2, 3, (1, 1), 5),
    ):
        assert_same(svt21_decode, ref_svt21_decode, *args)
    for y, vals in (("0101", (6, 0, 0, 0, 0)), ("0a", (4, 0, 0, 0, 0)), ("1111", (6, 0, 0, 0, 0))):
        assert_same(c31_decode, ref_c31_decode, y, C31Params(*vals))


# ---------------------------------------------------------------- sampled


def word_and(extra):
    """A word of length 17..64 drawn with extra(n) values."""
    return st.integers(min_value=17, max_value=64).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=0, max_value=2**n - 1).map(lambda v: format(v, f"0{n}b")),
            extra(n),
        )
    )


@settings(max_examples=100, deadline=None)
@given(word_and(lambda n: st.integers(min_value=1, max_value=n)))
def test_vt_sampled_deletions(args):
    x, start = args
    n = len(x)
    y = apply_burst(x, BurstSpec(1, 0, start, ""))
    a = vt_syndrome(x) % (n + 1)
    assert vt_decode(y, a, n) == ref_vt_decode(y, a, n) == x


@settings(max_examples=100, deadline=None)
@given(
    word_and(
        lambda n: st.integers(1, 2).flatmap(
            lambda t: st.tuples(st.just(t), st.integers(1, n - t + 1))
        )
    )
)
def test_lev2_sampled_bursts(args):
    x, (t, start) = args
    n = len(x)
    y = apply_burst(x, BurstSpec(t, 0, start, ""))
    a = rsyn0(x) % (2 * n)
    assert lev2_decode(y, a, n) == ref_lev2_decode(y, a, n) == x


@settings(max_examples=100, deadline=None)
@given(word_and(lambda n: st.tuples(st.integers(1, n - 1), st.sampled_from("01"))))
def test_c21_sampled_bursts(args):
    x, (start, ins) = args
    n = len(x)
    y = apply_burst(x, BurstSpec(2, 1, start, ins))
    a, b = vt_syndrome(x) % (2 * n - 1), x.count("1") % 4
    got = c21_decode(y, a, b, n)
    assert got == ref_c21_decode(y, a, b, n)
    assert got.word == x


@settings(max_examples=100, deadline=None)
@given(
    word_and(
        lambda n: st.tuples(
            st.integers(1, n - 1),
            st.sampled_from("01"),
            st.integers(2, 8),
            st.integers(0, 7),
        )
    )
)
def test_svt21_sampled_bursts(args):
    x, (start, ins, P, before) = args
    n = len(x)
    y = apply_burst(x, BurstSpec(2, 1, start, ins))
    lo = start - min(before, P - 1)
    window = (lo, lo + P - 1)
    c, d = vt_syndrome(x) % (2 * P - 1), x.count("1") % 4
    assert svt21_decode(y, c, d, P, window, n) == ref_svt21_decode(y, c, d, P, window, n) == x


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=9, max_value=32).flatmap(
        lambda h: st.tuples(
            st.integers(min_value=0, max_value=4**h - 1).map(lambda v: format(v, f"0{2 * h}b")),
            st.integers(1, 2 * h - 2),
            st.sampled_from("01"),
        )
    )
)
def test_c31_sampled_bursts(args):
    # every (a, b, c, d) bucket is a (3, 1)-burst correcting code, so x's
    # own residues decode its bursts back to x
    x, start, ins = args
    n = len(x)
    y = apply_burst(x, BurstSpec(3, 1, start, ins))
    params = C31Params(n, *c31_residues(x, n))
    got = c31_decode(y, params, trace=True)
    assert got == ref_c31_decode(y, params, trace=True)
    assert got[0] == x


# ---------------------------------------------------------------- long, seeded


def random_word(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


@pytest.mark.parametrize("n", [256, 1024])
def test_pair_splices_match_the_reference_loop_on_long_words(n):
    # small moduli put many residues of the right class in one window, so
    # the core walks several keys per change
    rng = random.Random(n)
    for _ in range(40):
        y = random_word(rng, n - 1)
        lo = rng.randint(1, n - 1)
        hi = rng.choice((lo, rng.randint(lo, n - 1), n - 1))
        mod = rng.choice((3, 5, n + 1, 2 * n - 1))
        changes = rng.choice(SPLICE_CHANGES)
        target = rng.randrange(mod)
        ones, V = ref_suffix_ones(y)
        weight = splice_weight(y, changes)
        assert _pair_splices(y, mod, target, lo, hi, weight) == ref_pair_splices(
            y, ones, V, mod, target, lo, hi, changes
        ), (y, mod, target, lo, hi, changes)
    # a window that starts after 1 and stops short of len(y), where the
    # core counts the symbols at both ends, for every change
    y = random_word(rng, n - 1)
    ones, V = ref_suffix_ones(y)
    lo, hi = 2, n // 2
    for changes in SPLICE_CHANGES:
        for mod in (3, 2 * n - 1):
            target = rng.randrange(mod)
            weight = splice_weight(y, changes)
            assert _pair_splices(y, mod, target, lo, hi, weight) == ref_pair_splices(
                y, ones, V, mod, target, lo, hi, changes
            ), (y, mod, target, lo, hi, changes)


@pytest.mark.parametrize("n, draws", [(256, 12), (1024, 3)])
def test_long_bursts_match_reference(n, draws):
    # each draw decodes its word's bursts with the word's own syndromes,
    # which must give it back, and with random syndromes, which mostly fail
    rng = random.Random(2200 + n)
    kinds = set()
    for _ in range(draws):
        x = random_word(rng, n)
        start = rng.randint(1, n - 1)
        y = apply_burst(x, BurstSpec(1, 0, start, ""))
        a = vt_syndrome(x) % (n + 1)
        assert assert_same(vt_decode, ref_vt_decode, y, a, n) == x
        y = apply_burst(x, BurstSpec(2, 1, start, rng.choice("01")))
        a, b = vt_syndrome(x) % (2 * n - 1), x.count("1") % 4
        assert assert_same(c21_decode, ref_c21_decode, y, a, b, n).word == x
        a, b = rng.randrange(2 * n - 1), rng.randrange(4)
        kinds.add(kind(assert_same(c21_decode, ref_c21_decode, y, a, b, n)))
        for P in (2, 3, 8):
            lo = start - rng.randint(0, P - 1)
            window = (lo, lo + P - 1)
            c, d = vt_syndrome(x) % (2 * P - 1), x.count("1") % 4
            got = assert_same(svt21_decode, ref_svt21_decode, y, c, d, P, window, n)
            assert got == x
            c, d = rng.randrange(2 * P - 1), rng.randrange(4)
            kinds.add(kind(assert_same(svt21_decode, ref_svt21_decode, y, c, d, P, window, n)))
    assert DecodeFailure in kinds


@pytest.mark.parametrize("n, draws", [(256, 8), (1024, 2)])
def test_long_lev2_bursts_match_reference(n, draws):
    # each draw's one- and two-deletion bursts decode with the word's own
    # syndrome; with random ones a two-deletion y always decodes (LEV2 is
    # perfect), while a one-deletion or full-length y may be in no ball
    rng = random.Random(2900 + n)
    kinds = set()
    for _ in range(draws):
        x = random_word(rng, n)
        a = rsyn0(x) % (2 * n)
        for t in (1, 2):
            y = apply_burst(x, BurstSpec(t, 0, rng.randint(1, n - t + 1), ""))
            assert assert_same(lev2_decode, ref_lev2_decode, y, a, n) == x
            kinds.add(kind(assert_same(lev2_decode, ref_lev2_decode, y, rng.randrange(2 * n), n)))
        kinds.add(kind(assert_same(lev2_decode, ref_lev2_decode, x, rng.randrange(2 * n), n)))
    assert kinds == {"decoded", DecodeFailure}


def test_lev2_and_c31_never_rescan_a_candidate(monkeypatch):
    # once every whole-word run syndrome raises, the decoders still
    # decode: they check their candidates from y's prefix sums alone
    n = 16
    rng = random.Random(2916)
    p31, book = c31_param_search(n)
    cases = []
    for _ in range(20):
        x = random_word(rng, n)
        for t in (1, 2):
            y = apply_burst(x, BurstSpec(t, 0, rng.randint(1, n - t + 1), ""))
            cases.append((lambda y, a=rsyn0(x) % (2 * n): lev2_decode(y, a, n), y, x))
        x = rng.choice(book.members)
        y = apply_burst(x, BurstSpec(3, 1, rng.randint(1, n - 2), rng.choice("01")))
        cases.append((lambda y: c31_decode(y, p31), y, x))

    def rescan(*args, **kwargs):
        raise AssertionError("a candidate was rescanned")

    for name in ("rsyn0", "run_profile", "_run_profile", "run_count"):
        for module in (words, codes, c31):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, rescan)
    for decode, y, x in cases:
        assert decode(y) == x, (y, x)
