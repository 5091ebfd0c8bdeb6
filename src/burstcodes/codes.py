"""Component codes: syndrome definitions, membership tests, decoders.

Four single-error families live here.

* VT(n; a): position-weighted syndrome mod n+1, corrects one deletion.
* LEV2(n; a): zero-prefixed run syndrome mod 2n, corrects one burst of
  at most two deletions.
* C21(n; a, b): position-weighted syndrome mod 2n-1 plus weight mod 4,
  corrects any (2, 1)-burst (two deletions, one arbitrary insertion at
  the same spot).
* SVT21(P; c, d): the shifted variant, syndrome mod 2P-1, correcting a
  (2, 1)-burst whose start is already known to lie in a window of at
  most P consecutive coordinates.

All decoders work the same way: enumerate the finitely many preimages
the claimed error type allows, keep the syndrome-consistent ones, and
demand exactly one survivor.  One rule, _expect_one, picks the survivor
for every decoder here and in c31 and cts: zero survivors raise
DecodeFailure and two or more raise DecodeAmbiguity; the two conditions
are different facts about the received word and are never conflated.

The VT-sum decoders (VT, C21, SVT21, and so C21RLL and every row of
cts) share one core, _pair_splices: y's sums, its VT sum and weight
from int(y, 2), then the splice solve, _splice_solve.  cts feeds the
solve each row's sums read from one int of the whole received word.
Each preimage replaces one symbol y_p of y by a pair b0 b1, and the
weight change b0 + b1 - y_p names the error:

    -1  ->  a 1 replaced 00          (merge-00->1)
     2  ->  a 0 replaced 11          (merge-11->0)
    0 or 1  ->  a single deletion: the pair keeps y_p at one end.

VT takes changes 0 and 1; C21 and SVT21 pass their weight residue b,
and the core looks its splice up by (b - weight(y)) mod 4, the change
mod 4.  C21(n) is SVT21 at P = n, so C21 decodes as SVT21 over the
window of every start 1..n-1.  The core solves the VT-sum congruence in
closed form, as Levenshtein's VT decoder does.  Each change splices at
the positions of one symbol only, and the candidate's sum is a strictly
monotone function of the position's index among them, so each value of
the right residue class names at most one position, found by one
replace or count of y in C; y's weight gives the counts at its ends.
y's VT sum and weight come from _row_sum, the one int primitive for
them, which LEV2's transition sums use too and _row_sums writes out per
row of cts: a popcount of int(y, 2) per bit of the length, and one
more.  So a decode takes O(1) Python steps per candidate and O(n) work
in C, checks each argument once, and builds strings only for
survivors.  The run-syndrome decoders, LEV2 and C31, use that an
insert moves the suffix up a fixed number of coordinates, so each
suffix transition's term falls by that number, and a candidate's sum is
prefix plus shifted suffix plus the few transitions at its window.
LEV2 solves its congruence per window class (_lev2_core): at a run
start the sum is a multiple of the run's rank plus a constant, and
inside runs a strictly monotone function of the position, so each class
is one division, lookup or bisection over popcounts of y's transition
mask, O(log n) Python steps a decode with the O(n) work in C.  C31 still
checks each candidate in O(1) Python steps from prefix sums of y's
transitions (_transition_sums; see c31).  Both build a string only for
a survivor and read the transitions inside a window from _window_flips.

Each family's syndrome is written once, as row automata (init, step,
mods, lead), built once per shape from a few constants, no per-position
table; the member tests run them over one word, and the searches count
with them.  mods holds the moduli of the row's key entries, in key
order.  step(rest, pos, bit) returns the increment d of the row's
leading residue and the next rest, or None to leave the word out; it
never sees the leading residue, which starts at 0 and which the engine
adds up itself.  lead names the key entries that residue carries;
several must have coprime moduli, and the residue then runs mod their
product, each entry its remainder (the CRT).  The rest's first entries
are the other key entries.  VT's and LEV2's rows lead with (0,).  The
weighted rows, C21's, C21RLL's, SVT21's and every row of cts, key a VT
sum mod an odd M and the weight mod 4, so one residue mod 4M carries
both, lead (0, 1): unit * V + one * w, as the CRT is linear, so a 1 at
i adds i * unit + one.  The rest is () or, with a run cap, the last bit
and run length (_weighted_row).  c31, at lengths that 5 does not
divide, carries rsyn0 mod 4n and the run count mod 5 in one residue mod
20n, key entries 0 and 3, the same way.

pigeonhole_search() finds, for any family, the syndrome values whose
codebook is largest; averaging guarantees the winner is at least 2^n
over the number of residue classes, the product of the rows' mods.
Every residue is a sum of per-position terms, so bucket sizes come from
a dynamic program over positions.  The leading residue never keys it:
per position, each rest holds one int packing the word counts of every
leading residue, so step runs per rest, not per state (_row_counts).
That pass only counts, keeping the rests each position reached.  The
codebook it returns takes its size from those counts; the winning
bucket's members are built on first use, met in the middle of each row
from those rests (_row_words), and no other bucket's ever are.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, compress, product
from operator import mul, ne

from .channel import _check_room, _fields
from .errors import DecodeAmbiguity, DecodeFailure, GuardLimit
from .words import _check_int, check_word

__all__ = [
    "NO_ERROR",
    "SINGLE_DELETION",
    "TWO_BURST_DELETION",
    "MERGE_00_TO_1",
    "MERGE_11_TO_0",
    "PATTERN_000_TO_1",
    "PATTERN_010_TO_1",
    "PATTERN_111_TO_0",
    "PATTERN_101_TO_0",
    "DecodeOutcome",
    "Codebook",
    "vt_member",
    "vt_decode",
    "lev2_member",
    "lev2_decode",
    "c21_member",
    "c21_decode",
    "svt21_member",
    "svt21_decode",
    "rll_max_run",
    "rll_member",
    "max_run_length",
    "c21rll_member",
    "c21rll_decode",
    "pigeonhole_search",
    "DEFAULT_ENUM_GUARD",
]

NO_ERROR = "no-error"
SINGLE_DELETION = "single-deletion"
TWO_BURST_DELETION = "two-burst-deletion"
MERGE_00_TO_1 = "merge-00->1"
MERGE_11_TO_0 = "merge-11->0"
PATTERN_000_TO_1 = "pattern-000->1"
PATTERN_010_TO_1 = "pattern-010->1"
PATTERN_111_TO_0 = "pattern-111->0"
PATTERN_101_TO_0 = "pattern-101->0"

DEFAULT_ENUM_GUARD = 24


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoded word plus what the error looked like and where.

    window is a 1-based inclusive interval of burst start coordinates
    consistent with the received word.  For merge classifications it
    pins the exact coordinate; for a single deletion it spans the full
    run of the decoded word that the deletion happened in (whose upper
    end can exceed the received length by one, since a deletion at the
    very end leaves no later anchor).
    """

    word: str
    classification: str
    window: tuple[int, int]

    def __init__(self, word: str, classification: str, window: tuple[int, int]):
        # twice as fast as frozen's object.__setattr__; fields stay read-only
        d = self.__dict__
        d["word"], d["classification"], d["window"] = word, classification, window


class Codebook:
    """All words of one length satisfying one family's syndrome equations.

    A book built from its members holds them from the start.  A book a
    search returns knows its size from the packed bucket counts and
    lists its members on first access, once, meeting in the middle of
    each row from the rests the count pass reached; the lister and
    those rests are dropped then, so a book that is never listed costs
    no more than the counts.
    """

    def __init__(self, family: str, n: int, params: dict, members: tuple[str, ...]):
        self.family = family
        self.n = n
        self.params = params
        self.size = len(members)
        self._members = members
        self._lister = None

    @classmethod
    def _listed_later(cls, family: str, n: int, params: dict, size: int, lister) -> Codebook:
        """A book of known size whose members lister() returns when first needed."""
        book = cls(family, n, params, ())
        book.size = size
        book._lister = lister
        return book

    @property
    def members(self) -> tuple[str, ...]:
        if self._lister is not None:
            self._members, self._lister = self._lister(), None
        return self._members

    @property
    def redundancy(self) -> float:
        return self.n - math.log2(self.size)

    def to_dict(self, include_members: bool = False) -> dict:
        d = {
            "family": self.family,
            "n": self.n,
            "params": dict(self.params),
            "size": self.size,
            "redundancy": round(self.redundancy, 4),
        }
        if include_members:
            d["members"] = list(self.members)
        return d

    def __contains__(self, x: str) -> bool:
        return x in self.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.family, self.n, self.params, self.members) == (
            other.family, other.n, other.params, other.members
        )

    def __repr__(self) -> str:
        return (
            f"Codebook(family={self.family!r}, n={self.n}, "
            f"params={self.params!r}, size={self.size})"
        )


def _expect_one(seen: dict, context: str) -> tuple[str, object]:
    """The one (word, tag) item of seen; a refusal names context."""
    if len(seen) == 1:
        [item] = seen.items()
        return item
    if not seen:
        raise DecodeFailure(f"{context}: no syndrome-consistent candidate")
    raise DecodeAmbiguity(
        f"{context}: {len(seen)} syndrome-consistent candidates: " + ", ".join(sorted(seen))
    )


def _check_syndromes(*vals) -> None:
    """Refuse syndrome values unless each is an int; a bool is not one."""
    for v in vals:
        if type(v) is not int:
            raise ValueError(f"syndrome values must be ints, got {v!r}")


def _check_params(params, kind: type):
    """params if it is a kind, else ValueError naming the kind."""
    if not isinstance(params, kind):
        raise ValueError(f"params must be a {kind.__name__}, got {params!r}")
    return params


def _check_received(y: str, length: int) -> None:
    """Refuse a received word that is not binary or not of length length."""
    check_word(y)
    if len(y) != length:
        raise ValueError(f"received word must have length {length}, got {len(y)}")


@cache
def _row_masks(k: int, size: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Per row y[i::k], i < k, of a word of length size: the mask of the
    row's bits in the word's int and, per bit q of a row index j, the mask
    of the row's bits whose j has bit q set.  Coordinate j + 1 of row i is
    coordinate i + 1 + k j of the word, bit size - 1 - i - k j.  A mask is
    built as a bit string in C, its marks k - 1 zeros apart."""
    gap, masks = "0" * (k - 1), []
    for i in range(k):
        length = len(range(i, size, k))
        # "1" at each row index j in the mask: every j, then the j with bit q set
        marks = ["1" * length] + [(("0" * (1 << q) + "1" * (1 << q)) * (length >> q))[:length]
                                  for q in range((length - 1).bit_length())]
        ints = [int(("0" * i + gap.join(js)).ljust(size, "0") or "0", 2) for js in marks]
        masks.append((ints[0], tuple(zip(ints[1:], range(len(ints) - 1)))))
    return tuple(masks)


def _row_sum(u: int, parts: tuple) -> tuple[int, int]:
    """One row's VT sum and weight, (V, w), read from u, the int of a word
    with no bit outside the row, whose row index masks are parts (one
    row's second entry in _row_masks): w is one popcount, and V is w plus
    the sum of the row indices j of the 1s, one popcount per bit of j.
    A word that is its own one row (k = 1) passes its int as it is."""
    V = w = u.bit_count()
    for mask, q in parts:
        V += (u & mask).bit_count() << q
    return V, w


def _row_sums(v: int, masks: tuple) -> list[tuple[int, int]]:
    """Each row's VT sum and weight, (V, w), read from v, the int of the
    word whose _row_masks are masks: _row_sum()'s body, once per row."""
    sums = []
    for whole, parts in masks:
        u = v & whole
        V = w = u.bit_count()
        for mask, q in parts:
            V += (u & mask).bit_count() << q
        sums.append((V, w))
    return sums


# per weight change mod 4 (3 is -1), its splice: y_p, what it puts in,
# y_p twice for a merge (key j + p; else "", key j) and whether y_p is 1;
# None, a bit put in, takes changes 0 and 1
_SPLICES = {
    0: (("1", "0", "", True),),
    1: (("0", "1", "", False),),
    2: (("0", "11", "00", False),),
    3: (("1", "00", "11", True),),
}
_SPLICES[None] = _SPLICES[0] + _SPLICES[1]


def _pair_splices(y: str, mod: int, target: int, lo: int, hi: int, weight: int | None) -> dict:
    """The words that replace one y_p, lo <= p <= hi, by a pair b0 b1 whose
    VT sum is target mod mod, each with the last p that gives it: of the
    one weight change b0 + b1 - y_p that gives weight mod 4, or for weight
    None of changes 0 and 1, a bit put in.

    y's sums, its VT sum V and weight w as the _row_sum() of int(y, 2)
    as one row, then the solve.  The empty y of a length-1 word reads as
    0, and the solve puts the bit in at the front.
    """
    V, w = _row_sum(int(y or "0", 2), _row_masks(1, len(y))[0][1])
    return _splice_solve(y, V, w, mod, target, lo, hi, weight)


def _splice_solve(
    y: str, V: int, w: int, mod: int, target: int, lo: int, hi: int, weight: int | None
) -> dict:
    """_pair_splices() given y's VT sum V and weight w.

    The splice takes p * y_p off V, adds p * b0 + (p + 1) * b1 and
    moves y[p:] up one coordinate, so its sum is V + ones + p * change +
    b1, ones the number of 1s in y[p:].  Changes -1 and 2 are merges, at
    the 1s and 0s.  Changes 0 and 1 put c = change in after a y_p != c,
    or before y_lo, which is c put in after the last symbol before lo
    that is not c, or at the front.  With j the index of p among its
    symbol's positions, the sum less V is w - 1 - j (change 0),
    w - 1 - (j + p) (-1), w + 2 + j (1) or w + 2 + (j + p) (2), and c
    before y_lo takes the j below the window's, -1 at the front.  Each
    key, j or j + p, rises with p, so each key of the right residue in
    the window's range gives at most one p: c goes in after symbol j,
    found by one replace, and j + p is the index of p's first copy in y
    with that symbol doubled.  So the work is O(1) Python steps per key
    and O(n) in C, and a string is built only for a survivor.  A weight
    picks its one splice by its residue mod 4, in _SPLICES; j0 and j1 are
    counted only inside y (0 at lo = 1, w or len(y) - w at the end); and
    the first key is tested before any string is built.
    """
    target = (target - V) % mod
    size = len(y)
    seen = {}
    for sym, bits, twice, one in _SPLICES[None if weight is None else (weight - w) % 4]:
        # the indices j0 .. j1 - 1 of the symbols at lo <= p <= hi
        j0 = y.count(sym, 0, lo - 1) if lo > 1 else 0
        j1 = y.count(sym, 0, hi) if hi < size else w if one else size - w
        if twice:
            first, last = lo + j0, hi + j1 - 1
        else:
            first, last = j0 - 1, j1 - 1
        key = first + ((w - 1 - target if one else target - w - 2) - first) % mod
        if key > last:
            continue
        if twice:
            doubled = y.replace(sym, twice)
        for key in range(key, last + 1, mod):
            if twice:
                # p's first copy is the (2j + 1)-th symbol of doubled
                copies = doubled.count(sym, 0, key)
                if doubled[key - 1] != sym or not copies % 2:
                    continue
                p = key - copies // 2
                seen[y[: p - 1] + bits + y[p:]] = p
            else:
                # c goes in after symbol key, the last of the first
                # key + 1 marked
                i = y.replace(sym, "#", key + 1).rfind("#") + 1
                seen[y[:i] + bits + y[i:]] = i if i > lo else lo
    return seen


# ---------------------------------------------------------------- VT


def vt_member(x: str, a: int, n: int) -> bool:
    return _in_bucket(x, n, _family_rows("vt", n, None, None)[0], (a,))


def vt_decode(y: str, a: int, n: int) -> str:
    """Recover the VT(n; a) codeword a single deletion of which gave y.

    A returned word is a codeword that one deletion takes to y; any other
    y of length n - 1 raises DecodingError.  That holds by construction:
    every candidate is a one-deletion preimage of y, and it is returned
    only if it passes the congruence.
    """
    _check_syndromes(a)
    _check_room(n, 1, 0)
    _check_received(y, n - 1)
    # inserting a bit next to y_p replaces y_p by a pair that keeps it at
    # one end, a weight change of 0 or 1
    return _expect_one(_pair_splices(y, n + 1, a, 1, n - 1, None), "vt_decode")[0]


# ---------------------------------------------------------------- LEV2


def lev2_member(x: str, a: int, n: int) -> bool:
    return _in_bucket(x, n, _family_rows("lev2", n, None, None)[0], (a,))


def lev2_decode(y: str, a: int, n: int) -> str:
    """Recover from a burst of at most two deletions.

    The received length says how many symbols went missing (0, 1, or 2);
    the zero-prefixed run syndrome mod 2n then pins the unique preimage.
    The congruence is solved per window class, in O(log n) Python steps
    from popcounts of y's transition mask (see _lev2_core), and y at full
    length is checked from the same mask; a string is built only for a
    survivor.  A returned word is a codeword that one burst of at most
    two deletions takes to y; any other y of length n, n - 1 or n - 2
    raises DecodingError.  That holds by construction: every candidate is
    such a preimage of y, and it is returned only if it passes the
    congruence.
    """
    _check_syndromes(a)
    _check_int(n, 1, "length must be >= 1")
    check_word(y)
    a = a % (2 * n)
    if len(y) == n:
        if _transitions(y, n)[2] % (2 * n) == a:
            return y
        raise DecodeFailure("lev2_decode: full-length word is not a codeword")
    if not n - 2 <= len(y) < n:
        raise ValueError(f"received length {len(y)} not in {{n, n-1, n-2}} for n={n}")
    word, _ = _expect_one(_lev2_core(y, a, n), "lev2_decode")
    return word


def _lev2_core(y: str, a: int, n: int) -> dict:
    """The words that put k = n - len(y) bits u into y and whose rsyn0 is
    a mod 2n, each with the position p of its insert, solved per window
    class in O(log n) Python steps.

    Putting u in after y_p (y_0 = 0) moves y[p:] up k coordinates, so each
    of its transitions' rsyn0 terms n + 1 - i falls by exactly k.  An
    insert whose first bit is y_{p+1} gives the word of p + 1, so at
    p < m = len(y) only u_1 != y_{p+1} is tried, and then the window
    y_p u y_{p+1} makes the candidate's rsyn0

        A - k T_m + k T(p + 1) + 2 (1 - f) (n - p) - o,

    A the sum of y's transition terms, T(i) the number of its transitions
    at y_1..y_i, f = 1 when y_{p+1} starts a run (y_{p+1} != y_p), and
    o = 1, or 2 when k = 2 and u_1 = u_2.  At a run start that is k times
    the run's rank T(p + 1) plus a constant, so one division gives the
    rank and one bisection its p.  Inside runs, 2 p - k T(p + 1) strictly
    rises with p (T rises by at most 1 a step, and not at the next
    interior p) and spans less than 2n, so one value of its residue class
    is in range, and one bisection finds the p that has it, kept only if
    it is interior.  The 2^k inserts at p = m add 0 .. 2^k - 1 to A, one
    each, so one lookup finds the one that fits.  Each word comes once,
    as from trying all n + 1 (k = 1) or 2n (k = 2) candidates.  T and A
    come from popcounts of y's transition mask, so the O(n) work is in C,
    and a string is built only for a survivor.
    """
    m, k, mod = len(y), n - len(y), 2 * n
    d, t_m, big_a = _transitions(y, n)
    seen = {}
    ins = _END_INSERTS[k, y[-1:] or "0"].get((a - big_a) % mod)
    if ins is not None:
        seen[y + ins] = m
    if not m:
        return seen
    # bit last - p of d is y_{p+1} != y_p, so T(p + 1) is the popcount of
    # d >> last - p
    last = m - 1

    def head(p):
        return (d >> last - p).bit_count()

    def key(p):
        return 2 * p - k * (d >> last - p).bit_count()

    lo, hi = key(0), key(last)
    for o, ins in _INSERTS[k]:
        base = big_a - k * t_m - o
        # run starts: k T(p + 1) is a - base mod 2n, and T(p + 1) is at
        # most T_m < 2n / k, so it is that residue over k
        rank, rem = divmod((a - base) % mod, k)
        if not rem and 1 <= rank <= t_m:
            p = bisect_left(range(m), rank, key=head)
            seen[y[:p] + ins[y[p]] + y[p:]] = p
        # interior p: the sum is base + 2n - key(p), so key(p) is base - a
        v = lo + (base - a - lo) % mod
        if v <= hi:
            p = bisect_left(range(m), v, key=key)
            if key(p) == v and not d >> last - p & 1:
                seen[y[:p] + ins[y[p]] + y[p:]] = p
    return seen


# per k, each o of _lev2_core with the insert it puts before y_{p+1}
_INSERTS = {
    1: ((1, {"0": "1", "1": "0"}),),
    2: ((1, {"0": "10", "1": "01"}), (2, {"0": "11", "1": "00"})),
}


def _transitions(y: str, n: int) -> tuple[int, int, int]:
    """y's transition mask d, with y_0 = 0: bit len(y) - i is y_i !=
    y_{i-1}; the number t of transitions, d's weight; and the sum of their
    rsyn0 terms n + 1 - i in a word of length n, (n + 1) t less d's VT
    sum, the rsyn0 of y itself at len(y) = n."""
    v = int(y, 2) if y else 0
    d = v ^ v >> 1
    V, t = _row_sum(d, _row_masks(1, len(y))[0][1])
    return d, t, (n + 1) * t - V


def _transition_sums(y: str, n: int) -> tuple[list[int], list[int]]:
    """Prefix sums over y, with y_0 = 0, of the transitions y_i != y_{i-1}
    weighted by their rsyn0 terms n + 1 - i in a word of length n, and
    of the transitions alone: entry p sums those at y_1..y_p.  c31's
    decoder reads them per candidate."""
    flips = list(map(ne, "0" + y, y))  # flips[i - 1]: y_i != y_{i-1}
    head_a = list(accumulate(map(mul, flips, range(n, n - len(y), -1)), initial=0))
    return head_a, list(accumulate(flips, initial=0))


@cache
def _window_flips(w: str) -> tuple[int, int]:
    """How many adjacent pairs of w differ, and the sum of their offsets
    (k for the pair w[k], w[k + 1])."""
    ks = [k for k in range(len(w) - 1) if w[k] != w[k + 1]]
    return len(ks), sum(ks)


# per (k, y_m), each k-bit insert at the end of y keyed by what it adds
# to y's rsyn0: the pair of y_m + insert at offset o has the term
# n - m - o = k - o, and the 2^k inserts add 0 .. 2^k - 1 < 2n, once each
_END_INSERTS = {
    (k, left): {cnt * k - offs: ins
                for ins in map("".join, product("01", repeat=k))
                for cnt, offs in [_window_flips(left + ins)]}
    for k in (1, 2) for left in "01"
}


# ---------------------------------------------------------------- C21


def c21_member(x: str, a: int, b: int, n: int) -> bool:
    return _in_bucket(x, n, _family_rows("c21", n, None, None)[0], (a, b))


def c21_decode(y: str, a: int, b: int, n: int) -> DecodeOutcome:
    """Correct one (2, 1)-burst against syndromes (a mod 2n-1, b mod 4).

    The weight delta picks the error shape, and the position-weighted
    syndrome picks the one preimage of that shape.  A returned word is a
    codeword that one (2, 1)-burst takes to y; any other y of length
    n - 1 raises DecodingError.  That holds by construction: every
    candidate is a one-burst preimage of y, and it is returned only if it
    passes both congruences.
    """
    _check_syndromes(a, b)
    _check_room(n, 2, 1)
    _check_received(y, n - 1)
    seen = _pair_splices(y, 2 * n - 1, a, 1, n - 1, b)
    return DecodeOutcome(*_c21_outcome(y, seen, None, "c21_decode"))


def _c21_outcome(y: str, seen: dict, f: int | None, context: str) -> tuple[str, str, tuple]:
    """The one word of seen, C21's splice solve on y, with its
    classification and window; a refusal to find one names context, and
    with a run cap f, a word with a longer run raises DecodeFailure.  A
    merge's pair drops y_p at both ends; a single deletion's keeps it at
    one, and the window is the run of the word holding the bit put in,
    from the last other symbol before it in y to the first after."""
    word, p = _expect_one(seen, context)
    if f is not None and not _within_run_cap(word, f):
        raise DecodeFailure("row 1 decoded outside the run cap")
    yp = y[p - 1]
    if word[p - 1] == word[p] != yp:
        return word, MERGE_00_TO_1 if yp == "1" else MERGE_11_TO_0, (p, p)
    i = p - (word[p] == yp)
    other = "0" if word[i] == "1" else "1"
    return word, SINGLE_DELETION, (y.rfind(other, 0, i) + 2, y.find(other, i) + 1 or len(word))


# ---------------------------------------------------------------- SVT21


def svt21_member(x: str, c: int, d: int, P: int) -> bool:
    n = len(check_word(x))
    return _in_bucket(x, n, _family_rows("svt21", n, P, None)[0], (c, d), checked=True)


def svt21_decode(
    y: str, c: int, d: int, P: int, window: tuple[int, int], n: int
) -> str:
    """Correct a (2, 1)-burst known to start inside window.

    window is a 1-based inclusive interval of at most P coordinates; it
    is clamped to the valid start range 1..n-1.  Only syndromes mod
    2P-1 and mod 4 are needed because candidate starts this close
    together can never collide on both.  A returned word is a codeword
    that one (2, 1)-burst starting inside the window takes to y; any
    other y of length n - 1 raises DecodingError.  That holds by
    construction: every candidate is such a preimage of y, and it is
    returned only if it passes both congruences.
    """
    _check_syndromes(c, d)
    _check_room(n, 2, 1)
    _check_received(y, n - 1)
    _check_int(P, 1, "window capacity P must be >= 1")
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise ValueError(f"window must be a pair (lo, hi), got {window!r}") from None
    _check_int(lo, None, "empty window {}", window)
    _check_int(hi, lo, "empty window {}", window)
    _check_int(P, hi - lo + 1, "window {} longer than P={}", window, P)
    _check_int(min(hi, n - 1), max(lo, 1), "window {} has no valid burst start for n={}", window, n)
    seen = _pair_splices(y, 2 * P - 1, c, max(lo, 1), min(hi, n - 1), d)
    return _expect_one(seen, "svt21_decode")[0]


# ---------------------------------------------------------------- RLL


def rll_max_run(n: int) -> int:
    """Run cap ceil(log2 n) + 3 used by the interleaved construction."""
    _check_int(n, 1, "length must be >= 1")
    return (n - 1).bit_length() + 3


def max_run_length(x: str) -> int:
    """Length of the longest run in x; 0 for the empty word."""
    check_word(x)
    if not x:
        return 0
    best = cur = 1
    for prev, ch in zip(x, x[1:]):
        cur = cur + 1 if ch == prev else 1
        if cur > best:
            best = cur
    return best


def rll_member(x: str, f: int) -> bool:
    """True when every run of x has length at most f."""
    _check_int(f, 1, "run cap must be >= 1")
    return _within_run_cap(check_word(x), f)


def _within_run_cap(x: str, f: int) -> bool:
    """rll_member() for checked arguments: no f + 1 equal symbols stand in
    a row, two substring searches in C; a cap of at least len(x) holds at
    once, before a search string that long is built."""
    return f >= len(x) or "0" * (f + 1) not in x and "1" * (f + 1) not in x


def c21rll_member(x: str, a: int, b: int, n: int, f: int | None = None) -> bool:
    """C21 membership with the run cap added (default cap rll_max_run(n))."""
    return _in_bucket(x, n, _family_rows("c21rll", n, None, f)[0], (a, b))


def c21rll_decode(y: str, a: int, b: int, n: int, f: int | None = None) -> DecodeOutcome:
    """Correct one (2, 1)-burst against c21rll_member's syndromes and cap.

    C21's decode finds the one candidate, and a word with a run over the
    cap raises DecodeFailure; so a returned word is a codeword that one
    (2, 1)-burst takes to y, and any other y of length n - 1 raises
    DecodingError.  The code is cts with one row, decoded by its row-1 step.
    """
    _check_syndromes(a, b)
    _check_room(n, 2, 1)
    f = rll_max_run(n) if f is None else _check_int(f, 1, "run cap must be >= 1")
    _check_received(y, n - 1)
    seen = _pair_splices(y, 2 * n - 1, a, 1, n - 1, b)
    return DecodeOutcome(*_c21_outcome(y, seen, f, "c21rll_decode"))


# ---------------------------------------------------------------- search


def _key(mods: tuple, lead: tuple, res: int, rest: tuple) -> tuple:
    """The row's key from its leading residue res and its final rest:
    key entry j is res mod mods[j] for each j in lead (the CRT), and the
    rest's first entries fill the other places, in key order."""
    tail = iter(rest)
    return tuple(res % mod if j in lead else next(tail) for j, mod in enumerate(mods))


def _row_counts(row, m: int):
    """Forward pass of one row automaton over m positions; it only counts.

    A level maps each rest to one int that packs the number of words
    reaching it with leading residue r, for every r mod M, M the product of
    the lead moduli: field r is bits r*W .. r*W + W - 1, W the smallest
    power of two >= max(8, m).  A field holds up to 2^W - 1 words and a
    (rest, residue) cell after pos positions at most 2^pos, so only a final
    cell, summed over the rests of one key group (rests that agree on the
    key's other entries), can overflow its field: at W = m, with no word
    left out and all 2^m words in that cell.  The sums are exact ints, so
    then the one group's int is 2^m << r W, a single set bit, and with
    every word in and no cell full at least two fields are non-zero; the
    pass checks for that bit before it reads any field.  step(rest, pos,
    bit) runs once per (rest, pos, bit); its increment d, taken mod M,
    moves every r to r + d, which is one cyclic rotation of the packed int,
    and no work at all when d is 0 mod M.  At the end channel._fields()
    reads each key's fields as W-bit unsigned ints.  The first int to
    reach a rest is stored as it is and later ones are added to it, so no
    int is copied just to start a sum.  With the weight in the leading
    residue (lead (0, 1)), c21's and svt21's rows reach one rest a level,
    so the pass makes 2 m step calls.
    Picks the best key by the (-count, key) rule, on the key itself, not on
    r.  Returns the levels, per position 0..m a tuple of the rests reached
    after that many positions; the best key; and the number of row words
    ending on it.
    """
    init, step, mods, lead = row
    mod = math.prod(mods[j] for j in lead)
    k = len(mods) - len(lead)
    width = max(8, 1 << (m - 1).bit_length())
    span = mod * width
    full = (1 << span) - 1
    left_out = False
    level = {init: 1}
    levels = [(init,)]
    for pos in range(1, m + 1):
        nxt = {}
        for rest, packed in level.items():
            for bit in (0, 1):
                t = step(rest, pos, bit)
                if t is None:
                    left_out = True
                    continue
                d, rest2 = t
                shift = d % mod * width
                turned = (packed << shift | packed >> (span - shift)) & full if shift else packed
                if rest2 in nxt:
                    nxt[rest2] += turned
                else:
                    nxt[rest2] = turned
        level = nxt
        levels.append(tuple(level))
    # rests that agree on the key's other entries share its buckets
    groups: dict[tuple, int] = {}
    for rest, packed in level.items():
        if rest[:k] in groups:
            groups[rest[:k]] += packed
        else:
            groups[rest[:k]] = packed
    if width == m and not left_out and len(groups) == 1:
        [(tail, packed)] = groups.items()
        if packed.bit_count() == 1:
            # all 2^m words in one cell r, which no m-bit field holds: packed is 2^m << r m
            return levels, _key(mods, lead, (packed.bit_length() - 1) // m - 1, tail), 1 << m
    split = _fields(width, mod)[1]
    counts = {tail: split(packed) for tail, packed in groups.items()}
    size = max(map(max, counts.values()))

    def least(c: tuple) -> int:
        # a group's keys share their other entries, so its least key has
        # the least lead entries
        ties = compress(range(mod), map(size.__eq__, c))
        return min(ties, key=lambda r: [r % mods[j] for j in lead])

    best = min(_key(mods, lead, least(c), tail) for tail, c in counts.items() if size in c)
    return levels, best, size


def _row_words(row, levels: list, best: tuple) -> list[str]:
    """The row words ending on the best key, in lexicographic order, met
    in the middle at h = m // 2 (Horowitz and Sahni, J. ACM 1974).

    Backward: from the last level's rests that end on best's other
    entries, each rest of levels m - 1 down to h takes its successors'
    suffixes, 0-branch before 1-branch, so each rest's list is in
    lexicographic order, each suffix with the residue it adds.  At h,
    each rest's suffixes are grouped by that residue mod M.  Forward:
    the length-h prefixes, in lexicographic order, each with its residue
    and rest.  Join: each prefix, in order, takes the suffixes of its
    rest whose residue completes its own to best's leading residue.
    step runs twice per rest at each position above h and twice per
    prefix up to h, so the cost is O(2^(m/2) rests + |C|) and no word is
    walked symbol by symbol.
    """
    init, step, mods, lead = row
    mod = math.prod(mods[j] for j in lead)
    tail = tuple(v for j, v in enumerate(best) if j not in lead)
    # the leading residue whose key is best is best's first lead entry
    # plus a multiple of that entry's modulus
    first = lead[0]
    start = next(
        r for r in range(best[first], mod, mods[first]) if _key(mods, lead, r, tail) == best
    )
    m = len(levels) - 1
    h = m // 2
    # per rest, its suffixes and, in step, the residues they add
    ahead = {rest: ([""], [0]) for rest in levels[m] if rest[: len(tail)] == tail}
    put_bit = ((0, "0".__add__), (1, "1".__add__))
    for pos in range(m - 1, h - 1, -1):
        here = {}
        for rest in levels[pos]:
            sufs, adds = [], []
            for bit, put in put_bit:
                t = step(rest, pos + 1, bit)
                if t is not None and (nxt := ahead.get(t[1])):
                    sufs += map(put, nxt[0])
                    d = t[0] % mod
                    adds += map(d.__add__, nxt[1]) if d else nxt[1]
            if sufs:
                here[rest] = sufs, adds
        ahead = here
    # per rest at h, residue mod M -> its suffixes, still in order
    groups = {}
    for rest, (sufs, adds) in ahead.items():
        by_res = groups[rest] = {}
        for suf, r in zip(sufs, map(mod.__rmod__, adds)):
            if r in by_res:
                by_res[r].append(suf)
            else:
                by_res[r] = [suf]
    prefixes = [("", 0, init)]
    for pos in range(1, h + 1):
        longer = []
        for word, res, rest in prefixes:
            for bit, ch in ((0, "0"), (1, "1")):
                t = step(rest, pos, bit)
                if t is not None:
                    longer.append((word + ch, res + t[0], t[1]))
        prefixes = longer
    words = []
    for word, res, rest in prefixes:
        by_res = groups.get(rest)
        if by_res and (sufs := by_res.get((start - res) % mod)):
            words += map(word.__add__, sufs)
    return words


def _list_members(rows: tuple, counted: dict) -> tuple[str, ...]:
    """The best bucket's words in lexicographic order, from the levels
    and best keys in counted.

    Each distinct row lists its own words once.  A word's coordinates
    cycle over its k rows, so the bucket is every choice of one word per
    row interleaved.  With more than one row, each row word becomes an
    int with its bits at its row's coordinates: its symbols k - 1 zeros
    apart, shifted by the row's place.  A member is then the sum of one
    int per row, and the sums sort as ints and print as n-bit words, all
    in C.  The cost is each row's meet in the middle plus O(|C| log |C|)
    C steps for the sort.
    """
    words = {
        row: _row_words(row, levels, best) for row, (levels, best, _) in counted.items()
    }
    if len(rows) == 1:
        return tuple(words[rows[0]])
    k = len(rows)
    n = k * (len(counted[rows[0]][0]) - 1)
    pad = "0" * (k - 1)
    spread = [[int(pad.join(w), 2) << k - 1 - r for w in words[row]] for r, row in enumerate(rows)]
    return tuple(map(f"{{:0{n}b}}".format, sorted(map(sum, product(*spread)))))


def _largest_bucket(n: int, rows: tuple):
    """Key, size and member lister of the largest syndrome bucket of
    length-n words.

    rows holds one automaton (init, step, mods, lead) per row of the
    word read as an array of k = len(rows) rows: row r has coordinates
    r+1, r+1+k, ...  A row's state is its leading residue, mod M, the
    product of the moduli of the key entries lead names (mods[0] for
    (0,), 4 mods[0] for a weighted row's (0, 1)), and a rest, which
    starts at init.  step(rest, pos, bit) reads the bit at 1-based row
    position pos and returns (d, next rest), d the increment of the
    leading residue (any int), or None to leave the word out; the leading
    residue starts at 0, and the passes add d and reduce it themselves.
    The leading residue, each lead entry its remainder mod that entry's
    modulus, and the first entries of the final rest, in the other places,
    are the row's key, and a word's key is its rows' keys joined.  Rows
    share no coordinate, so bucket sizes multiply across rows and the best
    key is the rows' best keys joined; ties go to the smallest key.
    Lengths above DEFAULT_ENUM_GUARD are refused before any counting.

    step never sees the leading residue, so no pass keys on it.  The forward
    pass steps each rest of a row of length m = n / k once per position and
    bit, carrying the counts of all M residues packed in one int
    (_row_counts), and keeps only the rests each level reached.  The lister
    meets in the middle, h = m // 2 (_row_words): it steps each rest of the
    levels from h on once per bit to build their suffixes, and each
    length-h prefix once per bit, then joins them on the leading residue.

    Only the forward counts run here, once per distinct row automaton.
    The returned lister takes no argument and returns the members in
    lexicographic order, stepping the rows again from the kept rests;
    nothing is listed until it is called.
    """
    if n > DEFAULT_ENUM_GUARD:
        raise GuardLimit(f"search at n={n} exceeds the enumeration guard {DEFAULT_ENUM_GUARD}")
    m = n // len(rows)
    counted = {row: _row_counts(row, m) for row in dict.fromkeys(rows)}
    best = sum((counted[row][1] for row in rows), ())
    size = math.prod(counted[row][2] for row in rows)
    return best, size, lambda: _list_members(rows, counted)


def _in_bucket(x: str, n: int, rows: tuple, vals: tuple, *, checked: bool = False) -> bool:
    """Whether x is a word of length n in the bucket of key vals, the
    rows' keys joined, each value taken mod its modulus.  Row r reads
    x[r::k], the coordinates _largest_bucket gives it, and adds up the
    increments of its leading residue; rows share no state, so each is
    run and checked in turn.  checked says the caller validated x."""
    if not checked:
        check_word(x)
    _check_syndromes(*vals)
    if len(x) != n:
        return False
    k = len(rows)
    vals = iter(vals)
    for r, row in enumerate(rows):
        rest, step, mods, lead = row
        res = 0
        for pos, bit in enumerate(map("1".__eq__, x[r::k]), 1):
            t = step(rest, pos, bit)
            if t is None:
                return False
            d, rest = t
            res += d
        if any(v % mod != next(vals) % mod for v, mod in zip(_key(mods, lead, res, rest), mods)):
            return False
    return True


def _lift(u: int, mu: int, v: int, mv: int) -> int:
    """The residue mod mu * mv, for coprime mu and mv, that is u mod mu and
    v mod mv (the CRT)."""
    return u + mu * ((v - u) * pow(mu, -1, mv) % mv)


def _weighted_row(mod: int, cap: int | None = None):
    """Row automaton, of any length, with key (V, w) = (sum of i * x_i mod
    mod, weight mod 4), mod odd.

    Since mod is odd, it is coprime to 4, so one leading residue mod
    4 * mod, unit * V + one * w, carries both entries (lead (0, 1)), unit
    1 mod mod and 0 mod 4 and one 0 mod mod and 1 mod 4 (the CRT is
    linear): a 1 at position i adds i * unit + one.  The rest is () with
    no cap; else the last bit and the length of the run, and a run longer
    than cap leaves the word out."""
    unit, one = _lift(1, mod, 0, 4), _lift(0, mod, 1, 4)
    if cap is None:
        return (), lambda rest, i, b: (i * unit + one if b else 0, ()), (mod, 4), (0, 1)

    def step(rest, i, b):
        last, run = rest
        run = run + 1 if b == last else 1
        if run > cap:
            return None
        return (i * unit + one if b else 0), (b, run)

    return (None, 0), step, (mod, 4), (0, 1)


_ROW_FAMILIES = ("vt", "lev2", "c21", "c21rll", "svt21")


def _family_rows(family: str, n: int, P: int | None, f: int | None):
    """Return (row automata, parameter names, fixed params) for a family,
    built once per shape.  The arguments are checked before the cache,
    where 8.0 would hit 8's key: any int length (a member test answers
    False at another), n >= 1 for lev2's 2n, and only the options FAMILIES
    says the family reads."""
    from .families import FAMILIES  # it imports this module

    if family not in _ROW_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(_ROW_FAMILIES)}")
    FAMILIES[family].check_reads(family, P=P, f=f)
    _check_int(n, None, "length must be an int")
    if family == "lev2":
        _check_int(n, 1, "length must be >= 1")
    if f is not None:
        _check_int(f, 1, "run cap must be >= 1")
    if family == "svt21":
        if P is None:
            raise ValueError("svt21 needs the window capacity P")
        _check_int(P, 1, "window capacity P must be >= 1")
    return _build_rows(family, n, P, f)


@cache
def _build_rows(family: str, n: int, P: int | None, f: int | None):
    """_family_rows() for checked arguments."""
    if family == "vt":
        row = ((), lambda rest, i, b: (i * b, ()), (n + 1,), (0,))
        return (row,), ("a",), {}
    if family == "lev2":
        # rsyn0(x) sums n+1-i over the i where x_i != x_{i-1}, with x_0 = 0;
        # the rest is the last bit
        def step(rest, i, b):
            return (n + 1 - i if b != rest[0] else 0), (b,)

        return (((0,), step, (2 * n,), (0,)),), ("a",), {}
    if family == "c21":
        return (_weighted_row(2 * n - 1),), ("a", "b"), {}
    if family == "c21rll":
        cap = rll_max_run(n) if f is None else f
        return (_weighted_row(2 * n - 1, cap),), ("a", "b"), {"f": cap}
    return (_weighted_row(2 * P - 1),), ("c", "d"), {"P": P}


def pigeonhole_search(
    family: str,
    n: int,
    *,
    P: int | None = None,
    f: int | None = None,
) -> tuple[dict, Codebook]:
    """Best syndrome values for a family at length n.

    Counts the words of each residue tuple by dynamic programming over
    positions and returns the largest bucket; ties go to the
    lexicographically smallest tuple, so results are reproducible.  The
    search costs the count tables; the book lists its members, for
    O(2^(n/2) rests + |C|) more, on first access.  Lengths above
    DEFAULT_ENUM_GUARD, whose codebook would be too big to list, are
    refused.
    """
    _check_int(n, 1, "length must be >= 1")
    rows, names, fixed = _family_rows(family, n, P, f)
    best_key, size, lister = _largest_bucket(n, rows)
    params = dict(zip(names, best_key)) | fixed
    return params, Codebook._listed_later(family, n, params, size, lister)
