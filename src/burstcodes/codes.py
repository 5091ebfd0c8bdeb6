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

The VT-sum decoders (VT, C21, SVT21) share one core, _pair_splices.
Each of their preimages replaces one symbol y_p of y by a pair b0 b1,
and the weight change b0 + b1 - y_p names the error:

    -1  ->  a 1 replaced 00          (merge-00->1)
     2  ->  a 0 replaced 11          (merge-11->0)
    0 or 1  ->  a single deletion: the pair keeps y_p at one end.

VT takes changes 0 and 1; C21 and SVT21 read their one change from the
weight residue, (b - weight(y)) mod 4 as -1..2.  C21(n) is SVT21 at
P = n, so C21 decodes as SVT21 over the window of every start 1..n-1.
One O(n) pass over y gives its VT sum and a suffix-weight table, the
number of 1s in each suffix; a splice at p shifts that suffix up one
coordinate, so each candidate's sum is checked in O(1), and strings are
built only for survivors.  C31 checks its run-syndrome candidates the
same way, from prefix sums of y's transitions (see c31).  LEV2 still
builds and rescans every distinct candidate.

Each family's syndrome is written once, as row automata (init, step,
mods), built once per shape; the member tests run them over one word,
and the searches count with them.  step(rest, pos, bit) returns the
increment d of the row's leading residue and the next rest, or None to
leave the word out; it never sees the leading residue, which starts at
0 and which the engine adds up and reduces mod mods[0] itself.

pigeonhole_search() finds, for any family, the syndrome values whose
codebook is largest; averaging guarantees the winner is at least 2^n
over the number of residue classes, the product of the rows' mods.
Every residue is a sum of per-position terms, so bucket sizes come from
a dynamic program over positions.  The leading residue never keys it:
per position, each rest holds one int packing the word counts of every
leading residue, and a step adds d to that residue by rotating the int.
So step runs 2 m times per distinct rest, m the row length, not per
state: for c31 at n = 16, about 160 rests a level instead of about 10k
states.  That pass only counts, keeping the rests each position
reached.  The codebook it returns takes its size from those counts; the
winning bucket's members are built on first use, by stepping those
rests again, and no other bucket's ever are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product

from .channel import _check_room
from .errors import DecodeAmbiguity, DecodeFailure, GuardLimit
from .words import _check_int, check_word, rsyn0

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


class Codebook:
    """All words of one length satisfying one family's syndrome equations.

    A book built from its members holds them from the start.  A book a
    search returns knows its size from the packed bucket counts and
    lists its members on first access, once, by stepping the rows again
    from the rests the count pass reached, as many step calls as the
    count took; the lister and those rests are dropped then, so a book
    that is never listed costs no more than the counts.
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
    if not seen:
        raise DecodeFailure(f"{context}: no syndrome-consistent candidate")
    if len(seen) > 1:
        raise DecodeAmbiguity(
            f"{context}: {len(seen)} syndrome-consistent candidates: "
            + ", ".join(sorted(seen))
        )
    [(word, tag)] = seen.items()
    return word, tag


def _check_syndromes(*vals) -> None:
    """Refuse syndrome values unless each is an int; a bool is not one."""
    for v in vals:
        _check_int(v, None, "syndrome values must be ints, got {!r}", v)


def _check_received(y: str, length: int) -> None:
    """Refuse a received word that is not binary or not of length length."""
    check_word(y)
    if len(y) != length:
        raise ValueError(f"received word must have length {length}, got {len(y)}")


def _suffix_ones(y: str) -> tuple[list[int], int]:
    """ones[i], the number of 1s in y[i:] for i = 0..len(y), and y's VT sum.

    ones[0] is the weight.  A 1 at coordinate j is counted in ones[0..j-1],
    j times, so the VT sum is the sum of the table.
    """
    ones = list(accumulate(map("1".__eq__, reversed(y)), initial=0))[::-1]
    return ones, sum(ones)


@cache
def _splice_pairs(changes: tuple) -> tuple:
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


def _pair_splices(
    y: str, ones: list[int], V: int, mod: int, target: int, lo: int, hi: int, changes
) -> dict:
    """The words that replace one y_p, lo <= p <= hi, by a pair b0 b1 whose
    weight change b0 + b1 - y_p is in changes and whose VT sum is target
    mod mod, each with the last p that gives it.

    The splice takes p * y_p off the sum, adds p * b0 + (p + 1) * b1 and
    moves y[p:] up one coordinate, so the sum is V + ones[p] + p * change
    + b1: O(1) per candidate, and a string is built only for a survivor.
    With b1 = y_p the word is that of the pair (y_{p-1}, b0) at p - 1, so
    after lo only b1 != y_p is tried: at most one pair per change.
    """
    first, later = _splice_pairs(changes)
    target = (target - V) % mod
    seen = {}
    table = first
    for p, yp in enumerate(y[lo - 1 : hi], lo):
        for change, b1, pair in table[yp]:
            if (ones[p] + p * change + b1) % mod == target:
                seen[y[: p - 1] + pair + y[p:]] = p
        table = later
    return seen


def _weight_splice(y: str, mod: int, a: int, b: int, lo: int, hi: int, context: str):
    """C21's and SVT21's tail: the one splice at lo <= p <= hi whose word
    has VT sum a mod mod and weight b mod 4, as (word, p, weight change)."""
    ones, V = _suffix_ones(y)
    # the weight change that gives weight b mod 4, read as -1..2
    change = (b - ones[0] + 1) % 4 - 1
    word, p = _expect_one(_pair_splices(y, ones, V, mod, a, lo, hi, (change,)), context)
    return word, p, change


# ---------------------------------------------------------------- VT


def vt_member(x: str, a: int, n: int) -> bool:
    return _in_bucket(x, n, _family_rows("vt", n, None, None)[0], (a,))


def vt_decode(y: str, a: int, n: int) -> str:
    """Recover the VT(n; a) codeword a single deletion of which gave y."""
    _check_syndromes(a)
    _check_room(n, 1, 0)
    _check_received(y, n - 1)
    if not y:
        # no symbol to splice at: the one bit whose sum is a
        return "01"[a % 2]
    # inserting a bit next to y_p replaces y_p by a pair that keeps it at
    # one end, a weight change of 0 or 1
    ones, V = _suffix_ones(y)
    seen = _pair_splices(y, ones, V, n + 1, a, 1, n - 1, (0, 1))
    word, _ = _expect_one(seen, "vt_decode")
    return word


# ---------------------------------------------------------------- LEV2


def lev2_member(x: str, a: int, n: int) -> bool:
    return _in_bucket(x, n, _family_rows("lev2", n, None, None)[0], (a,))


def lev2_decode(y: str, a: int, n: int) -> str:
    """Recover from a burst of at most two deletions.

    The received length says how many symbols went missing (0, 1, or 2);
    the zero-prefixed run syndrome mod 2n then pins the unique preimage.
    """
    _check_syndromes(a)
    _check_int(n, 1, "length must be >= 1")
    check_word(y)
    a = a % (2 * n)
    if len(y) == n:
        if lev2_member(y, a, n):
            return y
        raise DecodeFailure("lev2_decode: full-length word is not a codeword")
    if len(y) == n - 1:
        cands = {y[:i] + bit + y[i:] for i in range(n) for bit in "01"}
    elif len(y) == n - 2:
        cands = {y[:i] + pair + y[i:] for i in range(n - 1) for pair in ("00", "01", "10", "11")}
    else:
        raise ValueError(f"received length {len(y)} not in {{n, n-1, n-2}} for n={n}")
    seen = dict.fromkeys(w for w in cands if rsyn0(w) % (2 * n) == a)
    word, _ = _expect_one(seen, "lev2_decode")
    return word


# ---------------------------------------------------------------- C21


def c21_member(x: str, a: int, b: int, n: int) -> bool:
    return _in_bucket(x, n, _family_rows("c21", n, None, None)[0], (a, b))


def _deletion_run(x: str, y: str) -> tuple[int, int]:
    """The run of x whose one-symbol deletion yields y, as 1-based bounds.

    Deleting any symbol of a run gives the same word, and y first differs
    from x at the run's last symbol, so one scan finds the run.  x is y
    with one bit inserted, so that deletion always gives y back.
    """
    q = next((i for i, (u, v) in enumerate(zip(x, y)) if u != v), len(y))
    lo = q
    while lo and x[lo - 1] == x[q]:
        lo -= 1
    return lo + 1, q + 1


def c21_decode(y: str, a: int, b: int, n: int) -> DecodeOutcome:
    """Correct one (2, 1)-burst against syndromes (a mod 2n-1, b mod 4).

    The weight delta picks the error shape, and the position-weighted
    syndrome picks the one preimage of that shape.
    """
    _check_syndromes(a, b)
    _check_room(n, 2, 1)
    _check_received(y, n - 1)
    # C21(n) is SVT21 at P = n over every start: a merge is a splice of
    # weight change -1 or 2, a single deletion one of 0 or 1
    word, p, change = _weight_splice(y, 2 * n - 1, a, b, 1, n - 1, "c21_decode")
    if change in (0, 1):
        return DecodeOutcome(word, SINGLE_DELETION, _deletion_run(word, y))
    return DecodeOutcome(word, MERGE_00_TO_1 if change < 0 else MERGE_11_TO_0, (p, p))


# ---------------------------------------------------------------- SVT21


def svt21_member(x: str, c: int, d: int, P: int) -> bool:
    n = len(check_word(x))
    return _in_bucket(x, n, _family_rows("svt21", n, P, None)[0], (c, d))


def svt21_decode(
    y: str, c: int, d: int, P: int, window: tuple[int, int], n: int
) -> str:
    """Correct a (2, 1)-burst known to start inside window.

    window is a 1-based inclusive interval of at most P coordinates; it
    is clamped to the valid start range 1..n-1.  Only syndromes mod
    2P-1 and mod 4 are needed because candidate starts this close
    together can never collide on both.
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
    lo, hi = max(lo, 1), min(hi, n - 1)
    _check_int(hi, lo, "window {} has no valid burst start for n={}", window, n)
    return _weight_splice(y, 2 * P - 1, c, d, lo, hi, "svt21_decode")[0]


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
    return max_run_length(x) <= f


def c21rll_member(x: str, a: int, b: int, n: int, f: int | None = None) -> bool:
    """C21 membership with the run cap added (default cap rll_max_run(n))."""
    return _in_bucket(x, n, _family_rows("c21rll", n, None, f)[0], (a, b))


# ---------------------------------------------------------------- search


def _row_counts(init, step, mods: tuple, m: int):
    """Forward pass of one row automaton over m positions; it only counts.

    A level maps each rest to one int that packs the number of words
    reaching it with leading residue r, for every r mod mods[0]: field r
    is bits r*W .. r*W + W - 1, W whole bytes of at least m + 1 bits, so
    no count (at most 2^m) spills.  step(rest, pos, bit) runs once per
    (rest, pos, bit); its increment d, taken mod mods[0], moves every r
    to r + d, which is one cyclic rotation of the packed int.  Picks the
    best key by the (-count, key) rule.  Returns the levels, per
    position 0..m a tuple of the rests reached after that many
    positions; the best key; and the number of row words ending on it.
    """
    mod = mods[0]
    width = 8 * (m // 8 + 1)
    span = mod * width
    full = (1 << span) - 1
    level = {init: 1}
    levels = [(init,)]
    for pos in range(1, m + 1):
        nxt = {}
        for rest, packed in level.items():
            for bit in (0, 1):
                t = step(rest, pos, bit)
                if t is None:
                    continue
                d, rest2 = t
                shift = d % mod * width
                turned = (packed << shift | packed >> (span - shift)) & full
                nxt[rest2] = nxt.get(rest2, 0) + turned
        level = nxt
        levels.append(tuple(level))
    # rests that agree on the key's other entries share its buckets; no
    # field of their sum exceeds the 2^m words
    k = len(mods) - 1
    groups: dict[tuple, int] = {}
    for rest, packed in level.items():
        groups[rest[:k]] = groups.get(rest[:k], 0) + packed
    field = width // 8
    counts = {}
    for key, packed in groups.items():
        raw = packed.to_bytes(span // 8, "little")
        counts[key] = [
            int.from_bytes(raw[i : i + field], "little") for i in range(0, len(raw), field)
        ]
    # the smallest residue of each key list holding the top count
    size = max(map(max, counts.values()))
    best = min((c.index(size),) + key for key, c in counts.items() if size in c)
    return levels, best, size


def _row_words(init, step, mods: tuple, levels: list, best: tuple) -> list[str]:
    """The row words ending on the best key, in lexicographic order.

    The backward pass gives each rest a live mask, bit r set when the
    rest with leading residue r can still end on best, seeded from the
    last level's rests.  It steps each rest of each earlier level once
    per bit, as the count pass did, and keeps per position the moves
    into a live rest.  The walk then goes depth first, 0 before 1, from
    state (residue, rest), testing one mask bit per move, so it enters
    only prefixes of row words and costs O(m) per word.
    """
    mod = mods[0]
    full = (1 << mod) - 1
    tail = best[1:]
    live = {rest: 1 << best[0] for rest in levels[-1] if rest[: len(tail)] == tail}
    edges: list = [None] * (len(levels) - 1)
    for pos in range(len(edges) - 1, -1, -1):
        here, above = {}, {}
        for rest in levels[pos]:
            kept, mask = [], 0
            for bit, ch in enumerate("01"):
                t = step(rest, pos + 1, bit)
                if t is not None and (ahead := live.get(t[1])):
                    d = t[0] % mod
                    kept.append((ch, d, t[1], ahead))
                    # r is live when r + d is
                    mask |= (ahead >> d | ahead << (mod - d)) & full
            if kept:
                # stored 1 before 0, so the stack pops 0 first
                here[rest] = tuple(reversed(kept))
                above[rest] = mask
        edges[pos] = here
        live = above
    words = []
    stack = [(0, "", 0, init)]
    while stack:
        pos, word, res, rest = stack.pop()
        if pos == len(edges):
            words.append(word)
            continue
        for ch, d, rest2, ahead in edges[pos][rest]:
            res2 = (res + d) % mod
            if ahead >> res2 & 1:
                stack.append((pos + 1, word + ch, res2, rest2))
    return words


def _list_members(rows: tuple, counted: dict) -> tuple[str, ...]:
    """The best bucket's words in lexicographic order, from the levels
    and best keys in counted.

    Each distinct row lists its own words once.  A word's coordinates
    cycle over its rows, so the bucket is every choice of one word per
    row interleaved; with more than one row those words are sorted.  The
    cost is O(|C| n) plus the sort.
    """
    words = {
        row: _row_words(*row, levels, best) for row, (levels, best, _) in counted.items()
    }
    if len(rows) == 1:
        return tuple(words[rows[0]])
    members = ["".join(map("".join, zip(*ws))) for ws in product(*(words[row] for row in rows))]
    members.sort()
    return tuple(members)


def _largest_bucket(n: int, rows: tuple):
    """Key, size and member lister of the largest syndrome bucket of
    length-n words.

    rows holds one automaton (init, step, mods) per row of the word read
    as an array of k = len(rows) rows: row r has coordinates r+1, r+1+k,
    ...  A row's state is its leading residue, mod mods[0], and a rest,
    which starts at init.  step(rest, pos, bit) reads the bit at 1-based
    row position pos and returns (d, next rest), d the increment of the
    leading residue (any int), or None to leave the word out; the
    leading residue starts at 0, and the passes add d and reduce it
    themselves.  The leading residue and the first len(mods) - 1 entries
    of the final rest, the j-th taken mod mods[j], are the row's key,
    and a word's key is its rows' keys joined.  Rows share no
    coordinate, so bucket sizes multiply across rows and the best key
    is the rows' best keys joined; ties go to the smallest key.  Lengths
    above DEFAULT_ENUM_GUARD are refused before any counting.

    step never sees the leading residue, so no pass keys on it.  The
    forward pass steps each rest once per position and bit and carries
    the counts of all mods[0] residues packed in one int: 2 m step calls
    per rest and row of length m = n / k, up to mods[0] times fewer than
    one per state.  It keeps only the rests each level reached.  The
    backward pass steps those rests again, the same number of calls,
    and it and the member walk carry liveness as one bitmask over the
    leading residue per rest.

    Only the forward counts run here, once per distinct row automaton.
    The returned lister takes no argument and returns the members in
    lexicographic order, stepping the rows again; nothing is listed
    until it is called.
    """
    if n > DEFAULT_ENUM_GUARD:
        raise GuardLimit(f"search at n={n} exceeds the enumeration guard {DEFAULT_ENUM_GUARD}")
    m = n // len(rows)
    counted = {row: _row_counts(*row, m) for row in dict.fromkeys(rows)}
    best = sum((counted[row][1] for row in rows), ())
    size = math.prod(counted[row][2] for row in rows)
    return best, size, lambda: _list_members(rows, counted)


def _in_bucket(x: str, n: int, rows: tuple, vals: tuple) -> bool:
    """Whether x is a word of length n in the bucket of key vals, the
    rows' keys joined, each value taken mod its modulus.  Row r reads
    x[r::k], the coordinates _largest_bucket gives it, and adds up the
    increments of its leading residue; rows share no state, so each is
    run and checked in turn."""
    check_word(x)
    _check_syndromes(*vals)
    if len(x) != n:
        return False
    k = len(rows)
    vals = iter(vals)
    for r, (rest, step, mods) in enumerate(rows):
        res = 0
        for pos, bit in enumerate(map("1".__eq__, x[r::k]), 1):
            t = step(rest, pos, bit)
            if t is None:
                return False
            d, rest = t
            res += d
        key = (res,) + rest[: len(mods) - 1]
        if any(v % mod != next(vals) % mod for v, mod in zip(key, mods)):
            return False
    return True


def _weighted_row(mod: int, cap: int | None = None):
    """Row automaton with residues (sum of i * x_i mod mod, weight mod 4).

    The rest holds the weight; with a run cap it also carries the last
    bit and the length of the current run, and a run longer than cap
    leaves the word out.
    """
    if cap is None:
        return (0,), lambda rest, i, b: (i * b, ((rest[0] + b) % 4,)), (mod, 4)

    def step(rest, i, b):
        w, last, run = rest
        run = run + 1 if b == last else 1
        if run > cap:
            return None
        return i * b, ((w + b) % 4, b, run)

    return (0, None, 0), step, (mod, 4)


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
        row = ((), lambda rest, i, b: (i * b, ()), (n + 1,))
        return (row,), ("a",), {}
    if family == "lev2":
        # rsyn0(x) sums n+1-i over the i where x_i != x_{i-1}, with x_0 = 0;
        # the rest is the last bit
        def step(rest, i, b):
            return (n + 1 - i if b != rest[0] else 0), (b,)

        return (((0,), step, (2 * n,)),), ("a",), {}
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
    O(|C| n) more, on first access.  Lengths above DEFAULT_ENUM_GUARD,
    whose codebook would be too big to list, are refused.
    """
    _check_int(n, 1, "length must be >= 1")
    rows, names, fixed = _family_rows(family, n, P, f)
    best_key, size, lister = _largest_bucket(n, rows)
    params = dict(zip(names, best_key)) | fixed
    return params, Codebook._listed_later(family, n, params, size, lister)
