"""A (3, 1)-burst correcting code of even length with four syndromes.

Deleting three consecutive symbols and inserting one shifts the tail by
two positions, which preserves parity of coordinates.  Splitting the
weight congruence into odd and even coordinates therefore survives the
burst, and the pair of weight deltas

    d_odd = (b - odd_weight(y)) mod 4, d_even = (c - even_weight(y)) mod 4

identifies the error shape exactly:

    {(3,0), (0,3)}  replaced 000 by 1
    {(3,1), (1,3)}  replaced 010 by 1
    {(2,1), (1,2)}  replaced 111 by 0
    {(2,0), (0,2)}  replaced 101 by 0
    deltas in {0,1} x {0,1}: the inserted bit matched a boundary symbol,
    so the net effect is a burst of at most two deletions

and any other combination cannot come from a (3, 1)-burst at all.  The
zero-prefixed run syndrome mod 4n then pins the location for the
deletion-like case; the pattern cases only need the position of the
inserted symbol.  The run count mod 5 is carried as a fourth congruence
and used as an extra filter.

Codeword space: n even, and for parameters (a, b, c, d)

    rsyn0(x) = a (mod 4n),  odd_weight(x) = b (mod 4),
    even_weight(x) = c (mod 4),  run_count(x) = d (mod 5).

_rows(n) states these congruences once, as the row automaton, built
once per length, that c31_member and c31_param_search run and that
C31Params checks its length against.  The residue tuples number the
product of its moduli, 4n * 4 * 4 * 5 = 320n, so the best choice keeps
at least 2^n/(320n) codewords: redundancy below log2(n) + 9.  Full
states, the four residues and the last bit, number up to 640n a
position (about 10k at n = 16); the search keys only the rests and
packs the counts of every leading residue into one int per rest.  When
5 does not divide n, 4n and 5 are coprime, so the leading residue runs
mod 20n and carries a and d, key entries 0 and 3, as its remainders
mod 4n and mod 5 (the CRT): the step reads a rest (odd, even, last
bit), 4 * 4 * 2 = 32 rests, so the search calls it at most 64 times a
position.  At n = 10, 20 and the other lengths that 5 divides the
leading residue is a alone, mod 4n, and the rest (odd, even, runs,
last bit) keeps d: 160 rests and at most 320 step calls a position.
Either way the step returns the increment of the leading residue with
the next rest and never sees the residue.

The decoder never rescans a candidate.  Every preimage of y is
y[:p] + block + y[p + r:]: a pair inserted at p (r = 0), or a pattern
block replacing the mark y_{p+1} (r = 1).  Either way the suffix moves
up two coordinates, so its odd and even weights stay put and each of
its transitions' rsyn0 terms n + 1 - i falls by exactly 2.  The weight
change thus depends on p only through its parity, which picks the one
block that can pass b and c at each start before any position is looked
at, and a pair is tried only where no later start gives its word.  One
pass over y gives the prefix sums of the rsyn0 terms and of the
transition count (x_0 = 0), and the suffix sums are their differences.
A candidate's rsyn0 and run count then come in O(1): prefix plus suffix
plus the at most len(block) + 1 transitions at and inside the block.
A string is built only for a word that passes a, b and c.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache

from .codes import (
    PATTERN_000_TO_1,
    PATTERN_010_TO_1,
    PATTERN_101_TO_0,
    PATTERN_111_TO_0,
    TWO_BURST_DELETION,
    Codebook,
    _check_params,
    _check_received,
    _check_syndromes,
    _expect_one,
    _in_bucket,
    _largest_bucket,
    _lift,
    _transition_sums,
    _window_flips,
)
from .errors import DecodeFailure
from .words import _check_int

__all__ = ["C31Params", "C31Trace", "classify_31", "c31_member", "c31_decode", "c31_param_search"]

# (shape, replaced symbol, blocks): every preimage of y replaces one
# symbol of y, or nothing for a pair, by one of the blocks
_PREIMAGES = (
    (TWO_BURST_DELETION, "", ("00", "01", "10", "11")),
    (PATTERN_000_TO_1, "1", ("000",)),
    (PATTERN_010_TO_1, "1", ("010",)),
    (PATTERN_111_TO_0, "0", ("111",)),
    (PATTERN_101_TO_0, "0", ("101",)),
)


def _shape_table(preimages: tuple) -> dict:
    """Weight deltas -> (shape, replaced symbol, wants, blocks) for the
    deltas some preimage gives: at a start p of parity q, blocks[q] is
    the one block to try, where y[p] is wants[q]; None where none is.

    A block's first symbol lands on x_{p+1}, and the moved suffix keeps
    its parities, so the (odd, even) weight change mod 4 depends on p
    only through its parity, and no two blocks share one there.  A
    pattern block replaces its mark y[p].  A pair starting with y[p]
    gives the word of p + 1's pair, so a pair is tried only where y[p]
    differs from its first bit, and at p = len(y): each word once.
    """
    table = {}
    for shape, mark, blocks in preimages:
        for bl in blocks:
            same = (bl[0::2].count("1") - mark.count("1")) % 4
            other = bl[1::2].count("1") % 4
            # an even p puts the block's first symbol on an odd coordinate
            for q, deltas in ((0, (same, other)), (1, (other, same))):
                entry = table.setdefault(deltas, (shape, mark, [None, None], [None, None]))
                entry[2][q] = mark or "01"[bl[0] == "0"]
                entry[3][q] = bl
    return {deltas: (shape, mark, tuple(wants), tuple(bls))
            for deltas, (shape, mark, wants, bls) in table.items()}


_SHAPES = _shape_table(_PREIMAGES)


@dataclass(frozen=True)
class C31Params:
    n: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        _rows(self.n)
        _check_syndromes(self.a, self.b, self.c, self.d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class C31Trace:
    """What the decoder saw: deltas, classification, candidate accounting."""

    d_odd: int
    d_even: int
    d_run: int
    classification: str
    candidates: int
    survivors: int
    run_filter_decisive: bool


_LENGTH = "length must be even and >= 4, got {}"


def _rows(n: int) -> tuple:
    """The one row automaton of the code: key (a, b, c, d), that is
    (rsyn0, odd weight, even weight, run count) reduced mod
    (4n, 4, 4, 5).

    The code needs n even and >= 4; any other length is refused before
    the cache, which would take 8.0 for 8."""
    if _check_int(n, 4, _LENGTH, n) % 2:
        raise ValueError(_LENGTH.format(n))
    return _automaton(n)


@cache
def _automaton(n: int) -> tuple:
    """_rows() for a checked length.

    rsyn0 adds n + 1 - i where x_i != x_{i-1} (x_0 = 0); the run count
    is 1 for x_1 plus 1 per change inside x.  When 5 does not divide n,
    4n and 5 are coprime, so one leading residue mod 20n carries a and d
    (key entries 0 and 3) and the rest is (odd, even, last bit).  Else
    the rest carries the run count too: (odd, even, runs, last bit)."""
    mod_a = 4 * n
    if n % 5 == 0:
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

        return (((0, 0, 1, 0), step, (mod_a, 4, 4, 5), (0,)),)

    # the CRT lift to mod 20n is linear, with unit 1 mod 4n and 0 mod 5 and
    # run 0 mod 4n and 1 mod 5: a transition at i adds (n + 1 - i) unit +
    # run, top - i unit, and an unchanged x_1 adds run, opening the first run
    unit, run = _lift(1, mod_a, 0, 5), _lift(0, mod_a, 1, 5)
    top = (n + 1) * unit + run

    def packed_step(rest, i, bit):
        odd, even, last = rest
        if bit:
            if i % 2:
                odd = (odd + 1) % 4
            else:
                even = (even + 1) % 4
        return (top - i * unit if bit != last else run if i == 1 else 0), (odd, even, bit)

    return (((0, 0, 0), packed_step, (mod_a, 4, 4, 5), (0, 3)),)


def c31_member(x: str, params: C31Params) -> bool:
    _check_params(params, C31Params)
    vals = (params.a, params.b, params.c, params.d)
    return _in_bucket(x, params.n, _rows(params.n), vals)


def _shape(y: str, params: C31Params) -> tuple[tuple, tuple[int, int]]:
    """The _SHAPES entry of y and the weight deltas (d_odd, d_even) that
    name it."""
    _check_received(y, _check_params(params, C31Params).n - 2)
    key = ((params.b - y[0::2].count("1")) % 4, (params.c - y[1::2].count("1")) % 4)
    entry = _SHAPES.get(key)
    if entry is None:
        raise DecodeFailure(f"weight deltas {key} cannot come from a (3,1)-burst")
    return entry, key


def classify_31(y: str, params: C31Params) -> str:
    """Error shape of the received word, from the two weight deltas alone."""
    return _shape(y, params)[0][0]


def c31_decode(y: str, params: C31Params, *, trace: bool = False):
    """Recover the codeword one (3, 1)-burst of which produced y.

    Returns the codeword, or (codeword, C31Trace) when trace=True.
    Exactly one candidate must survive all four congruences; anything
    else aborts with DecodeFailure or DecodeAmbiguity.  Candidates are
    checked from prefix sums of y, as the module docstring describes.  A
    returned word is a codeword that one (3, 1)-burst takes to y; any
    other y of length n - 2 raises DecodingError.  That holds by
    construction: every candidate is a one-burst preimage of y, a pattern
    block in place of its mark or a pair put in, and it is returned only
    if it passes every congruence.
    """
    (label, mark, wants, blocks), deltas = _shape(y, params)
    n, m, r = params.n, len(y), len(mark)
    starts = [p for p, ch in enumerate(y) if ch == wants[p % 2]] + ([] if r else [m])
    head_a, head_t = _transition_sums(y, n)
    mod_a, a, d = 4 * n, params.a % (4 * n), params.d % 5
    partial = {}
    for p in starts:
        bl = blocks[p % 2]
        left = y[p - 1] if p else "0"
        k = p + r
        right = y[k] if k < m else ""
        # the suffix's own transitions sit at y coordinates k + 2..m
        j = k + 1 if k < m else m
        tail_t = head_t[m] - head_t[j]
        # the window's pair at offset o is the transition at x_{p+1+o}
        cnt, offs = _window_flips(left + bl + right)
        total = head_a[p] + head_a[m] - head_a[j] - 2 * tail_t + cnt * (n - p) - offs
        if total % mod_a == a:
            x = y[:p] + bl + y[k:]
            # runs of x: transitions of 0x, plus one if x starts with 0
            partial[x] = (head_t[p] + cnt + tail_t + (x[0] == "0")) % 5 == d
    survivors = dict.fromkeys(x for x, ok in partial.items() if ok)
    word, _ = _expect_one(survivors, "c31_decode")
    if not trace:
        return word
    t = C31Trace(
        d_odd=deltas[0],
        d_even=deltas[1],
        # y's runs, as x's are counted above
        d_run=(params.d - head_t[m] - (y[:1] == "0")) % 5,
        classification=label,
        # inserting a pair at p gives the word of p + 1 exactly when its
        # first bit is y[p], so 2 per p < m and 4 at m are distinct: 2n;
        # no pattern block starts with its mark, so no two marks collide
        candidates=2 * n if r == 0 else y.count(mark),
        survivors=len(survivors),
        run_filter_decisive=len(partial) > 1,
    )
    return word, t


def c31_param_search(n: int) -> tuple[C31Params, Codebook]:
    """Largest (a, b, c, d) bucket at even length n, ties lexicographic."""
    best, size, lister = _largest_bucket(n, _rows(n))
    params = C31Params(n, *best)
    return params, Codebook._listed_later("c31", n, params.to_dict(), size, lister)
