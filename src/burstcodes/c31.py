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

_rows(n) states these congruences once, as the row automaton that both
c31_member and c31_param_search run.  The residue tuples number the
product of its moduli, 4n * 4 * 4 * 5 = 320n, so the best choice keeps
at least 2^n/(320n) codewords: redundancy below log2(n) + 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import (
    PATTERN_000_TO_1,
    PATTERN_010_TO_1,
    PATTERN_101_TO_0,
    PATTERN_111_TO_0,
    TWO_BURST_DELETION,
    Codebook,
    DEFAULT_ENUM_GUARD,
    _expect_one,
    _in_bucket,
    _largest_bucket,
)
from .errors import DecodeFailure
from .words import check_word, run_count, rsyn0, weights

__all__ = ["C31Params", "C31Trace", "classify_31", "c31_member", "c31_decode", "c31_param_search"]

_DELTA_TABLE = {
    (3, 0): PATTERN_000_TO_1,
    (0, 3): PATTERN_000_TO_1,
    (3, 1): PATTERN_010_TO_1,
    (1, 3): PATTERN_010_TO_1,
    (2, 1): PATTERN_111_TO_0,
    (1, 2): PATTERN_111_TO_0,
    (2, 0): PATTERN_101_TO_0,
    (0, 2): PATTERN_101_TO_0,
    (0, 0): TWO_BURST_DELETION,
    (0, 1): TWO_BURST_DELETION,
    (1, 0): TWO_BURST_DELETION,
    (1, 1): TWO_BURST_DELETION,
}

_PATTERN_OF = {
    PATTERN_000_TO_1: ("1", "000"),
    PATTERN_010_TO_1: ("1", "010"),
    PATTERN_111_TO_0: ("0", "111"),
    PATTERN_101_TO_0: ("0", "101"),
}


@dataclass(frozen=True)
class C31Params:
    n: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError(f"length must be even and >= 4, got {self.n}")

    def to_dict(self) -> dict:
        return {"n": self.n, "a": self.a, "b": self.b, "c": self.c, "d": self.d}


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


def _rows(n: int) -> tuple:
    """The one row automaton of the code, residues (a, odd, even, runs)."""

    def step(st, i, bit):
        # rsyn0 adds n+1-i where x_i != x_{i-1} (x_0 = 0); the run count
        # starts at 1 and counts only the changes inside x
        a, odd, even, runs, last = st
        if bit != last:
            a = (a + n + 1 - i) % (4 * n)
            if i > 1:
                runs = (runs + 1) % 5
        if bit:
            if i % 2:
                odd = (odd + 1) % 4
            else:
                even = (even + 1) % 4
        return a, odd, even, runs, bit

    return (((0, 0, 0, 1, 0), step, (4 * n, 4, 4, 5)),)


def c31_member(x: str, params: C31Params) -> bool:
    check_word(x)
    if len(x) != params.n:
        return False
    return _in_bucket(x, _rows(params.n), (params.a, params.b, params.c, params.d))


def classify_31(y: str, params: C31Params) -> str:
    """Error shape of the received word, from the two weight deltas alone."""
    check_word(y)
    if len(y) != params.n - 2:
        raise ValueError(f"received word must have length {params.n - 2}, got {len(y)}")
    w = weights(y)
    key = ((params.b - w.odd) % 4, (params.c - w.even) % 4)
    label = _DELTA_TABLE.get(key)
    if label is None:
        raise DecodeFailure(f"weight deltas {key} cannot come from a (3,1)-burst")
    return label


def c31_decode(y: str, params: C31Params, *, trace: bool = False):
    """Recover the codeword one (3, 1)-burst of which produced y.

    Returns the codeword, or (codeword, C31Trace) when trace=True.
    Exactly one candidate must survive all four congruences; anything
    else aborts with DecodeFailure or DecodeAmbiguity.
    """
    label = classify_31(y, params)
    n = params.n
    if label == TWO_BURST_DELETION:
        cands = {
            y[: q - 1] + pair + y[q - 1 :]
            for q in range(1, n)
            for pair in ("00", "01", "10", "11")
        }
    else:
        mark, block = _PATTERN_OF[label]
        cands = {
            y[: j - 1] + block + y[j:]
            for j in range(1, n - 1)
            if y[j - 1] == mark
        }

    def passes_abc(w: str) -> bool:
        ww = weights(w)
        return (
            rsyn0(w) % (4 * n) == params.a % (4 * n)
            and ww.odd % 4 == params.b % 4
            and ww.even % 4 == params.c % 4
        )

    partial = [w for w in cands if passes_abc(w)]
    survivors = [w for w in partial if run_count(w) % 5 == params.d % 5]
    word, _ = _expect_one(dict.fromkeys(survivors), "c31_decode")
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


def c31_param_search(
    n: int, *, guard: int = DEFAULT_ENUM_GUARD
) -> tuple[C31Params, Codebook]:
    """Largest (a, b, c, d) bucket at even length n, ties lexicographic."""
    if n < 4 or n % 2:
        raise ValueError(f"length must be even and >= 4, got {n}")
    best, size, lister = _largest_bucket(n, _rows(n), guard)
    params = C31Params(n, *best)
    return params, Codebook._listed_later("c31", n, params.to_dict(), size, lister)
