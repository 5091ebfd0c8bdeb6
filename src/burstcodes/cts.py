"""Interleaved construction correcting one (t, s)-burst, t >= 2s >= 2.

Write a codeword of length n as an array of k = t - s rows, row i
holding coordinates i, i+k, i+2k, ...  A (t, s)-burst deletes t
consecutive coordinates and inserts s, so the array of the corrupted
word keeps its row alignment (each row loses exactly one net symbol)
and every row suffers either a single deletion or a (2, 1)-burst.
Exactly s rows get the (2, 1)-bursts, and all the damage sits within
two adjacent columns.

Row 1 therefore carries a code that corrects any (2, 1)-burst outright
(C21 with a run cap f so its deletions localize well), and decoding it
first yields a short window of columns where every other row's error
starts.  Rows 2..k only need the cheaper windowed SVT21 codes.

Window bookkeeping, verified exhaustively in the test suite:

* merge on row 1 at column p      ->  other rows start in [p-1, p+1]
* deletion inside run [c1, c2]    ->  other rows start in [c1-1, c2]
  when s = 1, and in [c1-2, c2] when s >= 2.

The s >= 2 widening is real: a burst that starts on a late row wraps
row 1's damage one column to the right of everyone else's, and when
row 1's burst imitates a deletion at the front of a run the documented
[c1-1, c2] just misses the true start column of the rows below it
(directed sweeps show e.g. word 00000010, t=4, s=2, start 4, insert 10
needs column 2 while [c1-1, c2] clips to {3}).  The window capacity P
of the row codes is f+1 when s = 1 and f+2 when s >= 2 so the widened
window always fits.

cts_decode reads the received word as one int and takes every row's VT
sum and weight from it through strided masks built once per shape
(_row_masks), with codes' one VT-sum primitive written out in the row
loop of _row_sums, no call a row.  It runs the splice solve of codes on
each row, row 1 over starts 1..m-1 with C21's moduli and run cap, every
other row over the column window with SVT21's, and puts each row in the
word by one slice assignment.  Row 1's decode, the window and its clamp
to 1..m-1 are each done once a decode, and what the decoder reads of the
params (k, m, f and the moduli 2m-1 and 2P-1) is read once per params
object.  The outcome and trace objects are built only for a traced
decode.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cache, cached_property

from .channel import _check_sizes
from .codes import (
    MERGE_00_TO_1,
    MERGE_11_TO_0,
    Codebook,
    DecodeOutcome,
    _c21_outcome,
    _check_params,
    _check_received,
    _check_syndromes,
    _expect_one,
    _family_rows,
    _in_bucket,
    _largest_bucket,
    _row_masks,
    _row_sums,
    _splice_solve,
    rll_max_run,
)
from .errors import DecodeFailure
from .words import _check_int

__all__ = [
    "CtsParams",
    "CtsTrace",
    "window_capacity",
    "column_window",
    "cts_member",
    "cts_decode",
    "cts_param_search",
]


def _shape(n: int, t: int, s: int) -> tuple[int, int]:
    """Row count k and row length m of the construction at (n, t, s)."""
    _check_sizes(t, s)
    if s < 1 or t < 2 * s:
        raise ValueError(f"construction needs t >= 2s >= 2, got t={t}, s={s}")
    k = t - s
    if _check_int(n, None, "length must be an int") % k != 0:
        raise ValueError(f"row count {k} must divide n={n}")
    return k, _check_int(n // k, 2, "rows must have length >= 2")


_INSERTS = "insertion count s must be an int >= 1, got {!r}"


def window_capacity(m: int, s: int) -> int:
    """Window capacity P for the row codes: f+1, or f+2 once s >= 2."""
    _check_int(s, 1, _INSERTS, s)
    return rll_max_run(m) + (1 if s == 1 else 2)


def _rows(n: int, t: int, s: int) -> tuple:
    """The row automata at (n, t, s), built once per shape: row 1's C21
    sums with the run cap, then k - 1 copies of the SVT21 sums;
    ValueError where no construction exists.  The cache keys on the
    checked shape, so no float n that equals an int reaches it."""
    return _shaped_rows(*_shape(n, t, s), s)


@cache
def _shaped_rows(k: int, m: int, s: int) -> tuple:
    first, _, _ = _family_rows("c21rll", m, None, None)
    rest, _, _ = _family_rows("svt21", m, window_capacity(m, s), None)
    return first + rest * (k - 1)


@dataclass(frozen=True)
class CtsParams:
    """Syndrome choices for one interleaved code.

    a, b are row 1's C21 values; row_params holds (c_i, d_i) for rows
    2..k in order.  The run cap f and the window capacity P follow
    from n, t, s.
    """

    n: int
    t: int
    s: int
    a: int
    b: int
    row_params: tuple[tuple[int, int], ...]

    def __post_init__(self):
        k, _ = _shape(self.n, self.t, self.s)
        rps = self.row_params
        if not isinstance(rps, tuple) or any(
            not isinstance(rp, tuple) or len(rp) != 2 for rp in rps
        ):
            raise ValueError(f"row_params must be a tuple of (c, d) pairs, got {rps!r}")
        _check_syndromes(self.a, self.b, *(v for rp in rps for v in rp))
        if len(rps) != k - 1:
            raise ValueError(
                f"expected {k - 1} row parameter pairs, got {len(rps)}"
            )

    @classmethod
    def derive(cls, n, t, s, a, b, row_params=()):
        # row_params that is not iterable, or an entry that is no
        # sequence, goes on as it is, for __post_init__ to refuse
        if isinstance(row_params, Iterable):
            row_params = tuple(tuple(rp) if isinstance(rp, Sequence) else rp for rp in row_params)
        return cls(n, t, s, a, b, row_params)

    @property
    def k(self) -> int:
        return self.t - self.s

    @property
    def m(self) -> int:
        return self.n // self.k

    @cached_property
    def f(self) -> int:
        return rll_max_run(self.m)

    @cached_property
    def P(self) -> int:
        return window_capacity(self.m, self.s)

    @cached_property
    def _decoding(self) -> tuple:
        """What cts_decode reads, once per params: k, m, s, f, the row
        moduli 2m - 1 and 2P - 1, and the row masks of a received word."""
        k, m = self.k, self.m
        return k, m, self.s, self.f, 2 * m - 1, 2 * self.P - 1, _row_masks(k, self.n - k)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "s": self.s,
            "a": self.a,
            "b": self.b,
            "rows": [list(rp) for rp in self.row_params],
            "f": self.f,
            "P": self.P,
        }


def cts_member(x: str, params: CtsParams) -> bool:
    _check_params(params, CtsParams)
    vals = (params.a, params.b) + sum(params.row_params, ())
    return _in_bucket(x, params.n, _rows(params.n, params.t, params.s), vals)


_MERGES = frozenset((MERGE_00_TO_1, MERGE_11_TO_0))


def column_window(outcome: DecodeOutcome, s: int, m: int) -> tuple[int, int]:
    """Column interval (1-based, clipped to [1, m]) holding every other
    row's error start, given row 1's decode outcome, s insertions and
    rows of length m."""
    if not isinstance(outcome, DecodeOutcome):
        raise ValueError(f"outcome must be a DecodeOutcome, got {outcome!r}")
    _check_int(s, 1, _INSERTS, s)
    _check_int(m, 2, "row length m must be an int >= 2, got {!r}", m)
    return _column_window(outcome.classification, outcome.window, s, m)


def _column_window(
    classification: str, window: tuple[int, int], s: int, m: int
) -> tuple[int, int]:
    """column_window() for checked arguments, from row 1's classification
    and window."""
    if classification in _MERGES:
        p = window[0]
        lo, hi = p - 1, p + 1
    else:
        c1, hi = window
        lo = c1 - (1 if s == 1 else 2)
    return lo if lo > 1 else 1, hi if hi < m else m


@dataclass(frozen=True)
class CtsTrace:
    """How a decode went: the row-1 outcome, the column window it
    implied (None for a single row), and every decoded row in order."""

    row1: DecodeOutcome
    column_window: tuple[int, int] | None
    rows: tuple[str, ...]


def _in_ball(x: str, y: str, t: int) -> bool:
    """Whether one burst of t deletions, followed by len(y) - len(x) + t
    insertions at the same spot, takes x to y, a nonempty word.

    It does exactly when the common prefix and the common suffix of x and
    y together cover len(x) - t symbols.  Read as ints, x shifted down to
    y's length and xored with y has its highest 1 at the first difference,
    and x xored with y has its lowest 1 at the last: O(n), all in C.
    """
    size = len(y)
    v, w = int(x, 2), int(y, 2)
    head = v >> (len(x) - size) ^ w
    tail = (v ^ w) & ((1 << size) - 1)
    suffix = (tail & -tail).bit_length() - 1 if tail else size
    return size - head.bit_length() + suffix >= len(x) - t


def cts_decode(y: str, params: CtsParams, *, trace: bool = False):
    """Recover the codeword one (t, s)-burst of which produced y.

    Returns the codeword, or (codeword, CtsTrace) when trace=True.  A
    returned word is a codeword that one (t, s)-burst takes to y; any
    other y of length n - t + s raises DecodingError.  The row decoders
    give at most one codeword, each row a preimage of its own, but the
    row errors need not form one burst; so the word is returned only
    when one (t, s)-burst of it gives y, that is when it and y share a
    prefix and a suffix of n - t symbols together, and DecodeFailure is
    raised otherwise.

    Every row's sums come from one int of y; each row then takes one
    splice solve, as c21rll_decode and svt21_decode would, and a row's
    refusal reads as theirs: row 1's names cts_decode, the others'
    svt21_decode.
    """
    _check_received(y, _check_params(params, CtsParams).n - params.k)
    k, m, s, f, mod1, mod, masks = params._decoding
    # params checked its syndromes and shape, and y its length, so each
    # row is a word of length m - 1 >= 1 and skips the public checks
    sums = _row_sums(int(y, 2), masks)
    row = y[::k]
    V, w = sums[0]
    word, classification, run = _c21_outcome(
        row, _splice_solve(row, V, w, mod1, params.a, 1, m - 1, params.b), f, "cts_decode"
    )
    rows_x = [word]
    window = None
    if k > 1:
        # row 1's runs are at most f long, so the window spans at most P
        # columns and keeps a start in 1..m-1, as the SVT21 rows need
        window = lo, hi = _column_window(classification, run, s, m)
        hi = min(hi, m - 1)
        for i, (c, d) in enumerate(params.row_params, 1):
            V, w = sums[i]
            seen = _splice_solve(y[i::k], V, w, mod, c, lo, hi, d)
            rows_x.append(_expect_one(seen, "svt21_decode")[0])
    spread = bytearray(params.n)
    for i, row in enumerate(rows_x):
        spread[i::k] = row.encode()
    word = spread.decode()
    if not _in_ball(word, y, params.t):
        raise DecodeFailure("cts_decode: no (t, s)-burst of the decoded word gives y")
    if trace:
        return word, CtsTrace(DecodeOutcome(rows_x[0], classification, run), window, tuple(rows_x))
    return word


def cts_param_search(n: int, t: int, s: int) -> tuple[CtsParams, Codebook]:
    """Largest syndrome bucket for the construction at (n, t, s).

    Buckets the words whose first row respects the run cap by the full
    tuple of row syndromes; ties go to the lexicographically smallest
    tuple.  Rows share no coordinate, so each row is counted on its own.
    """
    best, size, lister = _largest_bucket(n, _rows(n, t, s))
    params = CtsParams.derive(
        n, t, s, best[0], best[1],
        tuple(zip(best[2::2], best[3::2])),
    )
    return params, Codebook._listed_later("cts", n, params.to_dict(), size, lister)
