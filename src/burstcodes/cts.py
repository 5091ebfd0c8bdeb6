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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

from .channel import _check_sizes
from .codes import (
    MERGE_00_TO_1,
    MERGE_11_TO_0,
    Codebook,
    DecodeOutcome,
    _check_received,
    _check_syndromes,
    _family_rows,
    _in_bucket,
    _largest_bucket,
    c21_decode,
    rll_max_run,
    rll_member,
    svt21_decode,
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


def window_capacity(m: int, s: int) -> int:
    """Window capacity P for the row codes: f+1, or f+2 once s >= 2."""
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
        # an entry that is no sequence goes on as it is, for __post_init__ to refuse
        rows = tuple(tuple(rp) if isinstance(rp, Sequence) else rp for rp in row_params)
        return cls(n, t, s, a, b, rows)

    @property
    def k(self) -> int:
        return self.t - self.s

    @property
    def m(self) -> int:
        return self.n // self.k

    @property
    def f(self) -> int:
        return rll_max_run(self.m)

    @property
    def P(self) -> int:
        return window_capacity(self.m, self.s)

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
    vals = (params.a, params.b) + sum(params.row_params, ())
    return _in_bucket(x, params.n, _rows(params.n, params.t, params.s), vals)


def column_window(outcome: DecodeOutcome, s: int, m: int) -> tuple[int, int]:
    """Column interval (1-based, clipped to [1, m]) holding every other
    row's error start, given row 1's decode outcome."""
    if outcome.classification in (MERGE_00_TO_1, MERGE_11_TO_0):
        p = outcome.window[0]
        lo, hi = p - 1, p + 1
    else:
        c1, c2 = outcome.window
        lo = c1 - 1 - (0 if s == 1 else 1)
        hi = c2
    return max(1, lo), min(m, hi)


@dataclass(frozen=True)
class CtsTrace:
    """How a decode went: the row-1 outcome, the column window it
    implied (None for a single row), and every decoded row in order."""

    row1: DecodeOutcome
    column_window: tuple[int, int] | None
    rows: tuple[str, ...]


def cts_decode(y: str, params: CtsParams, *, trace: bool = False):
    """Recover the codeword one (t, s)-burst of which produced y.

    Returns the codeword, or (codeword, CtsTrace) when trace=True.
    """
    k, m, P = params.k, params.m, params.P
    _check_received(y, params.n - k)
    rows_y = tuple(y[i::k] for i in range(k))
    out1 = c21_decode(rows_y[0], params.a, params.b, m)
    if not rll_member(out1.word, params.f):
        raise DecodeFailure("row 1 decoded outside the run cap")
    # a single row has no other row to place
    window = column_window(out1, params.s, m) if k > 1 else None
    rows_x = [out1.word]
    for row, (c, d) in zip(rows_y[1:], params.row_params):
        rows_x.append(svt21_decode(row, c, d, P, window, m))
    word = "".join(map("".join, zip(*rows_x)))
    if trace:
        return word, CtsTrace(out1, window, tuple(rows_x))
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
