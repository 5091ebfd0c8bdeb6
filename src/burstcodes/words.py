"""Binary word primitives: runs, syndromes, and array interleaving.

Words are ASCII strings over {'0', '1'}.  All public coordinates are
1-based: coordinate i of x is x[i-1].  A run is a maximal block of equal
symbols; runs are indexed from 0 left to right, so the word 1101110000
has run sequence 0012223333, run count 4, and run syndrome 19 (the sum
of the sequence).

These whole-word forms are the independent reference the brute-force
search tests key on, which is why they are kept alongside the row automata
that restate the same syndromes for the searches.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "check_word",
    "run_profile",
    "run_count",
    "rsyn0",
    "vt_syndrome",
    "weights",
    "interleave",
    "deinterleave",
    "all_words",
    "RunProfile",
    "Weights",
]

_BITS = frozenset("01")


def check_word(x: str, *, what: str = "word") -> str:
    """Validate that x is a str over {'0','1'} and return it unchanged."""
    if not isinstance(x, str):
        raise ValueError(f"{what} must be a str of '0'/'1', got {type(x).__name__}")
    if not _BITS.issuperset(x):
        bad = next(ch for ch in x if ch not in _BITS)
        raise ValueError(f"{what} contains non-binary symbol {bad!r}")
    return x


def _check_int(x, least: int | None, message: str, *fields) -> int:
    """x if it is an int, not a bool, and least is None or x >= least;
    else ValueError(message.format(*fields)), formatted only then."""
    if type(x) is not int or least is not None and x < least:
        raise ValueError(message.format(*fields))
    return x


def _check_iter(x, message: str, *fields):
    """iter(x), or ValueError(message.format(*fields)) when x is not iterable."""
    try:
        return iter(x)
    except TypeError:
        raise ValueError(message.format(*fields)) from None


@dataclass(frozen=True)
class RunProfile:
    """Per-coordinate run indices plus the two derived run statistics."""

    runs: tuple[int, ...]
    count: int
    rsyn: int


@dataclass(frozen=True)
class Weights:
    total: int
    odd: int
    even: int


def run_profile(x: str) -> RunProfile:
    """Run sequence, run count, and run syndrome of a nonempty word."""
    check_word(x)
    if not x:
        raise ValueError("run_profile needs a nonempty word")
    return _run_profile(x)


def _run_profile(x: str) -> RunProfile:
    """run_profile() of a checked nonempty word."""
    seq = []
    idx = 0
    prev = x[0]
    for ch in x:
        if ch != prev:
            idx += 1
            prev = ch
        seq.append(idx)
    return RunProfile(tuple(seq), idx + 1, sum(seq))


def run_count(x: str) -> int:
    """Number of runs in x; 0 for the empty word."""
    check_word(x)
    if not x:
        return 0
    return run_profile(x).count


def rsyn0(x: str) -> int:
    """Run syndrome of x with a single 0 prepended.

    Prepending fixes the frame: two words that differ only in the leading
    symbol get different values.  rsyn0('') == 0.
    """
    return _run_profile("0" + check_word(x)).rsyn


def vt_syndrome(x: str) -> int:
    """Position-weighted sum sum(i * x_i), coordinates 1-based; 0 if empty."""
    check_word(x)
    return sum(i for i, ch in enumerate(x, 1) if ch == "1")


def weights(x: str) -> Weights:
    """Total weight plus the weights on odd and even coordinates."""
    check_word(x)
    odd = x[0::2].count("1")
    even = x[1::2].count("1")
    return Weights(odd + even, odd, even)


def interleave(x: str, k: int) -> tuple[str, ...]:
    """Split x column-major into k rows: row i holds x_i, x_{k+i}, x_{2k+i}, ...

    k must divide len(x) exactly; there is no padding.  interleave(x, 1)
    is the identity (one row).
    """
    check_word(x)
    _check_int(k, 1, "row count must be >= 1, got {}", k)
    if not x:
        raise ValueError("cannot interleave an empty word")
    if len(x) % k != 0:
        raise ValueError(f"row count {k} does not divide word length {len(x)}")
    return tuple(x[i::k] for i in range(k))


def deinterleave(rows) -> str:
    """Inverse of interleave: reassemble the word column by column.

    All rows must have equal length, so this also reassembles a received
    word whose every row lost the same number of symbols.
    """
    rows = _check_iter(rows, "rows must be an iterable of words, got {!r}", rows)
    rows = tuple(check_word(r, what="row") for r in rows)
    if not rows:
        raise ValueError("need at least one row")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows must have equal length")
    return "".join(r[j] for j in range(width) for r in rows)


def all_words(n: int):
    """Yield every word of length n in lexicographic (= numeric) order."""
    if _check_int(n, 0, "length must be >= 0") == 0:
        yield ""
        return
    for v in range(1 << n):
        yield format(v, f"0{n}b")
