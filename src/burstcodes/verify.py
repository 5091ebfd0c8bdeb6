"""Exhaustive verification with machine-readable reports.

Every check returns a VerificationReport: a verdict, the exact counts
behind it, and on failure a concrete witness that can be replayed by
hand.  Reports serialize to single JSON lines (schema_version 1) so
runs can be diffed and archived.  A check over a codebook refuses an
empty one with ValueError, since a pass over no codewords shows nothing.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import repeat
from operator import or_

from .channel import (
    _burst_outputs,
    _CENTER_ROOM,
    _check_outputs,
    _check_room,
    _check_sizes,
    _members,
    _refined_size,
    _sibling_step,
    _start_outputs,
    _step_plan,
    ball_size_formula,
    sphere_packing_bound,
)
from .errors import DecodingError, GuardLimit
from .words import _check_int, _check_iter, all_words, check_word

__all__ = [
    "VerificationReport",
    "verify_disjoint",
    "verify_roundtrip",
    "verify_equivalence",
    "verify_ball_laws",
    "bound_report",
    "BALL_LAW_GUARD",
]

SCHEMA_VERSION = 1
BALL_LAW_GUARD = 14


@dataclass
class VerificationReport:
    check: str
    params: dict
    verdict: bool
    counts: dict = field(default_factory=dict)
    witness: dict | None = None
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self) | {
            "schema_version": SCHEMA_VERSION,
            "verdict": "pass" if self.verdict else "fail",
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _codewords(members) -> tuple:
    """members as a tuple of checked words, refused when not iterable or empty."""
    members = _check_iter(members, "codewords must be an iterable of words, got {!r}", members)
    members = tuple(map(check_word, members))
    if not members:
        raise ValueError("no codewords to check")
    return members


def _check_lengths(members, t: int, s: int, *message) -> None:
    """Check the sizes once, then room and output guard per distinct length."""
    _check_sizes(t, s)
    for n in dict.fromkeys(map(len, members)):
        _check_room(n, t, s, *message)
        _check_outputs(n, t, s)


def verify_disjoint(members, t: int, s: int) -> VerificationReport:
    """Check that no channel output is reachable from two codewords.

    Outputs are ints, pooled per word length, since words of different
    lengths never meet.  Each pool is filled one start at a time over
    all codewords of its length, from channel._start_outputs(), which
    packs them into the fields of one int, builds a start's outputs for
    all of them with a few whole-int operations and one struct read, and
    gives every codeword's outputs once each.  The book passes when
    every pool holds as many ints as were made, and never builds an owner
    table.  When one holds fewer, one owner walk goes over the book
    codeword by codeword: each codeword's outputs are replayed in sorted
    order, and each is owned by the first codeword of its length that
    made it; the first output owned by another codeword becomes the
    witness, and the count, the earlier codewords' outputs plus that
    output's place, stops there.  A repeated codeword shares only with
    itself, so a book with one can still pass.
    """
    start = time.perf_counter()
    members = _codewords(members)
    witness, outputs = _disjoint(members, t, s)
    return VerificationReport(
        check="disjoint",
        params={"t": t, "s": s, "codewords": len(members)},
        verdict=witness is None,
        counts={"codewords": len(members), "outputs_checked": outputs},
        witness=witness,
        elapsed_s=time.perf_counter() - start,
    )


def _disjoint(members: tuple, t: int, s: int):
    """(witness or None, outputs checked) of verify_disjoint() on checked words."""
    _check_lengths(members, t, s, _CENTER_ROOM)
    by_length: dict[int, list[int]] = {}
    for x in members:
        by_length.setdefault(len(x), []).append(int(x or "0", 2))
    outputs = 0
    for n, vs in by_length.items():
        pool: set[int] = set()
        made = 0
        for out in _start_outputs(vs, n, t, s):
            pool.update(out)
            made += len(out)
            if len(pool) < made:
                return _clash_walk(members, t, s)
        outputs += made
    return None, outputs


def _clash_walk(members: tuple, t: int, s: int):
    """_disjoint() as one owner walk, for a book whose pools came up short."""
    owners: dict[int, dict[int, str]] = {}
    outputs = 0
    for x in members:
        n = len(x)
        owner = owners.setdefault(n, {})
        for u in sorted(_burst_outputs(int(x or "0", 2), n, t, s)):
            outputs += 1
            w = owner.setdefault(u, x)
            if w != x:
                (word,) = _members([u], n - t + s)
                return {"center_a": w, "center_b": x, "shared": word}, outputs
    return None, outputs


def verify_roundtrip(members, t: int, s: int, decode) -> VerificationReport:
    """Apply every (t, s)-burst to every codeword and decode it back.

    decode is a function of the received word y alone; raising a
    DecodingError counts as a failure with the exception recorded.  It
    is called once per distinct y per codeword, and its outcome counts
    for every burst that gives y; the witness is the first failing
    (codeword, start, insert).  A codeword shorter than t takes no
    burst, so it is refused; GuardLimit past channel.OUTPUT_GUARD.
    """
    start = time.perf_counter()
    members = _codewords(members)
    _check_lengths(members, t, s)
    if not callable(decode):
        raise ValueError(f"decode must be callable, got {decode!r}")
    corruptions = failures = 0
    witness = None
    inserts = tuple(all_words(s))
    for x in members:
        outcomes: dict[str, dict] = {}
        starts = len(x) - t + 1
        corruptions += starts * len(inserts)
        for i in range(starts):
            head, tail = x[:i], x[i + t :]
            for ins in inserts:
                y = head + ins + tail
                bad = outcomes.get(y)
                if bad is None:
                    try:
                        got = decode(y)
                        bad = {} if got == x else {"decoded": got}
                    except DecodingError as exc:
                        bad = {"error": f"{type(exc).__name__}: {exc}"}
                    outcomes[y] = bad
                if bad:
                    failures += 1
                    witness = witness or {"codeword": x, "start": i + 1, "inserted": ins, **bad}
    return VerificationReport(
        check="roundtrip",
        params={"t": t, "s": s, "codewords": len(members)},
        verdict=failures == 0,
        counts={
            "codewords": len(members),
            "corruptions": corruptions,
            "failures": failures,
        },
        witness=witness,
        elapsed_s=time.perf_counter() - start,
    )


def verify_equivalence(members, t: int, s: int) -> VerificationReport:
    """Disjointness under (t, s) and under (s, t) must agree.

    Correcting one channel is the same property as correcting the
    other, so a codebook passing one and failing the other would break
    the equivalence; the report carries both verdicts.  Each member is
    checked once, for both directions.
    """
    start = time.perf_counter()
    members = _codewords(members)
    fwd, _ = _disjoint(members, t, s)
    rev, _ = _disjoint(members, s, t)
    agree = (fwd is None) == (rev is None)
    witness = None
    if not agree:
        witness = {
            "forward": {"t": t, "s": s, "verdict": fwd is None, "witness": fwd},
            "swapped": {"t": s, "s": t, "verdict": rev is None, "witness": rev},
        }
    return VerificationReport(
        check="equivalence",
        params={"t": t, "s": s, "codewords": len(members)},
        verdict=agree,
        counts={
            "forward_pass": int(fwd is None),
            "swapped_pass": int(rev is None),
        },
        witness=witness,
        elapsed_s=time.perf_counter() - start,
    )


def _refined_parts(t: int, s: int):
    """The (k, l) pairs whose refined balls partition the (t, s)-ball."""
    if t >= s:
        return [(t - s + l, l) for l in range(s + 1)]
    return [(k, s - t + k) for k in range(t + 1)]


# each law of the ball-law sweep, with the check name its report carries
_BALL_LAWS = {
    "size": "ball-size-law",
    "partition": "refined-partition",
    "refined-size": "refined-size-formulas",
}


def _ball_law_kinds(t_max: int, s_max: int, top: int) -> tuple[list, list]:
    """The sweep's (t, s) sizes, capped at the top length, and the kinds
    it builds a mask for: each full (t, s)-ball and each refined
    (k, l)-part of one, as (t, s, refined) or (k, l, refined), sorted, so
    the kinds that fit in a length come first."""
    sizes = [(t, s) for t in range(1, min(t_max, top) + 1) for s in range(1, min(s_max, top) + 1)]
    kinds = {(t, s, False) for t, s in sizes}
    kinds |= {(k, l, True) for t, s in sizes for k, l in _refined_parts(t, s)}
    return sizes, sorted(kinds)


def _mask_words(n: int, kinds: list) -> int:
    """64-bit words in the masks of one length-n word: 2^(n - t + s) bits
    for each kind with t <= n."""
    return sum(-(-(1 << (n - t + s)) // 64) for t, s, _ in kinds if t <= n)


def _ball_law_work(top: int, kinds: list) -> int:
    """Estimated 64-bit mask words the sweep up to length top touches:
    the masks of each of the 2^n words of each length n."""
    return sum(_mask_words(n, kinds) << n for n in range(top + 1))


# the work of the default sweep at the length guard
_BALL_LAW_WORK = _ball_law_work(BALL_LAW_GUARD, _ball_law_kinds(4, 4, BALL_LAW_GUARD)[1])

# the most bytes of estimated mask words (_mask_words) in the deepest
# level of one block of the ball-law sweep: 2^8 words at top length 10
# with the default sizes, 2^6 at 12 and 2^4 at 14, each about 2.4 MB
# (2.5-2.9 MB as ints)
_BLOCK_BYTES = 3 << 20


def verify_ball_laws(n_values, t_max: int = 4, s_max: int = 4) -> dict[str, VerificationReport]:
    """One sweep over all words and burst sizes, three laws checked.

    * size: |ball| equals the closed form for every center
    * partition: the refined balls tile the full ball without overlap
    * refined-size: each refined part's closed-form size matches
      enumeration; the closed forms hold at every length

    Words are ints and balls are bitmasks, bit u set for each output u:
    a size is a bit count, a union an OR.  Each ball is built from its
    suffix's ball, prepending a bit per level, with one start term and
    one shift per kind and child (each full (t, s)-ball and refined
    (k, l)-part, t and s capped at the largest length), from a plan of
    constants per length built once per sweep.  The sweep steps and
    checks blocks of words, each kind's masks one list: one
    channel._sibling_step() call turns a block of length-(n - 1) words
    into the block of their 0- and 1-children.  From the empty word,
    whose masks are its plan's combs, it walks one-word blocks
    depth-first down to the length where the block below one word would
    hold, at the largest length, more than _BLOCK_BYTES of estimated
    mask words (_mask_words), and from each word there steps the block
    level by level, keeping only the level it steps from and the one it
    makes.  So memory is O(depth x kinds) above that length and, below
    it, one deepest level of at most _BLOCK_BYTES and its parent, about
    a quarter of that; the blocks hold 2^8 words at the largest length
    10 with the default sizes, 2^6 at 12 and 2^4 at 14.  The full ball
    is built on its own, never from the parts.

    Each length has its constants built once, and each law is one check
    over the block's lists, after one bit count per mask: the full sizes
    against their closed form; each refined part once, in the order the
    (t, s) pairs first use it, against its closed form, one value per
    length where k = 0 or l >= 2; and per (t, s) the union of its parts'
    masks and the block's total of their sizes, carried on from the
    (t - 1, s - 1) pair, since parts(t, s) = parts(t - 1, s - 1) + [(t, s)].
    A union never holds more than its parts' total, so when every union
    is its ball and the block's totals agree, so does each word's.  Only
    a failing check walks the block's words, recording each failure as
    the plain loop over each (t, s) and its parts would, a part's once
    per (t, s) it tiles.  The walk meets words out of numeric order, so
    each witness is its law's failure with the smallest (n, x), the one
    an ascending sweep meets first.
    Raises ValueError unless t_max and s_max are ints >= 1, which any
    combination needs, for a sweep with no length >= 1, and for a
    length that is not an int >= 0; GuardLimit for the first length read
    above BALL_LAW_GUARD, before any later one is read, and, before any
    mask is built, for a sweep whose estimated mask work (_ball_law_work)
    exceeds that of the default sizes t_max = s_max = 4 up to
    BALL_LAW_GUARD.

    Returns reports keyed 'size', 'partition', 'refined-size'.
    """
    for size in (t_max, s_max):
        _check_int(size, None, "burst sizes must be ints, got {!r}", size)
    _check_int(min(t_max, s_max), 1, "ball-law sweep needs t_max, s_max >= 1, got {}, {}",
               t_max, s_max)
    lengths = set()
    for n in _check_iter(n_values, "ball-law sweep lengths must be an iterable of ints, "
                         "got {!r}", n_values):
        _check_int(n, None, "ball-law sweep lengths must be ints, got {!r}", n)
        if n > BALL_LAW_GUARD:
            raise GuardLimit(f"ball-law sweep at n={n} exceeds guard {BALL_LAW_GUARD}")
        lengths.add(n)
    n_values = sorted(lengths)
    _check_int(max(n_values, default=0), 1, "ball-law sweep needs a length >= 1, got {}", n_values)
    _check_int(n_values[0], 0, "ball-law sweep lengths must be >= 0, got {}", n_values[0])
    top = n_values[-1]
    sizes, kinds = _ball_law_kinds(t_max, s_max, top)
    work = _ball_law_work(top, kinds)
    if work > _BALL_LAW_WORK:
        raise GuardLimit(
            f"ball-law sweep up to n={top} with t_max={t_max}, s_max={s_max} would touch "
            f"{work} mask words, over the work guard {_BALL_LAW_WORK}"
        )
    start = time.perf_counter()
    fails = dict.fromkeys(_BALL_LAWS, 0)
    wit: dict[str, tuple | None] = dict.fromkeys(_BALL_LAWS)

    def fail(law: str, v: int, n: int, **fields) -> None:
        fails[law] += 1
        if wit[law] is None or (n, v) < wit[law][:2]:
            wit[law] = n, v, fields

    steps = [[_step_plan(n, *kind) for kind in kinds if kind[0] <= n] for n in range(top + 1)]
    plans = {}
    words = combos = formula_checks = 0
    for n in n_values:
        pairs = [
            (t, s, ball_size_formula(n, t, s), kinds.index((t, s, False)),
             [(k, l, kinds.index((k, l, True))) for k, l in _refined_parts(t, s)])
            for t, s in sizes if max(t, s) <= n
        ]
        uses = Counter(kl for *_, used in pairs for kl in used)
        words += 1 << n
        combos += len(pairs) << n
        formula_checks += uses.total() << n
        if pairs:
            # each (t, s) carries on from the (t - 1, s - 1) pair, or from
            # its first part where t or s is 1 and there is no such pair
            at = {(t, s): p for p, (t, s, *_) in enumerate(pairs)}
            plans[n] = (
                [(*pair, at.get((pair[0] - 1, pair[1] - 1))) for pair in pairs],
                [(k, l, j, count, _refined_size(0, n, k, l) if k == 0 or l >= 2 else None)
                 for (k, l, j), count in uses.items()],
            )

    def check(vs: list, n: int, masks: list) -> None:
        if n not in plans:
            return
        pairs, parts = plans[n]
        got = [[*map(int.bit_count, kind)] for kind in masks]
        for t, s, formula, i, _, _ in pairs:
            if got[i].count(formula) != len(vs):
                for v, size in zip(vs, got[i]):
                    if size != formula:
                        fail("size", v, n, t=t, s=s, enumerated=size, formula=formula)
        for k, l, j, count, fixed in parts:
            want = ([fixed] * len(vs) if fixed is not None
                    else [*map(_refined_size, vs, repeat(n), repeat(k), repeat(l))])
            if got[j] != want:
                for v, size, predicted in zip(vs, got[j], want):
                    if size != predicted:
                        for _ in range(count):
                            fail("refined-size", v, n, k=k, l=l, enumerated=size,
                                 formula=predicted)
        carried = []
        for t, s, _, i, used, carry in pairs:
            first, j = used[0][2], used[-1][2]
            union, total = carried[carry] if carry is not None else (masks[first], sum(got[first]))
            union = [*map(or_, union, masks[j])]
            total += sum(got[j])
            # a union that is its ball is carried as the ball, so a block
            # that passes holds no union of its own
            whole = union == masks[i]
            carried.append((masks[i] if whole else union, total))
            if not whole or total != sum(got[i]):
                for w, v in enumerate(vs):
                    parts_total = sum(got[m][w] for _, _, m in used)
                    if union[w] != masks[i][w] or parts_total != union[w].bit_count():
                        fail("partition", v, n, t=t, s=s, parts_total=parts_total,
                             union=union[w].bit_count(), ball=got[i][w])

    # one-word blocks down to length split, so that a block holds at
    # most 2^(top - split) words at the top length, within _BLOCK_BYTES
    most = (_BLOCK_BYTES // (8 * _mask_words(top, kinds))).bit_length() - 1
    split = top - min(max(most, 0), top)

    def walk(vs: list, n: int, masks: list) -> None:
        """Check the block vs of length n and every block below it."""
        while True:
            check(vs, n, masks)
            if n == top:
                return
            masks = _sibling_step(vs, n + 1, steps[n + 1], masks)
            vs = vs + [v | 1 << n for v in vs]
            n += 1
            if n <= split:  # one-word blocks, depth-first
                walk(vs[:1], n, [kind[:1] for kind in masks])
                vs, masks = vs[1:], [kind[1:] for kind in masks]

    walk([0], 0, [[comb] for _, comb, _, _ in steps[0]])
    elapsed = time.perf_counter() - start
    params = {"n_values": list(n_values), "t_max": t_max, "s_max": s_max}
    counts = {"words": words, "burst_combinations": combos}
    extra = {"refined-size": {"formula_checks": formula_checks}}
    return {
        law: VerificationReport(
            check, params, fails[law] == 0,
            counts | extra.get(law, {}) | {"failures": fails[law]},
            wit[law] and {"x": format(wit[law][1], f"0{wit[law][0]}b"), **wit[law][2]},
            elapsed,
        )
        for law, check in _BALL_LAWS.items()
    }


def bound_report(members, n: int, t: int, s: int) -> VerificationReport:
    """Compare a codebook's size against the packing ceiling at length n.

    Every codeword must have length n, since the ceiling is for that
    length only; the first one that does not is refused.
    """
    start = time.perf_counter()
    members = _codewords(members)
    for x in members:
        if len(x) != n:
            raise ValueError(f"codeword {x!r} has length {len(x)}, not n={n}")
    size = len(members)
    cap = sphere_packing_bound(n, t, s)
    raw = sphere_packing_bound(n, t, s, raw=True)
    counts = {
        "size": size,
        "bound": cap,
        "bound_raw_t": raw,
        "redundancy": round(n - math.log2(size), 4),
    }
    return VerificationReport(
        check="bound",
        params={"n": n, "t": t, "s": s},
        verdict=size <= cap,
        counts=counts,
        witness=None if size <= cap else {"size": size, "bound": cap},
        elapsed_s=time.perf_counter() - start,
    )
