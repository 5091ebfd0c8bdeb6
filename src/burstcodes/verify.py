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
from dataclasses import asdict, dataclass, field

from .channel import (
    _burst_mask,
    _burst_outputs,
    _check_burst,
    _check_room,
    _check_sizes,
    _members,
    _refined_size,
    ball_size_formula,
    sphere_packing_bound,
)
from .errors import DecodingError, GuardLimit
from .words import _check_int, all_words, check_word

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
    """members as a tuple of checked words, refused when empty."""
    members = tuple(map(check_word, members))
    if not members:
        raise ValueError("no codewords to check")
    return members


def verify_disjoint(members, t: int, s: int) -> VerificationReport:
    """Check that no channel output is reachable from two codewords.

    Outputs are ints, pooled per word length, since words of different
    lengths never meet.  A codeword whose ball misses its pool only adds
    to it.  On an overlap its outputs are replayed in sorted order and
    each shared one is traced to its first earlier owner; the first
    owner other than the codeword itself becomes the witness, and the
    count stops there.  A repeated codeword shares only with itself.
    """
    start = time.perf_counter()
    pools: dict[int, set[int]] = {}
    outputs = 0
    witness = None
    members = _codewords(members)
    for idx, x in enumerate(members):
        _check_burst(x, t, s)
        n = len(x)
        out = _burst_outputs(int(x or "0", 2), n, t, s)
        pool = pools.setdefault(n, set())
        if not pool.isdisjoint(out):
            witness, seen = _first_clash(members[:idx], x, out, pool, t, s)
            outputs += seen
            if witness:
                break
        else:
            outputs += len(out)
        pool |= out
    return VerificationReport(
        check="disjoint",
        params={"t": t, "s": s, "codewords": len(members)},
        verdict=witness is None,
        counts={"codewords": len(members), "outputs_checked": outputs},
        witness=witness,
        elapsed_s=time.perf_counter() - start,
    )


def _first_clash(earlier, x: str, out: set[int], pool: set[int], t: int, s: int):
    """(witness or None, outputs checked) for x's outputs, in sorted
    order, against the pool of the earlier codewords of its length."""
    n = len(x)
    shared = pool.intersection(out)
    owner: dict[int, str] = {}
    for w in earlier:
        if len(owner) == len(shared):
            break
        if len(w) == n:
            for y in shared.intersection(_burst_outputs(int(w or "0", 2), n, t, s)):
                owner.setdefault(y, w)
    for seen, y in enumerate(sorted(out), 1):
        if owner.get(y, x) != x:
            (word,) = _members({y}, n - t + s)
            return {"center_a": owner[y], "center_b": x, "shared": word}, seen
    return None, len(out)


def verify_roundtrip(members, t: int, s: int, decode) -> VerificationReport:
    """Apply every (t, s)-burst to every codeword and decode it back.

    decode is a callable from received word to codeword; raising a
    DecodingError counts as a failure with the exception recorded.  A
    codeword shorter than t takes no burst, so it is refused rather than
    passed over.
    """
    start = time.perf_counter()
    members = _codewords(members)
    _check_sizes(t, s)
    corruptions = failures = 0
    witness = None
    inserts = tuple(all_words(s))
    for x in members:
        n = len(x)
        _check_room(n, t, s)
        for pos in range(1, n - t + 2):
            for ins in inserts:
                corruptions += 1
                y = x[: pos - 1] + ins + x[pos - 1 + t :]
                try:
                    got = decode(y)
                except DecodingError as exc:
                    failures += 1
                    witness = witness or {
                        "codeword": x,
                        "start": pos,
                        "inserted": ins,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                    continue
                if got != x:
                    failures += 1
                    witness = witness or {
                        "codeword": x,
                        "start": pos,
                        "inserted": ins,
                        "decoded": got,
                    }
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
    the equivalence; the report carries both verdicts.
    """
    start = time.perf_counter()
    members = _codewords(members)
    fwd = verify_disjoint(members, t, s)
    rev = verify_disjoint(members, s, t)
    agree = fwd.verdict == rev.verdict
    witness = None
    if not agree:
        witness = {
            "forward": {"t": t, "s": s, "verdict": fwd.verdict, "witness": fwd.witness},
            "swapped": {"t": s, "s": t, "verdict": rev.verdict, "witness": rev.witness},
        }
    return VerificationReport(
        check="equivalence",
        params={"t": t, "s": s, "codewords": len(members)},
        verdict=agree,
        counts={
            "forward_pass": int(fwd.verdict),
            "swapped_pass": int(rev.verdict),
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


def verify_ball_laws(n_values, t_max: int = 4, s_max: int = 4) -> dict[str, VerificationReport]:
    """One sweep over all words and burst sizes, three laws checked.

    * size: |ball| equals the closed form for every center
    * partition: the refined balls tile the full ball without overlap
    * refined-size: each refined part's closed-form size matches
      enumeration; the closed forms hold at every length

    Words are ints and balls are bitmasks from channel._burst_mask(),
    bit u set for each output u: a size is a bit count, a union an OR,
    and a word is formatted only for a witness.  Per word, each distinct
    refined (k, l) part and its closed form are computed once and shared
    by every (t, s) that uses it; the full ball is enumerated on its own
    from all starts and inserts, never assembled from the parts.  Counts
    are per (t, s) and part.  Raises ValueError unless t_max and s_max
    are ints >= 1, which any combination needs, for a sweep with no
    length >= 1, and for a length that is not an int >= 0; GuardLimit
    for a length above BALL_LAW_GUARD.

    Returns reports keyed 'size', 'partition', 'refined-size'.
    """
    _check_int(min(t_max, s_max), 1, "ball-law sweep needs t_max, s_max >= 1, got {}, {}",
               t_max, s_max)
    _check_sizes(t_max, s_max)
    n_values = list(n_values)
    for n in n_values:
        _check_int(n, None, "ball-law sweep lengths must be ints, got {!r}", n)
    n_values = sorted(set(n_values))
    _check_int(max(n_values, default=0), 1, "ball-law sweep needs a length >= 1, got {}", n_values)
    _check_int(n_values[0], 0, "ball-law sweep lengths must be >= 0, got {}", n_values[0])
    if n_values[-1] > BALL_LAW_GUARD:
        raise GuardLimit(f"ball-law sweep at n={n_values[-1]} exceeds guard {BALL_LAW_GUARD}")
    start = time.perf_counter()
    fails = dict.fromkeys(_BALL_LAWS, 0)
    wit: dict[str, dict | None] = dict.fromkeys(_BALL_LAWS)

    def fail(law: str, v: int, n: int, **fields) -> None:
        fails[law] += 1
        if wit[law] is None:
            wit[law] = {"x": format(v, f"0{n}b"), **fields}

    words = 0
    combos = 0
    formula_checks = 0
    for n in n_values:
        pairs = [
            (t, s, ball_size_formula(n, t, s), _refined_parts(t, s))
            for t in range(1, min(t_max, n) + 1)
            for s in range(1, min(s_max, n) + 1)
        ]
        kls = sorted({kl for *_, parts in pairs for kl in parts})
        words += 1 << n
        for v in range(1 << n):
            known = {}
            for k, l in kls:
                part = _burst_mask(v, n, k, l, True)
                known[k, l] = part, part.bit_count(), _refined_size(v, n, k, l)
            for t, s, formula, parts in pairs:
                combos += 1
                full = _burst_mask(v, n, t, s)
                size = full.bit_count()
                if size != formula:
                    fail("size", v, n, t=t, s=s, enumerated=size, formula=formula)
                union = total = 0
                for k, l in parts:
                    part, got, predicted = known[k, l]
                    total += got
                    union |= part
                    formula_checks += 1
                    if predicted != got:
                        fail("refined-size", v, n, k=k, l=l, enumerated=got, formula=predicted)
                if not (union == full and total == union.bit_count()):
                    fail("partition", v, n, t=t, s=s, parts_total=total,
                         union=union.bit_count(), ball=size)
    elapsed = time.perf_counter() - start
    params = {"n_values": list(n_values), "t_max": t_max, "s_max": s_max}
    counts = {"words": words, "burst_combinations": combos}
    extra = {"refined-size": {"formula_checks": formula_checks}}
    return {
        law: VerificationReport(
            check, params, fails[law] == 0,
            counts | extra.get(law, {}) | {"failures": fails[law]}, wit[law], elapsed,
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
