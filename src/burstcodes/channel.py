"""The (t, s)-burst channel and its combinatorial geometry.

A (t, s)-burst at coordinate i deletes the t consecutive symbols
x_i ... x_{i+t-1} and inserts an arbitrary word of length s in their
place.  ball() enumerates everything such a burst can produce from a
center word; refined_ball() restricts to outputs whose inserted block
disagrees with the deleted block at both boundary symbols, which is the
partition device behind the closed-form ball size.

Both run on one integer kernel, _start_outputs(), with one mode: a
refined ball keeps the kernel's outputs whose insert differs from the
deleted block at both ends (_burst_outputs()).  A word of length n is
the int whose binary digits it spells (x_1 most significant), and each
output is spliced together with shifts and masks, so no string is built
until the members are listed.  The kernel runs one start at a time over
a block of centers packed into one int of fixed-width fields, one field
per center (SIMD within a register), so a start's outputs for the whole
block take a few whole-int shifts, ANDs and XORs and one struct call to
read back (_fields()).  It makes each output of a center once: a burst
at start i whose insert begins with x_i, the symbol at the start (for
t = 0, the one after the insertion point), gives an output of start
i + 1, so every start but the last takes only the inserts whose first
bit differs from x_i, and no later start can give such an output, since
it keeps x_i.  With s = 0, every start but the last is kept only where
x_i != x_{i+t}.  That makes (n - t) * 2^(s-1) + 2^s outputs, the ball
size below, while ball() and refined_ball() still refuse with GuardLimit
a center whose n - t + 1 starts times 2^s inserts exceed OUTPUT_GUARD.
_burst_outputs() is the kernel on one center.  The ball-law sweep sets
bit u of a mask for each output u, so a size is a bit count and a union
one OR.  Its step, _sibling_step(), uses that the bursts at starts
>= 1 on b.v' are b followed by those on v': a word's mask is its
suffix's shifted up by b << (m - 1), m = n - t + s, ORed with the first
start's outputs.  One call steps every kind of a block of suffixes v'
to the block of their children, each 0.v' then each 1.v', from a
per-length plan of constants, _step_plan(), with one list comprehension
per kind and child over the block, and shares a kind's start terms
between the two children wherever a term does not read b.

Ball size and the resulting sphere-packing ceiling are exact:

    |B_{t,s}(x)| = (n - t + 2) * 2^(s-1)        for any center x,
    |C|         <= 2^(n-m+1) / (n - m + 2)       with m = max(t, s),

the max coming from the fact that a code corrects (t, s)-bursts exactly
when it corrects (s, t)-bursts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat, zip_longest
from operator import or_

from .errors import GuardLimit
from .words import _check_int, check_word

__all__ = [
    "BurstSpec",
    "Ball",
    "apply_burst",
    "ball",
    "ball_size_formula",
    "refined_ball",
    "refined_ball_size",
    "sphere_packing_bound",
    "OUTPUT_GUARD",
]

OUTPUT_GUARD = 1 << 20  # n - t + 1 starts times 2^s inserts, per center


@dataclass(frozen=True)
class BurstSpec:
    """One concrete burst: sizes (t, s), 1-based start, and inserted word."""

    t: int
    s: int
    start: int
    inserted: str

    def __post_init__(self):
        _check_sizes(self.t, self.s)
        check_word(self.inserted, what="inserted word")
        if len(self.inserted) != self.s:
            raise ValueError(
                f"inserted word has length {len(self.inserted)}, expected s={self.s}"
            )


_START = "burst start {} out of range 1..{} for n={}, t={}"


def apply_burst(x: str, spec: BurstSpec) -> str:
    """Delete t symbols of x starting at spec.start, splice in spec.inserted."""
    check_word(x)
    if not isinstance(spec, BurstSpec):
        raise ValueError(f"spec must be a BurstSpec, got {spec!r}")
    n = len(x)
    last = n - spec.t + 1
    fields = (spec.start, last, n, spec.t)
    _check_int(spec.start, 1, _START, *fields)
    _check_int(last, spec.start, _START, *fields)
    i = spec.start - 1
    return x[:i] + spec.inserted + x[i + spec.t :]


@dataclass(frozen=True)
class Ball:
    """A sorted, deduplicated set of channel outputs around one center."""

    center: str
    t: int
    s: int
    members: tuple[str, ...]
    refined: bool = field(default=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)

    def to_dict(self, include_members: bool = True) -> dict:
        d = {"center": self.center, "t": self.t, "s": self.s, "size": self.size}
        if self.refined:
            d["refined"] = True
        if include_members:
            d["members"] = list(self.members)
        return d


# the struct code of the unsigned field of each width in bits
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
_LITTLE = repeat("little")  # the byte order of every field, for map()


@lru_cache(maxsize=256)
def _fields(width: int, count: int) -> tuple:
    """(join, split) for count unsigned fields of width bits in one int,
    width a power of two >= 8: join packs a sequence of count ints, item
    j in bits j * width .. (j + 1) * width - 1, and split(packed) reads an
    int's fields back as a tuple; split(packed, keep), where keep holds 0
    or 1 per field, lists only the fields whose keep is 1.  One struct
    call reads fields of 8-64 bits; wider fields are cut from the int's
    little-endian bytes, and the keep flags are every width / 8-th byte of
    keep's."""
    size = width // 8
    total = size * count
    if width in _FIELD_CODES:
        packer = struct.Struct(f"<{count}{_FIELD_CODES[width]}")
        pack, read = packer.pack, packer.unpack

        def join(values) -> int:
            return int.from_bytes(pack(*values), "little")
    else:
        cuts = [slice(i, i + size) for i in range(0, total, size)]

        def join(values) -> int:
            return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")

        def read(data: bytes) -> tuple:
            return tuple(map(int.from_bytes, map(data.__getitem__, cuts), _LITTLE))

    def split(packed: int, keep: int | None = None):
        fields = read(packed.to_bytes(total, "little"))
        if keep is None:
            return fields
        return list(compress(fields, keep.to_bytes(total, "little")[::size]))

    return join, split


@lru_cache(maxsize=16)
def _copy_constants(width: int, k: int, copies: int) -> tuple[int, int]:
    """For copies copies of a block of k fields of width bits: the int
    with 1 in every field, and the int whose copy j holds j in each of
    its k fields."""
    join = _fields(width, k * copies)[0]
    return join([1] * (k * copies)), join([j for j in range(copies) for _ in range(k)])


def _start_outputs(vs: list[int], n: int, t: int, s: int):
    """Yield, for each 0-based start i = 0 .. n - t, one sequence of the
    outputs a (t, s)-burst at i gives on every length-n center in vs.

    The burst at i keeps the i leading and r = n - i - t trailing bits of
    a center v and puts an s-bit insert between them.  An insert whose
    first bit equals x_{i+1}, the symbol at the start (for t = 0, the one
    after the insertion point), gives the same output as the burst at
    i + 1 whose insert is the rest of it followed by x_{i+t+1}.  So each
    start but the last takes only the 2^(s-1) inserts whose first bit
    differs from x_{i+1}; such an output has y_{i+1} != x_{i+1}, which no
    later start can give, while the outputs of a start all differ in the
    insert.  With s = 0 there is no insert: start i gives the output of
    i + 1 exactly when x_{i+1} = x_{i+t+1}, so only starts where they
    differ are kept.  The last start keeps everything, and each center's
    outputs appear once each: (n - t) * 2^(s-1) + 2^s of them, |B|.
    Callers check that 0 <= t <= n and s >= 0.

    The block is packed (_fields()) into fields of F bits, F the least
    power of two >= max(8, n, n - t + s), so no output spills into the
    next field, once per value of the s - 1 insert bits after its first:
    copy j takes the value j in those bits by one OR of a cached int, so
    one split lists a start's outputs value by value, each value over the
    centers in vs order.  The last start takes all 2^s inserts, for
    s >= 1 as two such splits, the second with 2^(s-1) added to every
    field.  With s = 0 the kept outputs depend on the center, so one more
    int holds a keep flag per field, and split drops the rest.
    """
    width = max(8, 1 << (n + max(s - t, 0) - 1).bit_length())
    copies = 1 << max(s - 1, 0)
    join, split = _fields(width, len(vs) * copies)
    whole = join(vs * copies)
    one, offsets = _copy_constants(width, len(vs), copies)
    for i in range(n - t + 1):
        r = n - i - t
        if not r:
            base = (whole >> t & one * ((1 << n - t) - 1)) << s | offsets
            out = split(base)
            yield out + split(base + copies * one) if s else out
            continue
        low = whole & one * ((1 << r) - 1)
        top = whole >> r + t - 1  # x_{i+1} is bit 0 of each field
        if s == 0:
            kept = (top >> 1 & one * ((1 << i) - 1)) << r | low
            yield split(kept, (top ^ whole >> r - 1) & one)
        else:
            yield split((top & one * ((2 << i) - 1) ^ one) << s - 1 + r | low | offsets << r)


def _burst_outputs(v: int, n: int, t: int, s: int, refined: bool = False) -> list[int]:
    """Every output of a (t, s)-burst on the length-n word whose bits are
    v, each once: _start_outputs() on the one center v.  Refined, with
    t, s >= 1, it keeps those whose insert differs from the deleted block
    at both ends: at start i, bits r and r + s - 1 of u against bits r and
    r + t - 1 of v, r = n - i - t.  That is exact, since the kernel lists
    each output once, at the start i where it first differs from v, at
    x_{i+1}, or at the last start, and a refined output of start i differs
    there first."""
    starts = _start_outputs([v], n, t, s)
    if not (refined and t and s):
        return [u for out in starts for u in out]
    return [u for r, out in zip(range(n - t, -1, -1), starts) for u in out
            if (u ^ v) >> r & (u >> r + s - 1 ^ v >> r + t - 1) & 1]


@lru_cache(maxsize=None)
def _step_plan(n: int, t: int, s: int, refined: bool) -> tuple:
    """The constants of _sibling_step() for one kind at length n, r = n - t:
    the shift 2^(r+s-1) that a leading 1 adds to every later start's
    output, the comb (a bit at each offset a start's inserts reach above
    its lowest output: 2^s bits 2^r apart, or refined 2^(s-2) bits
    2^(r+1) apart, one for s = 1; 2^(s+r) bits wide, so for sweep lengths
    only), the low mask 2^r - 1, and the refined split: for a refined
    kind with t, s >= 1, whether s = 1 and the offsets 2^(s-1+r) and 2^r
    of the insert's first and last bit, else None."""
    r = n - t
    split = refined and t > 0 and s > 0
    comb = sum(1 << (j << (r + split)) for j in range(1 << max(s - 2 * split, 0)))
    shift = 1 << (r + s - 1) if r else 0
    return shift, comb, (1 << r) - 1, (s == 1, 1 << (s - 1 + r), 1 << r) if split else None


def _sibling_step(vs: list, n: int, plan: list, suffix_masks: list) -> list[list]:
    """The mask of each kind in plan for the 2 |vs| length-n words whose
    length-(n - 1) suffixes are the words vs, n >= 1: per kind, the masks
    of each v in vs (top bit 0), then those of each v | 2^(n-1) (top bit
    1), so on a full level a child's index is its value.  plan holds
    _step_plan(n, t, s, refined) for kinds with t <= n, and suffix_masks,
    per kind in plan order, the list of the masks of vs (kinds that do
    not fit in length n - 1, past the list's end, have zero masks).  A
    child's mask is its suffix's, shifted for the top-1 child as the
    module says, ORed with its first start's term: the comb shifted to
    the child's lowest output, e, past the end bits a refined insert
    must take.  e keeps the child's bits below r, v & low; for t = 0 the
    top bit is among them.  A refined split kind also sets the insert's
    first bit where the top bit is 0, and its last bit where the deleted
    block's last bit, bit r, is 0 (for t = 1 that is the top bit); with
    s = 1 the one insert bit must do both, so a child whose top bit and
    bit r differ takes no term.  Each kind is one list comprehension per
    child over the block."""
    high = 1 << (n - 1)
    children = []
    for (shift, comb, low, split), masks in zip_longest(plan, suffix_masks, fillvalue=repeat(0)):
        if split:
            single, first, last = split
            ends = (last << 1) - 1  # the bits below r, and bit r flipped
            gate = last if single else 0
            zero_terms = [0 if v & gate else comb << ((v ^ last) & ends | first) for v in vs]
            one_terms = [0 if ~(v | high) & gate else comb << (((v | high) ^ last) & ends)
                         for v in vs]
        else:
            zero_terms = [comb << (v & low) for v in vs]
            one_terms = zero_terms if low < high else [comb << (v | high) for v in vs]
        children.append([*map(or_, masks, zero_terms),
                         *[m << shift | term for m, term in zip(masks, one_terms)]])
    return children


def _members(out: list[int], m: int) -> tuple[str, ...]:
    """The length-m words of out, sorted.

    Words of one length sort the same as strings and as ints.
    """
    if m == 0:
        return ("",) * len(out)
    fmt = f"0{m}b"
    return tuple([format(u, fmt) for u in sorted(out)])


_CENTER_ROOM = "word of length {2} cannot lose a burst of {0}"


def _check_room(n: int, t: int, s: int,
                message: str = "no ({}, {})-burst fits in length n={}") -> None:
    """Refuse a length that is not an int or that no (t, s)-burst fits in."""
    _check_int(n, t, message, t, s, n)


def _check_outputs(n: int, t: int, s: int) -> None:
    """Refuse (n - t + 1) * 2^s outputs over OUTPUT_GUARD, before any is built."""
    if s >= OUTPUT_GUARD.bit_length() or (n - t + 1) << s > OUTPUT_GUARD:
        raise GuardLimit(f"({t}, {s})-bursts at n={n} exceed the output guard {OUTPUT_GUARD}")


def _check_sizes(*sizes) -> None:
    """Refuse burst sizes unless each is an int >= 0; a bool is not a size.

    Every type is checked before any sign."""
    for size in sizes:
        if type(size) is not int:
            raise ValueError(f"burst sizes must be ints, got {size!r}")
    if min(sizes) < 0:
        raise ValueError("burst sizes must be >= 0")


def _check_burst(x: str, t: int, s: int) -> None:
    check_word(x)
    _check_sizes(t, s)
    _check_room(len(x), t, s, _CENTER_ROOM)


def _ball(x: str, t: int, s: int, refined: bool) -> Ball:
    """ball() or refined_ball(), checked and guarded first."""
    _check_burst(x, t, s)
    n = len(x)
    _check_outputs(n, t, s)
    out = _burst_outputs(int(x or "0", 2), n, t, s, refined)
    return Ball(x, t, s, _members(out, n - t + s), refined=refined)


def ball(x: str, t: int, s: int) -> Ball:
    """Every word reachable from x by one (t, s)-burst.

    Covers all n - t + 1 starts and all 2^s inserted words but makes
    each distinct output once: at every start but the last, only the
    inserts whose first bit differs from x_i, since the others give an
    output of the next start (for s = 0, only the starts where
    x_i != x_{i+t}).  Members are sorted, which for words of one length
    is numeric order.  Requires n >= t so at least one start exists,
    and raises GuardLimit when (n - t + 1) * 2^s exceeds OUTPUT_GUARD.
    """
    return _ball(x, t, s, False)


def ball_size_formula(n: int, t: int, s: int) -> int:
    """Closed-form |B_{t,s}| = (n - t + 2) * 2^(s-1); center-independent.

    Holds at every n >= t, where ball() has a start, s > n included."""
    _check_sizes(t, s)
    _check_int(s, 1, "closed form needs s >= 1")
    _check_room(n, t, s)
    return (n - t + 2) * 2 ** (s - 1)


def refined_ball(x: str, k: int, l: int) -> Ball:
    """Outputs of a (k, l)-burst whose inserted block disagrees with the
    deleted block at both ends: y_1 != x_i and y_l != x_{i+k-1}.

    For k = 0 or l = 0 there is no boundary to disagree with and this is
    the plain burst-insertion or burst-deletion ball.  Over all l (or all
    k) these refined balls partition the full ball.  Members are sorted,
    and guarded, as in ball(); the tuple is empty when no insert meets
    the condition.
    """
    return _ball(x, k, l, True)


def _shift_changes(v: int, n: int, d: int) -> int:
    """#{i <= n - d : x_i != x_{i+d}} for the length-n word whose bits are v."""
    return ((v ^ (v >> d)) & ((1 << (n - d)) - 1)).bit_count()


def refined_ball_size(x: str, k: int, l: int) -> int:
    """Closed-form size of refined_ball(x, k, l), at every length n.

    A (k, 0)-burst at start i gives the output of start i + 1 exactly
    when x_i = x_{i+k}; a (k, 1)-burst has one refined insert, a distinct
    output, exactly when x_i = x_{i+k-1}.
    """
    _check_burst(x, k, l)
    return _refined_size(int(x or "0", 2), len(x), k, l)


def _refined_size(v: int, n: int, k: int, l: int) -> int:
    """refined_ball_size() for the length-n word whose bits are v."""
    if k == 0:
        if l == 0:
            return 1
        return n * 2 ** (l - 1) + 2**l
    if l == 0:
        return 1 + _shift_changes(v, n, k)
    if l == 1:
        return n - (k - 1) - _shift_changes(v, n, k - 1)
    return (n - k + 1) * 2 ** (l - 2)


def sphere_packing_bound(n: int, t: int, s: int, *, raw: bool = False) -> int:
    """Largest possible size of a length-n code correcting every (t, s)-burst.

    Uses m = max(t, s) by default (correcting (t, s) and (s, t) bursts is
    the same property, so the stronger of the two ceilings applies);
    raw=True keeps m = t.
    """
    _check_sizes(t, s)
    _check_int(min(t, s), 1, "bound needs t >= 1 and s >= 1")
    m = t if raw else max(t, s)
    _check_int(n, m, "need n >= {}", m)
    return (1 << (n - m + 1)) // (n - m + 2)
