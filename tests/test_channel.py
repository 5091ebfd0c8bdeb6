"""Channel geometry: frozen ball examples, size laws, partition smoke tests."""

import random
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstcodes.channel import (
    BurstSpec,
    _burst_outputs,
    _fields,
    _sibling_step,
    _step_plan,
    apply_burst,
    ball,
    ball_size_formula,
    refined_ball,
    refined_ball_size,
    sphere_packing_bound,
)
from burstcodes.verify import _refined_parts, verify_disjoint, verify_roundtrip
from burstcodes.words import all_words

# worked (4,1)-ball around 101000111
BALL_41_CENTER = "101000111"
BALL_41_MEMBERS = {
    "000111",
    "100111",
    "110111",
    "101111",
    "101011",
    "101001",
    "101000",
}

# refined split of the (4,1)-ball around 101011100100
REFINED_CENTER = "101011100100"
REFINED_30 = {
    "011100100",
    "111100100",
    "101100100",
    "101000100",
    "101010100",
    "101011100",
}
REFINED_41 = {
    "100100100",
    "101011000",
    "101011110",
    "101011101",
}


def test_apply_burst_basic():
    assert apply_burst("101000111", BurstSpec(4, 1, 1, "0")) == "000111"
    assert apply_burst("0101", BurstSpec(2, 0, 2, "")) == "01"
    assert apply_burst("00100", BurstSpec(2, 2, 1, "11")) == "11100"
    assert apply_burst("11111", BurstSpec(2, 2, 4, "00")) == "11100"


def test_apply_burst_identity_when_reinserting():
    x = "1101001"
    assert apply_burst(x, BurstSpec(3, 3, 2, x[1:4])) == x


def test_apply_burst_rejects_bad_start():
    with pytest.raises(ValueError):
        apply_burst("0101", BurstSpec(2, 1, 4, "1"))
    with pytest.raises(ValueError):
        apply_burst("0101", BurstSpec(2, 1, 0, "1"))


def test_burst_spec_validates_inserted():
    with pytest.raises(ValueError):
        BurstSpec(2, 2, 1, "1")
    with pytest.raises(ValueError):
        BurstSpec(2, 1, 1, "2")


def test_ball_41_frozen_members():
    b = ball(BALL_41_CENTER, 4, 1)
    assert b.member_set() == BALL_41_MEMBERS
    assert b.size == 7 == ball_size_formula(9, 4, 1)


def test_ball_to_dict():
    b = ball("0110", 1, 1)
    assert b.to_dict() == {"center": "0110", "t": 1, "s": 1, "size": b.size,
                           "members": list(b.members)}
    r = refined_ball("0110", 1, 1)
    assert r.to_dict(include_members=False) == {
        "center": "0110", "t": 1, "s": 1, "size": r.size, "refined": True}


def test_refined_split_frozen():
    b30 = refined_ball(REFINED_CENTER, 3, 0)
    b41 = refined_ball(REFINED_CENTER, 4, 1)
    assert b30.member_set() == REFINED_30
    assert b41.member_set() == REFINED_41
    full = ball(REFINED_CENTER, 4, 1)
    assert b30.member_set() | b41.member_set() == full.member_set()
    assert not b30.member_set() & b41.member_set()
    assert b30.size + b41.size == 10 == full.size


def test_refined_sizes_match_formulas_on_reference_word():
    # rows of the 3-row and 4-row interleavings have 3+3+2 and lower run counts
    assert refined_ball_size(REFINED_CENTER, 3, 0) == 6
    assert refined_ball_size(REFINED_CENTER, 4, 1) == 12 - (3 + 3 + 2)


def test_refined_size_special_cases():
    # no deletion: insertion ball
    assert refined_ball_size("0000", 0, 2) == 4 * 2 + 4
    assert refined_ball(
        "0000", 0, 2
    ).size == 12
    assert refined_ball_size("0101", 0, 0) == 1
    # single deletion + single insertion, forced to differ: Hamming sphere
    assert refined_ball_size("0110", 1, 1) == 4
    assert refined_ball("0110", 1, 1).member_set() == {
        "1110",
        "0010",
        "0100",
        "0111",
    }


def test_refined_size_divisibility_guard():
    # the closed forms hold where the row count does not divide n:
    # 2 does not divide 5 for (2, 0), nor 7 for (3, 1)
    for x, k, l, size in (
        ("01010", 2, 0, 1),
        ("01101", 2, 0, 3),
        ("0101010", 3, 1, 5),
        ("0110100", 3, 1, 2),
    ):
        assert refined_ball_size(x, k, l) == refined_ball(x, k, l).size == size


def test_refined_size_matches_enumeration_small():
    for n in (4, 6):
        for x in all_words(n):
            for k in range(0, 4):
                for l in range(0, 4):
                    predicted = refined_ball_size(x, k, l)
                    assert predicted == refined_ball(x, k, l).size, (x, k, l)


def _as_mask(out):
    """sum(1 << u for u in out), built bytewise so long masks stay cheap."""
    b = bytearray(max(out, default=0) // 8 + 1)
    for u in out:
        b[u >> 3] |= 1 << (u & 7)
    return int.from_bytes(b, "little")


def _burst_masks(vs: list, n: int, t: int, s: int, refined: bool = False) -> list[int]:
    """_burst_outputs(v, n, t, s, refined) for each length-n word v in vs,
    as one int with bit u set for each output u: channel._sibling_step()
    folded with a one-kind plan over the suffixes of the words vs, from
    length max(t, 1) up, stepping at each length the block of their
    distinct suffixes and keeping the children that are suffixes of
    words in vs, as the ball-law sweep steps its masks from the empty
    word's, its plan's comb.  Callers check that 0 <= t <= n and s >= 0."""
    start = max(t, 1)
    empty = _step_plan(0, 0, s, refined)[1] if t == 0 else 0
    masks = dict.fromkeys({v & ((1 << (start - 1)) - 1) for v in vs}, empty)
    for k in range(start, n + 1):
        block = sorted(masks)
        [kind] = _sibling_step(block, k, [_step_plan(k, t, s, refined)],
                               [[masks[u] for u in block]])
        children = dict(zip(block + [u | 1 << (k - 1) for u in block], kind))
        masks = {u: children[u] for u in {v & ((1 << k) - 1) for v in vs}}
    return [masks[v] for v in vs]


def _first_start(w: int, n: int, t: int, s: int, refined: bool) -> list[int]:
    """Every output of a (t, s)-burst at the first start of the length-n
    word w, n >= 1: each s-bit insert followed by w's last n - t bits,
    for a refined one with t, s >= 1 only the inserts that differ from the
    deleted block at both ends.  Unlike the first list of
    _start_outputs(), it keeps the inserts that begin with x_1, whose
    outputs the second start also gives."""
    r = n - t
    split = refined and t and s
    return [ins << r | w & ((1 << r) - 1) for ins in range(1 << s)
            if not split or ins >> (s - 1) != w >> (n - 1) and ins & 1 != w >> r & 1]


@pytest.mark.parametrize("n", range(1, 10))
def test_sibling_step_is_the_mask_step_on_both_children(n):
    # every kind with t <= n and s <= 4, refined or not, over seeded
    # suffix masks, so that no term may lean on what a real mask holds:
    # each child's mask is the suffix's, shifted by 2^(m - 1) for the
    # 1-child, m = n - t + s, ORed with its first start's outputs
    rng = random.Random(n)
    kinds = sorted((t, s, refined) for t in range(n + 1) for s in range(5)
                   for refined in (False, True))
    plan = [_step_plan(n, *kind) for kind in kinds]
    fit = sum(t < n for t, _, _ in kinds)
    for v in range(1 << (n - 1)):
        suffix = [rng.getrandbits(1 << (n + 3)) for _ in range(fit)]
        children = _sibling_step([v], n, plan, [[mask] for mask in suffix])
        for bit in (0, 1):
            got = [kind[bit] for kind in children]
            w = v | bit << (n - 1)
            want = []
            for (t, s, refined), mask in zip(kinds, suffix + [0] * (len(kinds) - fit)):
                if bit and t < n:
                    mask <<= 1 << (n - t + s - 1)
                for u in _first_start(w, n, t, s, refined):
                    mask |= 1 << u
                want.append(mask)
            assert got == want, (v, bit)


@pytest.mark.parametrize("n", range(1, 9))
def test_block_step_is_the_one_word_step(n):
    # the length-(n - 1) words in a seeded order, cut into blocks of 1,
    # 2, 2^3 and 2^5 words, each kind's suffix masks the set kernel's:
    # the children of a block come zeros then ones, each with the mask
    # the one-word step gives it and the set kernel's mask of the child
    rng = random.Random(n)
    kinds = sorted((t, s, refined) for t in range(n + 1) for s in range(5)
                   for refined in (False, True))
    plan = [_step_plan(n, *kind) for kind in kinds]
    kernel = {(k, v, kind): _as_mask(_burst_outputs(v, k, *kind))
              for k in (n - 1, n) for v in range(1 << k) for kind in kinds if kind[0] <= k}
    for size in (1, 2, 2**3, 2**5):
        words = list(range(1 << (n - 1)))
        rng.shuffle(words)
        for at in range(0, len(words), size):
            vs = words[at : at + size]
            suffix = [[kernel[n - 1, v, kind] for v in vs] for kind in kinds if kind[0] < n]
            children = _sibling_step(vs, n, plan, suffix)
            assert [len(kind) for kind in children] == [2 * len(vs)] * len(kinds)
            for w, v in enumerate(vs):
                one = _sibling_step([v], n, plan, [[kind[w]] for kind in suffix])
                for bit in (0, 1):
                    got = [kind[w + bit * len(vs)] for kind in children]
                    child = v | bit << (n - 1)
                    assert got == [kind[bit] for kind in one], (size, vs, v, bit)
                    assert got == [kernel[n, child, kind] for kind in kinds], (size, child)


@pytest.mark.parametrize("n", range(15))
def test_burst_mask_agrees_with_the_set_kernel(n):
    # every word up to n = 9, then 200 seeded words per length
    rng = random.Random(n)
    words = range(1 << n) if n <= 9 else [rng.getrandbits(n) for _ in range(200)]
    for t in range(min(4, n) + 1):
        for s in range(5):
            for refined in (False, True):
                got = _burst_masks(words, n, t, s, refined)
                for v, mask in zip(words, got):
                    want = _as_mask(_burst_outputs(v, n, t, s, refined))
                    assert mask == want, (v, n, t, s, refined)


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("count", [1, 2, 3, 17])
def test_field_codec_round_trips(width, count):
    # struct reads fields of 8-64 bits, byte cuts the wider ones; one
    # field takes the same path as many
    rng = random.Random(width * 100 + count)
    join, split = _fields(width, count)
    top = (1 << width) - 1
    for values in ([0] * count, [top] * count, [rng.getrandbits(width) for _ in range(count)]):
        packed = join(values)
        assert packed == sum(v << j * width for j, v in enumerate(values))
        assert split(packed) == tuple(values)
        for flags in ([1] * count, [0] * count, [rng.getrandbits(1) for _ in range(count)]):
            assert split(packed, join(flags)) == list(compress(values, flags)), (values, flags)


def test_ball_size_law_smoke():
    for x in all_words(6):
        assert ball(x, 2, 2).size == ball_size_formula(6, 2, 2) == 12
        assert ball(x, 1, 3).size == ball_size_formula(6, 1, 3) == 28


def test_ball_size_formula_holds_wherever_a_burst_starts():
    # every n >= t, an insert longer than the word (s > n) included
    for n in range(6):
        for t in range(n + 1):
            for s in range(1, 7):
                want = ball_size_formula(n, t, s)
                for x in all_words(n):
                    assert ball(x, t, s).size == want, (x, t, s)
    with pytest.raises(ValueError, match=r"no \(3, 1\)-burst fits in length n=2"):
        ball_size_formula(2, 3, 1)


def test_partition_smoke_t_less_than_s():
    # t=1, s=2: refined parts at (k, l) = (0,1) and (1,2)
    for x in all_words(4):
        full = ball(x, 1, 2).member_set()
        p0 = refined_ball(x, 0, 1).member_set()
        p1 = refined_ball(x, 1, 2).member_set()
        assert p0 | p1 == full
        assert not p0 & p1


def test_overlap_witnesses_for_small_parameters():
    # (2,2)-balls of 00100 and 11111 share 11100; no code containing both
    # corrects that channel
    assert "11100" in ball("00100", 2, 2).member_set()
    assert "11100" in ball("11111", 2, 2).member_set()
    # (3,1)-balls of 11111 and 01010 share 011
    assert "011" in ball("11111", 3, 1).member_set()
    assert "011" in ball("01010", 3, 1).member_set()


def test_sphere_packing_values():
    assert sphere_packing_bound(9, 4, 1) == 9
    assert sphere_packing_bound(12, 3, 1) == 93
    assert sphere_packing_bound(9, 1, 4) == 9  # equivalence: same as (4,1)
    assert sphere_packing_bound(9, 1, 4, raw=True) == (1 << 9) // 10


def test_ball_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ball("0101", 5, 1)
    with pytest.raises(ValueError):
        ball_size_formula(4, 2, 0)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: ball("0101", 1.5, 1), "1.5"),
        (lambda: refined_ball("0101", 1, 1.0), "1.0"),
        (lambda: refined_ball_size("0101", 1.0, 1), "1.0"),
        (lambda: verify_disjoint(["0101"], 2.0, 1), "2.0"),
        (lambda: verify_disjoint(["0101"], 1, True), "True"),
        (lambda: apply_burst("0101", BurstSpec(1.5, 1, 1, "0")), "1.5"),
        (lambda: BurstSpec(1, False, 1, ""), "False"),
        (lambda: verify_roundtrip(["0101"], 1.0, 1, lambda y: y), "1.0"),
        (lambda: verify_roundtrip(["0101"], 1, 1.0, lambda y: y), "1.0"),
        (lambda: ball_size_formula(4, 1.5, 1), "1.5"),
        (lambda: ball_size_formula(4, 1, True), "True"),
        (lambda: sphere_packing_bound(9, 1.5, 1), "1.5"),
        (lambda: sphere_packing_bound(9, True, 1), "True"),
    ],
    ids=[
        "ball", "refined_ball", "refined_ball_size", "disjoint", "disjoint-bool",
        "apply_burst", "spec-bool", "roundtrip-t", "roundtrip-s",
        "formula", "formula-bool", "bound", "bound-bool",
    ],
)
def test_burst_sizes_must_be_ints(call, bad):
    with pytest.raises(ValueError, match=f"^burst sizes must be ints, got {bad}$"):
        call()


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=0, max_value=2**n - 1).map(
                lambda v: format(v, f"0{n}b")
            ),
            st.integers(min_value=1, max_value=n),
            st.integers(min_value=1, max_value=4),
        )
    )
)
def test_apply_burst_lands_in_ball(args):
    x, t, s = args
    n = len(x)
    b = ball(x, t, s).member_set()
    for start in range(1, n - t + 2):
        for ins in all_words(s):
            assert apply_burst(x, BurstSpec(t, s, start, ins)) in b


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=13, max_value=40).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=0, max_value=2**n - 1).map(
                lambda v: format(v, f"0{n}b")
            ),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        )
    )
)
def test_ball_laws_sampled_above_the_exhaustive_range(args):
    # the exhaustive sweeps stop at n = 12; sample the three laws beyond
    x, t, s = args
    n = len(x)
    full = ball(x, t, s)
    assert full.size == ball_size_formula(n, t, s)
    union, total = set(), 0
    for k, l in _refined_parts(t, s):
        part = refined_ball(x, k, l)
        union |= part.member_set()
        total += part.size
        predicted = refined_ball_size(x, k, l)
        assert part.size == predicted, (k, l)
    assert union == full.member_set() and total == len(union)
