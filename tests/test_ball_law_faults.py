"""The ball-law sweep's block checks against the plain per-word loop.

verify_ball_laws() checks each law once over a block of words, and
walks the block's words only where that check fails.
ref_ball_law_sweep() checks every law of every word: one
channel._sibling_step() per word, on a one-word block, whose child with
the word's top bit it keeps, then the loop over each (t, s) and its
parts.  Both read the masks, the ball-size formula and the refined
closed forms through the verify module, so faults planted there reach
both, and the whole reports, counts and witnesses included, must agree.
"""

import random

import pytest

from burstcodes import verify
from burstcodes.verify import VerificationReport, verify_ball_laws


def ref_ball_law_sweep(n_values, t_max, s_max):
    """verify_ball_laws() on checked arguments, every law of every word
    checked by the plain loop."""
    n_values = sorted(set(n_values))
    top = n_values[-1]
    sizes, kinds = verify._ball_law_kinds(t_max, s_max, top)
    fails = dict.fromkeys(verify._BALL_LAWS, 0)
    wit = dict.fromkeys(verify._BALL_LAWS)

    def fail(law, v, n, **fields):
        fails[law] += 1
        if wit[law] is None or (n, v) < wit[law][:2]:
            wit[law] = n, v, fields

    steps = [[verify._step_plan(n, *kind) for kind in kinds if kind[0] <= n]
             for n in range(top + 1)]
    plans = {}
    words = combos = formula_checks = 0
    for n in n_values:
        pairs = [
            (t, s, verify.ball_size_formula(n, t, s), kinds.index((t, s, False)),
             [(k, l, kinds.index((k, l, True))) for k, l in verify._refined_parts(t, s)])
            for t, s in sizes if max(t, s) <= n
        ]
        plans[n] = pairs, {kl for *_, used in pairs for kl in used}
        words += 1 << n
        combos += len(pairs) << n
        formula_checks += sum(len(used) for *_, used in pairs) << n

    def walk(v, n, suffix):
        if n:
            # a one-word block; the child with v's top bit is entry `bit`
            bit = v >> (n - 1)
            children = verify._sibling_step([v ^ bit << (n - 1)], n, steps[n],
                                            [[mask] for mask in suffix])
            masks = [kind[bit] for kind in children]
        else:
            # the empty word: one output, the insert alone, per kind
            masks = [comb for _, comb, _, _ in steps[0]]
        pairs, kls = plans.get(n, ((), ()))
        known = {i: (masks[i].bit_count(), verify._refined_size(v, n, k, l)) for k, l, i in kls}
        for t, s, formula, i, used in pairs:
            size = masks[i].bit_count()
            if size != formula:
                fail("size", v, n, t=t, s=s, enumerated=size, formula=formula)
            union = total = 0
            for k, l, j in used:
                got, predicted = known[j]
                total += got
                union |= masks[j]
                if predicted != got:
                    fail("refined-size", v, n, k=k, l=l, enumerated=got, formula=predicted)
            if not (union == masks[i] and total == union.bit_count()):
                fail("partition", v, n, t=t, s=s, parts_total=total,
                     union=union.bit_count(), ball=size)
        if n < top:
            walk(v, n + 1, masks)
            walk(v | 1 << n, n + 1, masks)

    walk(0, 0, [])
    params = {"n_values": list(n_values), "t_max": t_max, "s_max": s_max}
    counts = {"words": words, "burst_combinations": combos}
    extra = {"refined-size": {"formula_checks": formula_checks}}
    return {
        law: VerificationReport(
            check, params, fails[law] == 0,
            counts | extra.get(law, {}) | {"failures": fails[law]},
            wit[law] and {"x": format(wit[law][1], f"0{wit[law][0]}b"), **wit[law][2]},
        )
        for law, check in verify._BALL_LAWS.items()
    }


def _plain(reports):
    """The reports as dicts, without their timings."""
    out = {}
    for law, rep in reports.items():
        d = rep.to_dict()
        del d["elapsed_s"]
        out[law] = d
    return out


# the sweeps whose reports must not change, each with its (t_max, s_max)
SWEEPS = [
    (range(4, 11), 4, 4),
    (range(0, 9), 3, 4),
    (range(1, 8), 4, 2),
    ([6], 1, 1),
    (range(2, 12), 2, 3),
]


@pytest.mark.parametrize("n_values,t_max,s_max", SWEEPS)
def test_sweep_matches_the_plain_loop(n_values, t_max, s_max):
    got = _plain(verify_ball_laws(n_values, t_max, s_max))
    assert got == _plain(ref_ball_law_sweep(n_values, t_max, s_max))
    assert all(rep["verdict"] == "pass" for rep in got.values())


def _nth_bit(mask, pick, set_bits):
    """The position of the pick-th (cyclically) set, or clear, bit of mask."""
    bits = [u for u in range(mask.bit_length() + 1) if (mask >> u & 1) == set_bits]
    return bits[pick % len(bits)] if bits else None


def _plant(rng, kinds, n_values, t_max, s_max):
    """Seeded mask faults {(n, v): [(op, i, ..., pick)]} at lengths where
    every kind is checked: drop an output of kind i, add one of its
    length, move one to another kind j of that length, or share one
    with j; some words take several.  Every host length is >= 1, since
    only the sibling step carries faults."""
    hosts = [n for n in n_values if n >= max(t_max, s_max)]
    faults = {}
    for _ in range(rng.randint(1, 4)):
        n = rng.choice(hosts)
        v = rng.randrange(1 << n)
        for _ in range(rng.choice((1, 1, 2, 3))):
            i = rng.choice([i for i, (t, _, _) in enumerate(kinds) if t <= n])
            op = rng.choice(("drop", "add", "move", "share"))
            t, s, _ = kinds[i]
            # refined parts of one output length are disjoint, and the
            # full balls hold them, so a shared output goes part to part
            others = [j for j, (k, l, refined) in enumerate(kinds)
                      if j != i and k <= n and k - l == t - s
                      and (op != "share" or refined and kinds[i][2])]
            if op in ("move", "share") and others:
                fault = op, i, rng.choice(others), rng.randrange(64)
            else:
                fault = rng.choice(("drop", "add")), i, rng.randrange(64)
            faults.setdefault((n, v), []).append(fault)
    return faults


def _apply(faults, kinds, v, n, masks):
    for op, i, *rest in faults.get((n, v), ()):
        pick = rest[-1]
        if op == "add":
            t, s, _ = kinds[i]
            full = (1 << (1 << (n - t + s))) - 1
            u = _nth_bit(masks[i] ^ full, pick, 1)
            if u is not None:
                masks[i] |= 1 << u
            continue
        u = _nth_bit(masks[i], pick, 1)
        if u is None:
            continue
        if op != "share":
            masks[i] &= ~(1 << u)
        if op != "drop":
            masks[rest[0]] |= 1 << u
    return masks


def _inject(monkeypatch, faults, kinds):
    """Route each child of the block step through _apply()."""
    step = verify._sibling_step

    def sibling_step(vs, n, plan, suffix_masks):
        children = step(vs, n, plan, suffix_masks)
        for w, v in enumerate(vs + [v | 1 << (n - 1) for v in vs]):
            masks = _apply(faults, kinds, v, n, [kind[w] for kind in children])
            for kind, mask in zip(children, masks):
                kind[w] = mask
        return children

    monkeypatch.setattr(verify, "_sibling_step", sibling_step)


def _wrong_at(monkeypatch, size_at=(), part_at=(), by=1):
    """Make the ball-size formula wrong by `by` at each (n, t, s) of
    size_at, and the refined closed form at each (n, k, l) of part_at,
    for every word of that n."""
    size, part = verify.ball_size_formula, verify._refined_size
    monkeypatch.setattr(verify, "ball_size_formula",
                        lambda n, t, s: size(n, t, s) + by * ((n, t, s) in size_at))
    monkeypatch.setattr(verify, "_refined_size",
                        lambda v, n, k, l: part(v, n, k, l) + by * ((n, k, l) in part_at))


@pytest.mark.parametrize("seed", range(40))
def test_planted_faults_give_the_plain_loops_reports(monkeypatch, seed):
    rng = random.Random(seed)
    t_max, s_max = rng.randint(1, 3), rng.randint(1, 3)
    n_values = list(range(rng.randint(0, 2), rng.randint(4, 6) + 1))
    kinds = verify._ball_law_kinds(t_max, s_max, n_values[-1])[1]
    # a quarter of the seeds plant only wrong formulas, a quarter only
    # mask faults, the rest both
    faults = _plant(rng, kinds, n_values, t_max, s_max) if seed % 4 else {}
    if seed % 4 != 1:
        _wrong_at(
            monkeypatch,
            {(rng.choice(n_values), rng.randint(1, t_max), rng.randint(1, s_max))
             for _ in range(rng.randint(0, 2))},
            {(rng.choice(n_values), rng.randint(0, t_max), rng.randint(0, s_max))
             for _ in range(rng.randint(0, 2))},
            rng.choice((-1, 1)),
        )
    _inject(monkeypatch, faults, kinds)
    got = _plain(verify_ball_laws(n_values, t_max, s_max))
    assert got == _plain(ref_ball_law_sweep(n_values, t_max, s_max))
    if faults:
        # every planted mask fault lands in a checked kind, so one law fails
        assert any(rep["verdict"] == "fail" for rep in got.values()), faults


@pytest.mark.parametrize(
    "owner,sharer,size_at,part_at",
    [
        # (2, 0) takes an output of (3, 1), and its closed form is one
        # too big: every size matches, the union is the ball, and only
        # the parts' total shows the overlap
        ((3, 1), (2, 0), (), {(5, 2, 0)}),
        # (3, 1) takes an output of (2, 0), and both its closed form and
        # the ball's are one too big: only the ball's own size differs
        ((2, 0), (3, 1), {(5, 3, 1)}, {(5, 3, 1)}),
    ],
)
def test_a_word_only_one_compare_sees_falls_back(monkeypatch, owner, sharer, size_at, part_at):
    kinds = verify._ball_law_kinds(3, 3, 5)[1]
    v = 0b10110
    faults = {(5, v): [("share", kinds.index((*owner, True)), kinds.index((*sharer, True)), 0)]}
    _wrong_at(monkeypatch, size_at, part_at)
    _inject(monkeypatch, faults, kinds)
    got = _plain(verify_ball_laws([4, 5], 3, 3))
    assert got == _plain(ref_ball_law_sweep([4, 5], 3, 3))
    # every other word of n = 5 fails its wrong closed forms; v alone
    # breaks the tiling, so the block's tiling check fails on its total
    # alone, and its walk finds v
    assert got["partition"]["counts"]["failures"] == 1
    assert got["partition"]["witness"] == {"x": "10110", "t": 3, "s": 1, "parts_total": 5,
                                           "union": 4, "ball": 4}


def test_an_overlap_only_the_parts_total_sees_falls_back(monkeypatch):
    # (2, 0) takes an output of (3, 1) at v, and its closed form is one
    # too big at v alone: every size in v's block matches and every
    # union is its ball, so only the parts' total shows the overlap; the
    # block's tiling check fails on its total, and its walk finds v
    kinds = verify._ball_law_kinds(3, 3, 5)[1]
    v = 0b10110
    faults = {(5, v): [("share", kinds.index((3, 1, True)), kinds.index((2, 0, True)), 0)]}
    part = verify._refined_size
    monkeypatch.setattr(verify, "_refined_size",
                        lambda w, n, k, l: part(w, n, k, l) + ((n, w, k, l) == (5, v, 2, 0)))
    _inject(monkeypatch, faults, kinds)
    got = _plain(verify_ball_laws([4, 5], 3, 3))
    assert got == _plain(ref_ball_law_sweep([4, 5], 3, 3))
    assert got["size"]["verdict"] == got["refined-size"]["verdict"] == "pass"
    assert got["partition"]["counts"]["failures"] == 1
    assert got["partition"]["witness"] == {"x": "10110", "t": 3, "s": 1, "parts_total": 5,
                                           "union": 4, "ball": 4}


def test_a_fault_inside_a_full_block_gives_the_plain_loops_report(monkeypatch):
    # with the default sizes up to n = 10 the sweep checks blocks of 2^8
    # words at n = 10, the words with one 2-bit suffix; the fault sits
    # at index 137 of such a block, where no block edge is near
    kinds = verify._ball_law_kinds(4, 4, 10)[1]
    assert verify._BLOCK_BYTES // (8 * verify._mask_words(10, kinds)) >> 8 == 1
    v = 137 << 2 | 0b10
    part = kinds.index((2, 1, True))
    _inject(monkeypatch, {(10, v): [("drop", part, 5)]}, kinds)
    got = _plain(verify_ball_laws(range(4, 11)))
    assert got == _plain(ref_ball_law_sweep(range(4, 11), 4, 4))
    # the (2, 1)-part tiles the (2, 1)-, (3, 2)- and (4, 3)-balls, and
    # the loop counts its size and each tiling once per ball
    x = format(v, "010b")
    for law in ("refined-size", "partition"):
        assert got[law]["counts"]["failures"] == 3
        assert got[law]["witness"]["x"] == x
    assert got["size"]["verdict"] == "pass"


def test_the_witness_is_the_smallest_word_across_blocks(monkeypatch):
    # at n = 10 the sweep checks its blocks of 2^8 words by 2-bit suffix
    # in the order 00, 10, 01, 11, so it meets the fault at 514 (suffix
    # 10) before the one at 5 (suffix 01); the witness is still the
    # smaller word, the one an ascending sweep meets first
    kinds = verify._ball_law_kinds(4, 4, 10)[1]
    part = kinds.index((2, 1, True))
    _inject(monkeypatch, {(10, v): [("drop", part, 0)] for v in (514, 5)}, kinds)
    step, met = verify._sibling_step, []

    def sibling_step(vs, n, plan, suffix_masks):
        if n == 10:
            met.extend(v for v in vs + [v | 1 << 9 for v in vs] if v in (514, 5))
        return step(vs, n, plan, suffix_masks)

    monkeypatch.setattr(verify, "_sibling_step", sibling_step)
    got = _plain(verify_ball_laws(range(4, 11)))
    assert met == [514, 5]
    assert got == _plain(ref_ball_law_sweep(range(4, 11), 4, 4))
    for law in ("refined-size", "partition"):
        assert got[law]["witness"]["x"] == "0000000101"
