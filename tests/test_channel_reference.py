"""The integer ball kernel against the string enumeration it replaced.

`ref_ball`, `ref_refined_ball` and `ref_ball_laws` are the string code:
every start times every word of `all_words(s)`, spliced by slicing,
deduplicated in a set and sorted.  The package must give equal `Ball`s
and equal ball-law reports (timings aside), and its per-start output
lists must hold each output of a center once.  `ref_start_outputs` is
the kernel as one list element per center per start, before the
centers were packed into the fields of one int; the packed kernel must
give the same lists, in the same order.  Its refined lists are what a
refined ball keeps of each center's outputs, in the same order too.
"""

import random

import pytest

from burstcodes.channel import (
    Ball,
    _burst_outputs,
    _members,
    _start_outputs,
    ball,
    ball_size_formula,
    refined_ball,
    refined_ball_size,
)
from burstcodes.verify import _refined_parts, verify_ball_laws
from burstcodes.words import all_words


def ref_ball(x, t, s):
    n = len(x)
    out = set()
    for i in range(n - t + 1):
        head, tail = x[:i], x[i + t :]
        for ins in all_words(s):
            out.add(head + ins + tail)
    return Ball(x, t, s, tuple(sorted(out)))


def ref_refined_ball(x, k, l):
    n = len(x)
    out = set()
    for i in range(n - k + 1):
        head, tail = x[:i], x[i + k :]
        for ins in all_words(l):
            if k >= 1 and l >= 1 and (ins[0] == x[i] or ins[-1] == x[i + k - 1]):
                continue
            out.add(head + ins + tail)
    return Ball(x, k, l, tuple(sorted(out)), refined=True)


def ref_start_outputs(vs, n, t, s, refined=False):
    """Per start, the list of every center's outputs, spliced one center
    at a time: the bases, then each offset, centers in vs order."""
    split = refined and t > 0 and s > 0
    for i in range(n - t + 1):
        r = n - i - t
        low, p, q = (1 << r) - 1, r + t - 1, s - 1 + r  # x_{i+1} is bit p of v
        if split:
            # x_{i+t}, the deleted block's last bit, is bit r of v
            if s == 1:
                yield [((v >> p ^ 1) << q) | (v & low) for v in vs if (v >> p ^ v >> r) & 1 == 0]
            else:
                bases = [((v >> p ^ 1) << q) | (v & low) | ((~v >> r & 1) << r) for v in vs]
                yield ref_spread(bases, 2 << r, 1 << (s - 2))
        elif not r:
            yield ref_spread([v >> t << s for v in vs], 1, 1 << s)
        elif s == 0:
            yield [(v >> (p + 1) << r) | (v & low) for v in vs if (v >> p ^ v >> (r - 1)) & 1]
        else:
            yield ref_spread([((v >> p ^ 1) << q) | (v & low) for v in vs], 1 << r, 1 << (s - 1))


def ref_spread(bases, step, count):
    """base + j * step for j < count, for each base."""
    return [b + o for o in range(0, count * step, step) for b in bases]


def ref_ball_laws(n_values, t_max, s_max):
    """The string sweep: counts, verdicts and witnesses per law."""
    fails = {"size": 0, "partition": 0, "refined-size": 0}
    wit = {"size": None, "partition": None, "refined-size": None}
    words = combos = formula_checks = 0
    for n in sorted(set(n_values)):
        pairs = [
            (t, s)
            for t in range(1, t_max + 1)
            for s in range(1, s_max + 1)
            if max(t, s) <= n
        ]
        for x in all_words(n):
            words += 1
            for t, s in pairs:
                combos += 1
                full = ref_ball(x, t, s)
                if full.size != ball_size_formula(n, t, s):
                    fails["size"] += 1
                    wit["size"] = wit["size"] or {
                        "x": x, "t": t, "s": s,
                        "enumerated": full.size,
                        "formula": ball_size_formula(n, t, s),
                    }
                seen = set()
                union_ok = True
                total = 0
                for k, l in _refined_parts(t, s):
                    part = ref_refined_ball(x, k, l)
                    total += part.size
                    if seen & part.member_set():
                        union_ok = False
                    seen |= part.member_set()
                    predicted = refined_ball_size(x, k, l)
                    formula_checks += 1
                    if predicted != part.size:
                        fails["refined-size"] += 1
                        wit["refined-size"] = wit["refined-size"] or {
                            "x": x, "k": k, "l": l,
                            "enumerated": part.size,
                            "formula": predicted,
                        }
                if not union_ok or seen != full.member_set() or total != len(seen):
                    fails["partition"] += 1
                    wit["partition"] = wit["partition"] or {
                        "x": x, "t": t, "s": s,
                        "parts_total": total,
                        "union": len(seen),
                        "ball": full.size,
                    }
    base = {"words": words, "burst_combinations": combos}
    return {
        "size": (fails["size"] == 0, base | {"failures": fails["size"]}, wit["size"]),
        "partition": (
            fails["partition"] == 0, base | {"failures": fails["partition"]}, wit["partition"]
        ),
        "refined-size": (
            fails["refined-size"] == 0,
            base | {"formula_checks": formula_checks, "failures": fails["refined-size"]},
            wit["refined-size"],
        ),
    }


@pytest.mark.parametrize("n", range(0, 9))
def test_balls_match_string_reference(n):
    for x in all_words(n):
        for t in range(n + 1):
            for s in range(5):
                got, want = ball(x, t, s), ref_ball(x, t, s)
                assert got == want, (x, t, s)
                got, want = refined_ball(x, t, s), ref_refined_ball(x, t, s)
                assert got == want and got.refined, (x, t, s)


def _kernel_centers(n):
    """Every word up to n = 7, then 24 seeded words per length."""
    if n <= 7:
        return list(range(1 << n))
    rng = random.Random(n)
    return [rng.getrandbits(n) for _ in range(24)]


@pytest.mark.parametrize("n", range(0, 11))
def test_start_lists_give_each_ball_output_once(n):
    # verify_disjoint's pass path counts on this: a center's per-start
    # lists repeat no output, so a pool that holds fewer ints than were
    # made has met two codewords; a refined ball keeps some of them
    vs = _kernel_centers(n)
    for t in range(n + 1):
        for s in range(5):
            per_center = [list(_start_outputs([v], n, t, s)) for v in vs]
            refined = [_burst_outputs(v, n, t, s, True) for v in vs]
            for v, lists, kept in zip(vs, per_center, refined):
                x = format(v, f"0{n}b") if n else ""
                flat = [u for out in lists for u in out]
                for got, ref in ((flat, ref_ball), (kept, ref_refined_ball)):
                    assert len(got) == len(set(got)), (v, n, t, s, ref)
                    assert _members(got, n - t + s) == ref(x, t, s).members, (x, t, s, ref)
            # many centers at once: start i lists every center's start-i outputs
            for i, out in enumerate(_start_outputs(vs, n, t, s)):
                assert sorted(out) == sorted(u for lists in per_center for u in lists[i])
            # and the centers' refined outputs are the list kernel's refined lists
            want = sorted(u for out in ref_start_outputs(vs, n, t, s, True) for u in out)
            assert sorted(u for kept in refined for u in kept) == want, (n, t, s)


def assert_kernels_agree(vs, n, t_values, s_max=4):
    for t in t_values:
        for s in range(s_max + 1):
            got = [list(out) for out in _start_outputs(vs, n, t, s)]
            assert got == list(ref_start_outputs(vs, n, t, s)), (vs[:3], n, t, s)
            # each center's refined outputs, in the list kernel's order
            for v in vs:
                want = [u for out in ref_start_outputs([v], n, t, s, True) for u in out]
                assert _burst_outputs(v, n, t, s, True) == want, (v, n, t, s)


@pytest.mark.parametrize("n", range(0, 11))
def test_packed_kernel_gives_the_list_kernels_lists(n):
    # every word as one block, no word, and seeded blocks of 1 and 3
    # words; every word on its own up to n = 6, where a block is one int
    rng = random.Random(4200 + n)
    words = list(range(1 << n))
    blocks = [words, [], [rng.getrandbits(n)], [rng.getrandbits(n) for _ in range(3)]]
    if n <= 6:
        blocks += [[v] for v in words]
    for vs in blocks:
        assert_kernels_agree(vs, n, range(n + 1))


@pytest.mark.parametrize("n", [31, 33, 64, 65, 130])
def test_packed_kernel_across_field_widths(n):
    # the fields are 32 bits up to 32-bit outputs, then 64, then 128 and
    # 256, which no struct code reads; s > t makes the outputs longer
    rng = random.Random(4300 + n)
    t_values = [0, 1, 2, 3, n - 1, n]
    for size in (0, 1, 3, 9):
        assert_kernels_agree([rng.getrandbits(n) for _ in range(size)], n, t_values)
    # the all-zero and all-one words fill no field and every field
    assert_kernels_agree([0, (1 << n) - 1], n, t_values)


def test_reference_covers_empty_outputs():
    # nothing left: the one output is the empty word
    assert ball("1", 1, 0).members == ("",) == ref_ball("1", 1, 0).members
    assert refined_ball("", 0, 0).members == ("",)
    # no single bit differs from both ends of the deleted block 01
    assert refined_ball("01", 2, 1).members == () == ref_refined_ball("01", 2, 1).members
    assert refined_ball("0110", 2, 1).members == ("000",)


@pytest.mark.parametrize("t_max,s_max", [(4, 4), (5, 2), (2, 5)])
def test_ball_law_reports_match_string_sweep(t_max, s_max):
    ns = range(1, 8)
    reports = verify_ball_laws(ns, t_max, s_max)
    want = ref_ball_laws(ns, t_max, s_max)
    for key, (verdict, counts, witness) in want.items():
        d = reports[key].to_dict()
        assert d["params"] == {"n_values": list(ns), "t_max": t_max, "s_max": s_max}
        assert (d["verdict"] == "pass", d["counts"], d["witness"]) == (verdict, counts, witness)
