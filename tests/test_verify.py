"""Verification reports: verdicts, witnesses, JSON shape."""

import itertools
import json
import math
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest

from burstcodes import verify
from burstcodes.channel import _burst_outputs, _step_plan, ball, refined_ball
from burstcodes.c31 import c31_param_search
from burstcodes.codes import c21_decode, pigeonhole_search
from burstcodes.cts import cts_param_search
from burstcodes.errors import DecodeFailure, DecodingError, GuardLimit
from burstcodes.words import all_words
from burstcodes.verify import (
    bound_report,
    verify_ball_laws,
    verify_disjoint,
    verify_equivalence,
    verify_roundtrip,
)

# Two five-bit words whose (2,2)-balls overlap: both can turn into 11100.
CLASH = ("00100", "11111")


@pytest.fixture(scope="module")
def c21_book():
    _, book = pigeonhole_search("c21", 8)
    return book


def test_disjoint_pass(c21_book):
    rep = verify_disjoint(c21_book.members, 2, 1)
    assert rep.verdict
    assert rep.witness is None
    assert rep.counts["codewords"] == c21_book.size


def test_disjoint_fail_carries_witness():
    rep = verify_disjoint(CLASH, 2, 2)
    assert not rep.verdict
    w = rep.witness
    assert {w["center_a"], w["center_b"]} == set(CLASH)
    for center in CLASH:
        assert w["shared"] in ball(center, 2, 2).member_set()


def test_roundtrip_pass(c21_book):
    a, b = c21_book.params["a"], c21_book.params["b"]
    rep = verify_roundtrip(
        c21_book.members, 2, 1, lambda y: c21_decode(y, a, b, 8).word
    )
    assert rep.verdict
    assert rep.counts["failures"] == 0
    # every codeword, every start, both insertion bits
    assert rep.counts["corruptions"] == c21_book.size * 7 * 2


def test_roundtrip_fail_records_first_witness(c21_book):
    rep = verify_roundtrip(c21_book.members, 2, 1, lambda y: "0" * 8)
    assert not rep.verdict
    assert rep.witness["decoded"] == "0" * 8
    assert rep.counts["failures"] > 0


def test_roundtrip_decodes_each_received_word_once_per_codeword(c21_book):
    a, b = c21_book.params["a"], c21_book.params["b"]
    seen = Counter()

    def counted(y):
        seen[y] += 1
        return c21_decode(y, a, b, 8).word

    rep = verify_roundtrip(c21_book.members, 2, 1, counted)
    assert rep.verdict and rep.counts["corruptions"] == c21_book.size * 7 * 2
    # a (2, 1)-ball of length 8 has 8 members, and one ball's words are
    # never shared with another codeword's in a code that corrects it
    assert sum(seen.values()) == c21_book.size * 8
    assert set(seen.values()) == {1}


def ref_verify_roundtrip(members, t, s, decode):
    """The loop without memo: one decode per (codeword, start, insert)."""
    corruptions = failures = 0
    witness = None
    for x in members:
        for pos in range(1, len(x) - t + 2):
            for ins in all_words(s):
                corruptions += 1
                y = x[: pos - 1] + ins + x[pos - 1 + t :]
                try:
                    got = decode(y)
                    why = None if got == x else {"decoded": got}
                except DecodingError as exc:
                    why = {"error": f"{type(exc).__name__}: {exc}"}
                if why:
                    failures += 1
                    witness = witness or {"codeword": x, "start": pos, "inserted": ins, **why}
    return corruptions, failures, witness


@pytest.mark.parametrize("t,s", [(2, 1), (1, 2), (3, 1), (2, 2)])
def test_roundtrip_matches_the_unmemoized_loop(t, s):
    # a decoder that inverts nothing: it keeps the received word and pads
    # or cuts it back, and is broken on chosen words both ways
    rng = random.Random(1700 + 10 * t + s)
    for _ in range(40):
        n = rng.randint(max(t, 2), 8)
        book = sorted({format(rng.getrandbits(n), f"0{n}b") for _ in range(rng.randint(1, 6))})
        m = n - t + s
        raising = {format(rng.getrandbits(m), f"0{m}b") for _ in range(3)}
        wrong = {format(rng.getrandbits(m), f"0{m}b") for _ in range(3)}

        def decode(y):
            if y in raising:
                raise DecodeFailure(f"no candidate for {y}")
            if y in wrong:
                return "1" * n
            return min(book, key=lambda x: sum(a != b for a, b in zip(x, y)))

        rep = verify_roundtrip(book, t, s, decode)
        got = rep.counts["corruptions"], rep.counts["failures"], rep.witness
        assert got == ref_verify_roundtrip(book, t, s, decode), book
        assert rep.verdict == (got[1] == 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ball("0101", 1, 40),
        lambda: refined_ball("0101", 1, 40),
        lambda: verify_disjoint(["0101", "1010"], 1, 40),
        lambda: verify_roundtrip(["0101"], 1, 40, lambda y: y),
    ],
    ids=["ball", "refined_ball", "disjoint", "roundtrip"],
)
def test_a_huge_insert_meets_the_output_guard(call):
    with pytest.raises(GuardLimit, match="output guard"):
        call()


def test_roundtrip_refuses_words_no_burst_fits():
    with pytest.raises(ValueError, match=r"^no \(2, 1\)-burst fits in length n=1$"):
        verify_roundtrip(["0"], 2, 1, lambda y: "0")
    # an empty book has no word to be short, and would check nothing
    with pytest.raises(ValueError, match="^no codewords to check$"):
        verify_roundtrip([], 2, 1, lambda y: "0")


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_disjoint([], 2, 1),
        lambda: verify_equivalence(iter(()), 2, 1),
        lambda: bound_report([], 8, 2, 1),
    ],
    ids=["disjoint", "equivalence", "bound"],
)
def test_checks_refuse_an_empty_book(check):
    with pytest.raises(ValueError, match="^no codewords to check$"):
        check()


@pytest.mark.parametrize(
    "members, t, s, msg",
    [
        (["0110", "01a1"], 2, 1, "word contains non-binary symbol 'a'"),
        (["0110"], -1, 1, "burst sizes must be >= 0"),
        (["0110"], 2, -1, "burst sizes must be >= 0"),
    ],
)
def test_roundtrip_refuses_bad_words_and_sizes(members, t, s, msg):
    with pytest.raises(ValueError, match=f"^{msg}$"):
        verify_roundtrip(members, t, s, lambda y: y)


def test_equivalence_good_book(c21_book):
    rep = verify_equivalence(c21_book.members, 2, 1)
    assert rep.verdict
    assert rep.counts == {"forward_pass": 1, "swapped_pass": 1}


def test_equivalence_bad_pair_fails_both_ways():
    # not (3,1)-disjoint, so it must not be (1,3)-disjoint either
    rep = verify_equivalence(("11111", "01010"), 3, 1)
    assert rep.verdict
    assert rep.counts == {"forward_pass": 0, "swapped_pass": 0}
    # an iterator is read once for both directions
    rep = verify_equivalence(iter(("0000000000", "0000000001")), 2, 1)
    assert rep.verdict and rep.params["codewords"] == 2
    assert rep.counts == {"forward_pass": 0, "swapped_pass": 0}


def test_equivalence_disagreement_carries_both_verdicts(monkeypatch, c21_book):
    # no real book passes one direction and fails the other, so the
    # swapped check is made to find a clash
    real = verify._disjoint
    clash = {"center_a": "a", "center_b": "b", "shared": "c"}
    monkeypatch.setattr(
        verify, "_disjoint",
        lambda members, t, s: real(members, t, s) if (t, s) == (2, 1) else (clash, 1),
    )
    rep = verify_equivalence(c21_book.members, 2, 1)
    assert not rep.verdict
    assert rep.counts == {"forward_pass": 1, "swapped_pass": 0}
    assert rep.witness == {
        "forward": {"t": 2, "s": 1, "verdict": True, "witness": None},
        "swapped": {"t": 1, "s": 2, "verdict": False, "witness": clash},
    }


def test_ball_laws_small_sweep():
    reports = verify_ball_laws([4, 5, 6], t_max=3, s_max=3)
    assert set(reports) == {"size", "partition", "refined-size"}
    for rep in reports.values():
        assert rep.verdict, rep.witness
    assert reports["size"].counts["words"] == 2**4 + 2**5 + 2**6
    assert reports["refined-size"].counts["formula_checks"] > 0


def test_ball_laws_guard():
    with pytest.raises(GuardLimit):
        verify_ball_laws([20])


def _work(top, t_max, s_max):
    return verify._ball_law_work(top, verify._ball_law_kinds(t_max, s_max, top)[1])


def test_ball_law_work_guard_is_the_default_sweep_at_the_length_guard():
    # the rule: sum over n <= top of 2^n times, per kind with t <= n, the
    # 64-bit words of a 2^(n - t + s)-bit mask
    kinds = verify._ball_law_kinds(4, 4, 5)[1]
    assert verify._ball_law_work(5, kinds) == sum(
        sum(-(-(2 ** (n - t + s)) // 64) for t, s, _ in kinds if t <= n) * 2**n
        for n in range(6)
    )
    guard = verify.BALL_LAW_GUARD
    assert verify._BALL_LAW_WORK == _work(guard, 4, 4)
    # the default sweep at the length guard is admitted, not run here
    assert _work(guard, 4, 4) <= verify._BALL_LAW_WORK
    assert _work(11, 10, 10) > verify._BALL_LAW_WORK > _work(10, 10, 10)


@pytest.mark.parametrize("n_values,t_max,s_max", [([12], 12, 12), ([11], 10, 10), ([14], 14, 4)])
def test_ball_laws_refuse_a_sweep_over_the_work_guard_at_once(n_values, t_max, s_max):
    start = time.perf_counter()
    with pytest.raises(GuardLimit, match="work guard"):
        verify_ball_laws(n_values, t_max, s_max)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n_values", [lambda: range(2, 10**11), lambda: itertools.count(2),
                                      lambda: [3, 15, 10**11]], ids=["range", "endless", "list"])
def test_ball_laws_refuse_the_first_length_past_the_guard_as_it_is_read(n_values):
    # no list of 10^11 lengths is built, and an endless one ends too
    start = time.perf_counter()
    with pytest.raises(GuardLimit, match=f"n=15 exceeds guard {verify.BALL_LAW_GUARD}"):
        verify_ball_laws(n_values())
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("t_max,s_max", [(0, 4), (4, 0), (-1, -1)])
def test_ball_laws_reject_a_sweep_with_no_bursts(t_max, s_max):
    with pytest.raises(ValueError, match="t_max, s_max >= 1"):
        verify_ball_laws([4, 5], t_max, s_max)


@pytest.mark.parametrize("n_values", [[], [0], [0, -3], range(0)])
def test_ball_laws_refuse_a_sweep_with_no_length(n_values):
    # no word of length >= 1, so no burst combination to check
    with pytest.raises(ValueError, match="a length >= 1"):
        verify_ball_laws(n_values)


def test_ball_laws_cap_burst_sizes_at_n():
    # sizes above n have no start; a huge bound must cost nothing
    big = verify_ball_laws([3, 4], 10**9, 10**9)
    small = verify_ball_laws([3, 4], 4, 4)
    for key in small:
        assert big[key].verdict and big[key].counts == small[key].counts


def _only_failure(reports, law):
    """The sweep over n = 4, 5 with every law but `law` passing."""
    for key, rep in reports.items():
        assert rep.verdict == (key != law), (key, rep.witness)
    rep = reports[law]
    assert rep.counts["failures"] > 0
    return rep.witness


def test_ball_laws_catch_a_wrong_size_formula(monkeypatch):
    real = verify.ball_size_formula

    def off_at_5_2_3(n, t, s):
        return real(n, t, s) + ((n, t, s) == (5, 2, 3))

    monkeypatch.setattr(verify, "ball_size_formula", off_at_5_2_3)
    reports = verify_ball_laws([4, 5], 3, 3)
    w = _only_failure(reports, "size")
    assert w == {"x": "00000", "t": 2, "s": 3, "enumerated": 20, "formula": 21}
    assert reports["size"].counts["failures"] == 2**5  # every center at n = 5


def test_ball_laws_catch_a_wrong_refined_size(monkeypatch):
    real = verify._refined_size
    monkeypatch.setattr(verify, "_refined_size", lambda v, n, k, l: real(v, n, k, l) + 1)
    w = _only_failure(verify_ball_laws([4, 5], 3, 3), "refined-size")
    assert w["formula"] == w["enumerated"] + 1
    assert w["x"] == "0000"


def _per_child(step):
    """A stand-in for verify._sibling_step that passes each child's masks,
    with its word and length, through step(v, n, masks)."""
    real = verify._sibling_step

    def sibling_step(vs, n, plan, suffix_masks):
        children = real(vs, n, plan, suffix_masks)
        for w, v in enumerate(vs + [v | 1 << (n - 1) for v in vs]):
            masks = step(v, n, [kind[w] for kind in children])
            for kind, mask in zip(children, masks):
                kind[w] = mask
        return children

    return sibling_step


def test_ball_laws_catch_a_part_that_drops_an_output(monkeypatch):
    part = verify._ball_law_kinds(3, 3, 5)[1].index((2, 0, True))

    def drop_one(v, n, masks):
        # the (2, 0) part, which tiles the (3, 1)-ball with (3, 1), swaps
        # an output for a word outside that ball; its size stays right,
        # so only the partition law can see the loss
        if (v, n) == (0b10110, 5):
            out = masks[part] ^ 1 << (masks[part].bit_length() - 1)
            outside = set(_burst_outputs(v, n, 3, 1))
            masks[part] = out | 1 << min(u for u in range(1 << 3) if u not in outside)
        return masks

    monkeypatch.setattr(verify, "_sibling_step", _per_child(drop_one))
    w = _only_failure(verify_ball_laws([4, 5], 3, 3), "partition")
    assert w == {"x": "10110", "t": 3, "s": 1, "parts_total": 4, "union": 4, "ball": 4}


def test_ball_law_witness_is_the_smallest_failing_word(monkeypatch):
    # the walk meets (5, 00000) before (4, 1000); an ascending sweep
    # meets 1000 first, and so must the witness
    real = verify._refined_size
    bad = {(4, 0b1000), (5, 0)}
    monkeypatch.setattr(
        verify, "_refined_size", lambda v, n, k, l: real(v, n, k, l) + ((n, v) in bad)
    )
    w = _only_failure(verify_ball_laws([4, 5], 3, 3), "refined-size")
    assert w["x"] == "1000"


def test_ball_law_sweep_takes_one_start_term_per_word_and_kind(monkeypatch):
    real_pair = verify._sibling_step
    kinds = verify._ball_law_kinds(4, 2, 6)[1]
    calls, terms, pair_calls = Counter(), Counter(), Counter()

    def count(ws, n, plan):
        # each word's plan holds one start term per kind that fits in n
        assert plan == [_step_plan(n, *kind) for kind in kinds[: len(plan)]]
        for v in ws:
            calls[v, n] += 1
            terms.update((v, n, *kind) for kind in kinds[: len(plan)])

    def counted_pair(vs, n, plan, suffix_masks):
        # one step for both children of each suffix v in the block
        pair_calls.update((v, n) for v in vs)
        count(vs + [v | 1 << (n - 1) for v in vs], n, plan)
        return real_pair(vs, n, plan, suffix_masks)

    monkeypatch.setattr(verify, "_sibling_step", counted_pair)
    verify_ball_laws([3, 6], 4, 2)
    sizes = [(t, s) for t in range(1, 5) for s in range(1, 3)]
    named = {(t, s, False) for t, s in sizes}
    named |= {(k, l, True) for t, s in sizes for k, l in verify._refined_parts(t, s)}
    want = {(v, n, t, s, refined)
            for n in range(1, 7) for v in range(1 << n) for t, s, refined in named if t <= n}
    assert set(terms) == want
    assert set(terms.values()) == set(calls.values()) == {1}
    # the empty word's masks are its plan's combs, with no step call;
    # every other word is a child
    assert len(calls) == 2**7 - 2 and (0, 0) not in calls
    assert set(pair_calls) == {(v, n) for n in range(1, 7) for v in range(1 << (n - 1))}
    assert set(pair_calls.values()) == {1}


def test_ball_law_sweep_holds_a_few_blocks_at_a_time():
    # blocks of 2^6 words at n = 12 hold about 2.4 MB of masks at their
    # deepest level; a sweep that kept whole levels would hold 150 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = verify_ball_laws(range(4, 13))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(rep.verdict for rep in reports.values())
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize(
    "n_values, bad",
    [([-3, 4], "-3"), ([4.0], "4.0"), ([True, 4], "True")],
)
def test_ball_laws_refuse_a_bad_length(n_values, bad):
    with pytest.raises(ValueError, match=f"lengths must be .*, got {bad}$"):
        verify_ball_laws(n_values)


def ref_verify_disjoint(members, t, s):
    """The owner-dict loop: every ball member hashed back to its center;
    the first collision becomes the witness."""
    owner = {}
    outputs = 0
    witness = None
    members = tuple(members)
    for x in members:
        if witness:
            break
        for y in ball(x, t, s).members:
            outputs += 1
            prev = owner.get(y)
            if prev is not None and prev != x:
                witness = {"center_a": prev, "center_b": x, "shared": y}
                break
            owner[y] = x
    return witness is None, {"codewords": len(members), "outputs_checked": outputs}, witness


def _passing_books(t, s):
    """The syndrome books that correct (t, s)-bursts, by the equivalence
    also (s, t): c21 at n = 8..12, c31 at its even lengths n = 8, 10, 12,
    and cts (12, 4, 2)."""
    return {
        frozenset((2, 1)): [pigeonhole_search("c21", n)[1].members for n in range(8, 13)],
        frozenset((3, 1)): [c31_param_search(n)[1].members for n in (8, 10, 12)],
        frozenset((4, 2)): [cts_param_search(12, 4, 2)[1].members],
    }.get(frozenset((t, s)), [])


@pytest.mark.parametrize("t,s", [(2, 1), (1, 2), (3, 1), (0, 1), (1, 0), (1, 3), (4, 2), (2, 4)])
def test_disjoint_matches_the_owner_dict_reference(t, s):
    rng = random.Random(1400 + 10 * t + s)
    verdicts = set()
    for _ in range(300):
        lengths = [rng.randint(max(t, 2), 9)] if rng.random() < 0.5 else range(max(t, 2), 10)
        book = [format(rng.getrandbits(n), f"0{n}b") for n in rng.choices(lengths, k=rng.randint(1, 12))]
        if rng.random() < 0.3:
            book.insert(rng.randrange(len(book) + 1), rng.choice(book))
        rep = verify_disjoint(book, t, s)
        assert (rep.verdict, rep.counts, rep.witness) == ref_verify_disjoint(book, t, s), book
        verdicts.add(rep.verdict)
    assert verdicts == {True, False}
    # the random books nearly all fail; these pass whole, and with a
    # codeword repeated, which only the codeword-by-codeword walk forgives
    for book in _passing_books(t, s):
        for members in (book, book + book[-1:]):
            rep = verify_disjoint(members, t, s)
            assert rep.verdict
            assert (rep.verdict, rep.counts, rep.witness) == ref_verify_disjoint(members, t, s)


@pytest.mark.parametrize("plant", ["front", "middle", "end", "repeat"])
def test_the_owner_walk_on_a_large_book(plant):
    # the c21 book at n = 18 (2,316 codewords) with one word planted: a
    # collider, the middle codeword with its last bit flipped, which a
    # burst at the last start takes to that codeword's output, or a
    # repeat of the middle codeword, which collides with nothing
    book = list(pigeonhole_search("c21", 18)[1].members)
    x = book[len(book) // 2]
    word = x if plant == "repeat" else x[:-1] + "10"[int(x[-1])]
    at = {"front": 0, "middle": len(book) // 2, "end": len(book)}.get(plant, len(book) - 1)
    book.insert(at, word)
    rep = verify_disjoint(book, 2, 1)
    assert (rep.verdict, rep.counts, rep.witness) == ref_verify_disjoint(book, 2, 1)
    assert rep.verdict == (plant == "repeat")
    both = int(rep.verdict)
    assert verify_equivalence(book, 2, 1).counts == {"forward_pass": both, "swapped_pass": both}


@pytest.mark.parametrize("n", [70, 130])
@pytest.mark.parametrize("t,s", [(2, 1), (1, 2), (1, 0)])
def test_wide_books_match_the_owner_dict_reference(n, t, s):
    # fields of 128 and 256 bits, past every struct code: 30 seeded words,
    # which share no output, then the same with the 21st codeword's
    # last bit flipped planted after it, which a burst at the last start
    # takes to that codeword's output
    rng = random.Random(7000 + n)
    book = [format(rng.getrandbits(n), f"0{n}b") for _ in range(30)]
    x = book[20]
    planted = book[:21] + [x[:-1] + "10"[int(x[-1])]] + book[21:]
    for members, passes in ((book, True), (planted, False)):
        rep = verify_disjoint(members, t, s)
        assert (rep.verdict, rep.counts, rep.witness) == ref_verify_disjoint(members, t, s)
        assert rep.verdict == passes


def test_a_passing_book_is_never_walked_codeword_by_codeword(monkeypatch):
    real, walks = verify._clash_walk, []

    def walk(members, t, s):
        walks.append((members, t, s))
        return real(members, t, s)

    monkeypatch.setattr(verify, "_clash_walk", walk)
    for t, s in ((2, 1), (1, 2), (3, 1), (1, 3), (4, 2), (2, 4)):
        for book in _passing_books(t, s):
            assert verify_disjoint(book, t, s).verdict
            assert verify_equivalence(book, t, s).counts == {"forward_pass": 1, "swapped_pass": 1}
    assert walks == []
    # a pool that comes up short is walked once, for its witness
    assert not verify_disjoint(CLASH, 2, 2).verdict
    assert walks == [(CLASH, 2, 2)]


@pytest.mark.parametrize(
    "members, msg",
    [
        (["0110", 110], "word must be a str of '0'/'1', got int"),
        (["0110", "01a1"], "word contains non-binary symbol 'a'"),
        (["0"], "word of length 1 cannot lose a burst of 2"),
    ],
)
def test_disjoint_refuses_bad_members(members, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        verify_disjoint(members, 2, 1)


def test_bound_report(c21_book):
    rep = bound_report(c21_book.members, 8, 2, 1)
    assert rep.verdict
    assert rep.counts["bound"] == 16
    assert rep.counts["size"] == c21_book.size
    assert rep.counts["redundancy"] == pytest.approx(8 - math.log2(c21_book.size), abs=1e-3)


@pytest.mark.parametrize(
    "members, n, msg",
    [
        (["0101"], 9, "codeword '0101' has length 4, not n=9"),
        (["0101", "011", "01"], 4, "codeword '011' has length 3, not n=4"),
    ],
)
def test_bound_report_refuses_words_of_another_length(members, n, msg):
    with pytest.raises(ValueError, match=f"^{msg}$"):
        bound_report(members, n, 1, 1)


def test_report_json_line(c21_book):
    rep = verify_disjoint(c21_book.members, 2, 1)
    line = rep.to_json()
    assert "\n" not in line
    parsed = json.loads(line)
    assert parsed["schema_version"] == 1
    assert parsed["verdict"] == "pass"
    assert parsed["check"] == "disjoint"
