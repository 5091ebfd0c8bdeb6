"""Component code families: worked decodes, membership, search guarantees."""

import dataclasses
import math
import sys
import tracemalloc

import pytest

from burstcodes import c31, codes, cts, words
from burstcodes.c31 import c31_param_search
from burstcodes.channel import BurstSpec, apply_burst
from burstcodes.codes import (
    MERGE_00_TO_1,
    MERGE_11_TO_0,
    SINGLE_DELETION,
    Codebook,
    DecodeOutcome,
    c21_decode,
    c21_member,
    c21rll_decode,
    c21rll_member,
    lev2_decode,
    lev2_member,
    max_run_length,
    pigeonhole_search,
    rll_max_run,
    rll_member,
    svt21_decode,
    svt21_member,
    vt_decode,
    vt_member,
)
from burstcodes.cts import cts_param_search
from burstcodes.errors import DecodeFailure, DecodingError, GuardLimit
from burstcodes.families import FAMILIES
from burstcodes.words import all_words, rsyn0, vt_syndrome


# ---------------------------------------------------------------- VT


def test_vt_decode_single_deletion():
    x = "1011"
    a = vt_syndrome(x) % 5  # == 3
    assert a == 3
    assert vt_member(x, a, 4)
    assert vt_decode("101", a, 4) == x


def test_vt_roundtrip_exhaustive_n6():
    _, book = pigeonhole_search("vt", 6)
    for x in book.members:
        for p in range(1, 7):
            y = x[: p - 1] + x[p:]
            assert vt_decode(y, book.params["a"], 6) == x


def test_vt_insertion_candidates_cover_every_class():
    # any received word has a preimage in every syndrome class, so decode
    # failure cannot happen for the plain VT decoder; it always resolves
    for a in range(5):
        assert vt_member(vt_decode("111", a, 4), a, 4)


# ---------------------------------------------------------------- LEV2


def test_lev2_decode_two_burst():
    assert lev2_member("0101", 6, 4)
    assert lev2_decode("01", 6, 4) == "0101"  # coordinates 2-3 deleted
    assert lev2_decode("101", 6, 4) == "0101"
    assert lev2_decode("0101", 6, 4) == "0101"


def test_lev2_full_length_non_member_fails():
    with pytest.raises(DecodeFailure):
        lev2_decode("0100", 6, 4)


def test_lev2_decode_runs_no_row_automaton(monkeypatch):
    # the automata serve searches and member tests; lev2 solves a shorter
    # received word per window class from popcounts of y's transition
    # mask, and checks a full-length word from the same mask
    n = 8
    _, book = pigeonhole_search("lev2", n)

    def refuse(*args, **kwargs):
        raise AssertionError("lev2_decode ran a row automaton")

    monkeypatch.setattr(codes, "_family_rows", refuse)
    monkeypatch.setattr(codes, "_in_bucket", refuse)
    for m in (n, n - 1, n - 2):
        decoded = 0
        for y in all_words(m):
            try:
                decoded += lev2_decode(y, book.params["a"], n) in book
            except DecodingError:
                pass
        assert decoded


def test_lev2_roundtrip_exhaustive_n7():
    n = 7
    _, book = pigeonhole_search("lev2", n)
    a = book.params["a"]
    for x in book.members:
        for t in (1, 2):
            for start in range(1, n - t + 2):
                y = apply_burst(x, BurstSpec(t, 0, start, ""))
                assert lev2_decode(y, a, n) == x


# ---------------------------------------------------------------- C21


def test_c21_merge_decode_worked():
    x = "10011"
    assert c21_member(x, 1, 3, 5)
    y = apply_burst(x, BurstSpec(2, 1, 2, "1"))  # 00 -> 1
    assert y == "1111"
    out = c21_decode(y, 1, 3, 5)
    assert out.word == x
    assert out.classification == MERGE_00_TO_1
    assert out.window == (2, 2)


def test_c21_single_deletion_window_is_run():
    out = c21_decode("1011", 1, 3, 5)
    assert out.word == "10011"
    assert out.classification == SINGLE_DELETION
    assert out.window == (2, 3)  # the 00 run


def test_c21_merge_11_classification():
    # find a codebook word with a 11 pair to squash
    params, book = pigeonhole_search("c21", 8)
    x = next(w for w in book.members if "11" in w)
    p = x.index("11") + 1
    y = apply_burst(x, BurstSpec(2, 1, p, "0"))
    out = c21_decode(y, params["a"], params["b"], 8)
    assert out.word == x
    assert out.classification == MERGE_11_TO_0
    assert out.window == (p, p)


def test_c21_roundtrip_exhaustive_n8():
    params, book = pigeonhole_search("c21", 8)
    a, b = params["a"], params["b"]
    for x in book.members:
        for start in range(1, 8):
            for ins in "01":
                y = apply_burst(x, BurstSpec(2, 1, start, ins))
                out = c21_decode(y, a, b, 8)
                assert out.word == x, (x, start, ins)
                if out.classification == SINGLE_DELETION:
                    # consistent starts extend one left of the run
                    assert out.window[0] - 1 <= start <= out.window[1]
                else:
                    assert start == out.window[0] == out.window[1]


def test_c21_rejects_wrong_length():
    with pytest.raises(ValueError):
        c21_decode("10", 1, 3, 5)


# ---------------------------------------------------------------- SVT21


def test_svt21_worked_rows():
    # two length-5 rows recovered under a start window of 1..3
    assert svt21_decode("0101", 7, 2, 7, (1, 3), 5) == "01001"
    assert svt21_decode("1010", 10, 0, 7, (1, 3), 5) == "11110"
    assert svt21_member("01001", 7, 2, 7)
    assert svt21_member("11110", 10, 0, 7)


def test_svt21_miss_window_fails_loudly():
    # the received row decodes fine inside the right window, but a window
    # avoiding every consistent start has nothing to offer
    with pytest.raises(DecodeFailure):
        svt21_decode("0101", 7, 2, 7, (1, 1), 5)


def test_svt21_window_validation():
    with pytest.raises(ValueError):
        svt21_decode("0101", 7, 2, 3, (1, 4), 5)  # window longer than P
    with pytest.raises(ValueError):
        svt21_decode("0101", 7, 2, 7, (3, 1), 5)  # empty
    with pytest.raises(ValueError):
        svt21_decode("0101", 7, 2, 7, (9, 9), 5)  # no valid start inside


def test_svt21_degenerate_window():
    # exact start knowledge: window of width 1 still decodes
    x = "011010"
    c = vt_syndrome(x) % 5
    d = x.count("1") % 4
    y = apply_burst(x, BurstSpec(2, 1, 3, "1"))
    assert svt21_decode(y, c, d, 3, (3, 3), 6) == x


def test_svt21_roundtrip_windows_n8():
    P = 3
    params, book = pigeonhole_search("svt21", 8, P=P)
    c, d = params["c"], params["d"]
    for x in book.members:
        for start in range(1, 8):
            for ins in "01":
                y = apply_burst(x, BurstSpec(2, 1, start, ins))
                for lo in range(max(1, start - P + 1), start + 1):
                    got = svt21_decode(y, c, d, P, (lo, lo + P - 1), 8)
                    assert got == x, (x, start, ins, lo)


# ---------------------------------------------------------------- RLL


def test_rll_cap_values():
    assert rll_max_run(8) == 6
    assert rll_max_run(5) == 6
    assert rll_max_run(64) == 9
    assert rll_max_run(1) == 3


def test_max_run_length():
    assert max_run_length("1101110000") == 4
    assert max_run_length("0") == 1
    assert max_run_length("") == 0


def test_rll_member():
    assert rll_member("00110", 2)
    assert not rll_member("000110", 2)
    with pytest.raises(ValueError):
        rll_member("01", 0)


def test_a_run_cap_past_the_word_holds_before_any_search_string_is_built():
    # "0" * (f + 1) at f = 10^11 would not fit in memory
    for x in ("", "0", "0101", "1111"):
        assert rll_member(x, 10**11) and rll_member(x, max(len(x), 1))
    assert not rll_member("1111", 3)


def test_rll_space_is_big_enough_n8():
    count = sum(1 for x in all_words(8) if rll_member(x, rll_max_run(8)))
    assert count == 250
    assert count >= 2**7


def test_c21rll_member_defaults():
    assert c21rll_member("10011", 1, 3, 5)
    assert not c21rll_member("00000", 0, 0, 5, f=4)


# ---------------------------------------------------------------- search


def test_pigeonhole_c21_n8_meets_average():
    params, book = pigeonhole_search("c21", 8)
    assert book.size >= -(-(2**8) // (4 * 15))  # ceil(256/60) = 5
    for x in book.members:
        assert c21_member(x, params["a"], params["b"], 8)


def test_pigeonhole_c21rll_n8_meets_guarantee():
    params, book = pigeonhole_search("c21rll", 8)
    assert params["f"] == 6
    assert book.size >= -(-(2**7) // (4 * 15))  # ceil(128/60) = 3
    for x in book.members:
        assert c21rll_member(x, params["a"], params["b"], 8, params["f"])


def test_pigeonhole_tie_break_is_lexicographic():
    # at n = 7 two c21 buckets tie for the maximum; the smaller key wins
    n = 7
    counts = {}
    for x in all_words(n):
        key = (vt_syndrome(x) % (2 * n - 1), x.count("1") % 4)
        counts[key] = counts.get(key, 0) + 1
    top = max(counts.values())
    tied = sorted(k for k, c in counts.items() if c == top)
    assert tied == [(3, 0), (12, 3)]
    params, book = pigeonhole_search("c21", n)
    assert (params["a"], params["b"]) == (3, 0)
    assert book.size == top


def test_pigeonhole_guard():
    # searches count without listing, so the limit itself is cheap to reach
    assert pigeonhole_search("vt", 24)[1].n == 24
    with pytest.raises(GuardLimit):
        pigeonhole_search("vt", 25)
    assert c31_param_search(24)[1].n == 24
    with pytest.raises(GuardLimit):
        c31_param_search(26)
    assert cts_param_search(24, 4, 2)[1].n == 24
    with pytest.raises(GuardLimit):
        cts_param_search(26, 4, 2)


def test_rows_are_built_once_per_shape():
    for shape in (("c21", 16), ("c31", 16), ("cts", 16, 4, 2)):
        assert shape_rows(*shape) is shape_rows(*shape)


LONG_ROW_SHAPES = (
    ("c21", 100_000), ("c21rll", 100_000), ("svt21", 100_000, 6), ("cts", 100_000, 4, 2),
    ("c31", 100_002),
)


@pytest.mark.parametrize("shape", LONG_ROW_SHAPES, ids=map(str, LONG_ROW_SHAPES))
def test_rows_hold_no_table_per_position(shape):
    # a row's increments are linear in the position, so its size does
    # not grow with the length
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = shape_rows(*shape)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rows and held < 64 * 1024, held


def contract_breaks(init, step, mods, m, lead, accepts):
    """Words of length m on which a row breaks what the packed search
    relies on: each step gives None or (int increment, rest as long as
    init), the increments add up to lead(x) mod mods[0], and the row
    leaves out exactly the words that accepts refuses."""
    breaks = []
    for x in all_words(m):
        res, rest = 0, init
        for pos, ch in enumerate(x, 1):
            t = step(rest, pos, int(ch))
            if t is None:
                break
            d, rest = t
            if not isinstance(d, int) or len(rest) != len(init):
                breaks.append(x)
                break
            res += d
        else:
            if not accepts(x) or (res - lead(x)) % mods[0]:
                breaks.append(x)
            continue
        if t is None and accepts(x):
            breaks.append(x)
    return breaks


CONTRACT_SHAPES = (
    [(fam, n, None, None) for fam in ("vt", "lev2", "c21", "c21rll") for n in range(1, 11)]
    + [("c21rll", n, None, f) for f in (1, 2) for n in range(1, 11)]
    + [("svt21", n, P, None) for P in range(1, 7) for n in range(1, 11)]
    + [("c31", n) for n in range(4, 11, 2)]
    + [
        ("cts", *shape)
        for shape in ((6, 2, 1), (8, 3, 1), (9, 4, 1), (12, 4, 2), (12, 6, 3), (14, 2, 1))
    ]
)


def shape_rows(kind, n, *extra):
    """FAMILIES' rows of kind at length n; extra is (t, s) for cts and
    (P, f), or nothing, for every other family."""
    t, s, P, f = (*extra, None, None) if kind == "cts" else (None, None, *extra, None, None)[:4]
    return FAMILIES[kind].rows(n, t, s, P, f)


@pytest.mark.parametrize("shape", CONTRACT_SHAPES, ids=map(str, CONTRACT_SHAPES))
def test_rows_keep_the_leading_residue_contract(shape):
    kind, n, *extra = shape
    rows = shape_rows(kind, n, *extra)
    m = n // len(rows)
    lead = rsyn0 if kind in ("lev2", "c31") else vt_syndrome
    cap = None
    if kind == "c21rll":
        cap = rll_max_run(n) if extra[1] is None else extra[1]
    for r, row in enumerate(dict.fromkeys(rows)):
        if kind == "cts":
            # row 1 alone carries the run cap
            cap = rll_max_run(m) if r == 0 else None
        accepts = (lambda x: True) if cap is None else (lambda x: rll_member(x, cap))
        assert contract_breaks(*row[:3], m, lead, accepts) == []


# c31 at n = 20 and 30, which 5 divides, keeps its unpacked row
LEAD_SHAPES = CONTRACT_SHAPES + [("c31", 20), ("c31", 30)]


@pytest.mark.parametrize("shape", LEAD_SHAPES, ids=map(str, LEAD_SHAPES))
def test_every_row_states_its_lead(shape):
    for row in dict.fromkeys(shape_rows(*shape)):
        assert isinstance(row, tuple) and len(row) == 4
        init, _, mods, lead = row
        assert isinstance(lead, tuple) and lead
        assert len(set(lead)) == len(lead)
        assert all(type(j) is int and 0 <= j < len(mods) for j in lead)
        assert all(math.gcd(mods[i], mods[j]) == 1 for i in lead for j in lead if i < j)
        # the rest's first entries fill the other places, in key order
        k = len(mods) - len(lead)
        assert len(init) >= k
        rest = tuple(range(100, 100 + len(init)))
        for r in range(3 * math.prod(mods[j] for j in lead)):
            key = codes._key(mods, lead, r, rest)
            assert [key[j] for j in lead] == [r % mods[j] for j in lead]
            assert tuple(v for j, v in enumerate(key) if j not in lead) == rest[:k]


def test_contract_check_catches_a_residue_read_by_the_rest():
    # a row that carries the VT sum in its rest and reads it back, giving
    # the running sum where the increment belongs
    def step(rest, i, b):
        vt = (rest[0] + i * b) % 5
        return vt, (vt, (rest[1] + b) % 4)

    assert contract_breaks((0, 0), step, (5, 4), 4, vt_syndrome, lambda x: True)
    # a row that leaves out a word the whole-word filter keeps: its run
    # cap of 1 refuses exactly the words with a run of two
    breaks = contract_breaks(*codes._weighted_row(5, 1)[:3], 4, vt_syndrome, lambda x: True)
    assert breaks == [x for x in all_words(4) if not rll_member(x, 1)]


COST_SHAPES = (("vt", 12, None, None), ("c21rll", 12, None, None), ("c31", 12), ("cts", 12, 4, 2))


@pytest.mark.parametrize("shape", COST_SHAPES, ids=map(str, COST_SHAPES))
def test_count_and_listing_each_step_every_reached_rest_once_per_bit(shape):
    kind, n, *extra = shape
    rows = shape_rows(kind, n, *extra)
    m = n // len(rows)
    h = m // 2
    # the count pass: 2 step calls per rest reached before each position;
    # the lister: 2 per rest reached before each position above h and 2
    # per prefix the row keeps before each position up to h; found here
    # by stepping the rests and the prefixes alone, per distinct row
    want = listing = 0
    for init, step, *_ in dict.fromkeys(rows):
        level, prefixes = {init}, [init]
        for pos in range(1, m + 1):
            want += 2 * len(level)
            listing += 2 * (len(level) if pos > h else len(prefixes))
            level = {t[1] for rest in level for b in (0, 1) if (t := step(rest, pos, b))}
            prefixes = [t[1] for rest in prefixes for b in (0, 1) if (t := step(rest, pos, b))]
    calls = [0]

    def counted(row):
        init, step, *spec = row

        def tally(rest, pos, bit):
            calls[0] += 1
            return step(rest, pos, bit)

        return init, tally, *spec

    wrapped = {row: counted(row) for row in dict.fromkeys(rows)}
    best, size, lister = codes._largest_bucket(n, tuple(wrapped[row] for row in rows))
    assert calls[0] == want
    members = lister()
    assert calls[0] == want + listing
    assert len(members) == size
    assert all(codes._in_bucket(x, n, rows, best) for x in members)


def test_pigeonhole_c21_at_the_guard_limit():
    n = 24
    params, book = pigeonhole_search("c21", n)
    assert book.size >= -(-(2**n) // (4 * 47))  # ceil(2^24/188) = 89,241
    assert all(x < y for x, y in zip(book.members, book.members[1:]))
    assert all(c21_member(x, params["a"], params["b"], n) for x in book.members)


def test_pigeonhole_svt21_needs_p():
    with pytest.raises(ValueError):
        pigeonhole_search("svt21", 6)
    for P in (0, -2):
        with pytest.raises(ValueError, match="window capacity P must be >= 1"):
            pigeonhole_search("svt21", 6, P=P)


def test_svt21_without_p_names_neither_search_nor_membership():
    for call in (lambda: svt21_member("0101", 0, 0, None), lambda: pigeonhole_search("svt21", 4)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "svt21 needs the window capacity P"


def test_pigeonhole_rejects_bad_caps_before_the_guard():
    for n in (6, 30):
        with pytest.raises(ValueError, match="run cap must be >= 1"):
            pigeonhole_search("c21rll", n, f=0)
        with pytest.raises(ValueError, match="window capacity P must be >= 1"):
            pigeonhole_search("svt21", n, P=0)
        with pytest.raises(ValueError, match="^vt does not read P$"):
            pigeonhole_search("vt", n, P=3)
        with pytest.raises(ValueError, match="^svt21 does not read f$"):
            pigeonhole_search("svt21", n, P=3, f=2)


def test_pigeonhole_unknown_family():
    with pytest.raises(ValueError):
        pigeonhole_search("hamming", 6)


def test_codebook_redundancy():
    book = Codebook("vt", 4, {"a": 0}, ("0000", "1001"))
    assert book.redundancy == 3.0
    assert "1001" in book
    d = book.to_dict()
    assert d["size"] == 2 and "members" not in d


def test_codebook_equality_and_repr():
    book = Codebook("vt", 4, {"a": 0}, ("0000", "1001"))
    assert book == Codebook("vt", 4, {"a": 0}, ("0000", "1001"))
    assert book != Codebook("vt", 4, {"a": 1}, ("0000", "1001"))
    assert book != ("0000", "1001")
    # a searched book lists its members before it compares them
    vt4 = ("0000", "0110", "1001", "1111")
    assert pigeonhole_search("vt", 4)[1] == Codebook("vt", 4, {"a": 0}, vt4)
    assert repr(book) == "Codebook(family='vt', n=4, params={'a': 0}, size=2)"


# ---------------------------------------------------------------- checks


def test_decode_outcome_is_a_frozen_value():
    out = DecodeOutcome("0110", SINGLE_DELETION, (2, 3))
    assert [f.name for f in dataclasses.fields(out)] == ["word", "classification", "window"]
    same = DecodeOutcome(word="0110", classification=SINGLE_DELETION, window=(2, 3))
    assert out == same and hash(out) == hash(same)
    assert out != DecodeOutcome("0110", SINGLE_DELETION, (2, 2))
    assert out != ("0110", SINGLE_DELETION, (2, 3))
    assert repr(out) == (
        "DecodeOutcome(word='0110', classification='single-deletion', window=(2, 3))"
    )
    assert dataclasses.replace(out, window=(1, 1)) == DecodeOutcome("0110", SINGLE_DELETION, (1, 1))
    for field in ("word", "window", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(out, field, "1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del out.word


@pytest.fixture
def check_word_calls(monkeypatch):
    """The words check_word is called on, counted in every package module
    that imports it."""
    calls = []
    real = words.check_word

    def counted(x, **kwargs):
        calls.append(x)
        return real(x, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "burstcodes" and getattr(module, "check_word", None) is real:
            monkeypatch.setattr(module, "check_word", counted)
    return calls


def decode_cases(n=12):
    """(name, received length, decode of y) for each decoder that needs no
    other word checked, with its searched params."""
    vt, _ = pigeonhole_search("vt", n)
    lev2, _ = pigeonhole_search("lev2", n)
    c21, _ = pigeonhole_search("c21", n)
    rll, _ = pigeonhole_search("c21rll", n)
    svt21, _ = pigeonhole_search("svt21", n, P=4)
    p31, _ = c31_param_search(n)
    pts, _ = cts_param_search(n, 4, 2)
    return [
        ("vt", n - 1, lambda y: vt_decode(y, vt["a"], n)),
        *((f"lev2-{n - m}", m, lambda y: lev2_decode(y, lev2["a"], n)) for m in (n, n - 1, n - 2)),
        ("c21", n - 1, lambda y: c21_decode(y, c21["a"], c21["b"], n)),
        ("c21rll", n - 1, lambda y: c21rll_decode(y, rll["a"], rll["b"], n)),
        ("svt21", n - 1, lambda y: svt21_decode(y, svt21["c"], svt21["d"], 4, (4, 7), n)),
        ("c31", n - 2, lambda y: c31.c31_decode(y, p31)),
        ("c31-trace", n - 2, lambda y: c31.c31_decode(y, p31, trace=True)),
        ("cts", n - 2, lambda y: cts.cts_decode(y, pts)),
        ("cts-trace", n - 2, lambda y: cts.cts_decode(y, pts, trace=True)),
    ]


@pytest.mark.parametrize("case", decode_cases(), ids=lambda case: case[0])
def test_each_decode_checks_the_received_word_once(case, check_word_calls):
    _, length, decode = case
    decoded = False
    for y in all_words(length):
        check_word_calls.clear()
        try:
            decode(y)
            decoded = True
        except DecodingError:
            pass
        assert check_word_calls == [y], y
    assert decoded


def test_each_member_test_checks_the_word_once(check_word_calls):
    x = "011010011100"
    for member in (
        lambda: vt_member(x, 0, 12),
        lambda: lev2_member(x, 0, 12),
        lambda: c21_member(x, 0, 0, 12),
        lambda: c21rll_member(x, 0, 0, 12),
        lambda: svt21_member(x, 0, 0, 4),
        lambda: c31.c31_member(x, c31.C31Params(12, 0, 0, 0, 0)),
        lambda: cts.cts_member(x, cts.CtsParams.derive(12, 4, 2, 0, 0, ((0, 0),))),
    ):
        check_word_calls.clear()
        member()
        assert check_word_calls == [x]
