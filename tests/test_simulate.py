"""Reproducible random trials and the pinned generator."""

import argparse
import re

import pytest

from burstcodes import codes
from burstcodes.codes import pigeonhole_search, rll_member
from burstcodes.cli import build_parser
from burstcodes.errors import DecodeFailure
from burstcodes.families import FAMILIES
from burstcodes.simulate import SimulationResult, SplitMix64, family_setup, simulate
from burstcodes.verify import verify_roundtrip

# Reference stream for seed 1234567, as published with the original
# C implementation of the mixer.
REFERENCE_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
)


def test_generator_known_answer():
    g = SplitMix64(1234567)
    assert tuple(g.next64() for _ in range(5)) == REFERENCE_1234567


def test_generator_seed_masked():
    assert SplitMix64(1 << 64).next64() == SplitMix64(0).next64()


def test_below_range_and_determinism():
    g = SplitMix64(42)
    draws = [g.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))
    g2 = SplitMix64(42)
    assert draws == [g2.below(10) for _ in range(1000)]


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_draws_past_64_bits_are_refused():
    # one 64-bit draw cannot cover a larger bound, whose rejection limit
    # would be 0; bounds up to 2^64 keep their stream
    g = SplitMix64(0)
    for bound in (2**64 + 1, 1 << 70):
        with pytest.raises(ValueError):
            g.below(bound)
    with pytest.raises(ValueError):
        g.word(65)
    ref = SplitMix64(0)
    assert g.below(1 << 64) == ref.next64()
    assert g.word(64) == format(ref.next64(), "064b")


def test_word_shape():
    g = SplitMix64(7)
    w = g.word(12)
    assert len(w) == 12 and set(w) <= {"0", "1"}
    assert g.word(0) == ""


@pytest.mark.parametrize(
    "family,n,kwargs",
    [
        ("c21", 8, {}),
        ("c31", 8, {}),
        ("cts", 8, {"t": 3, "s": 1}),
        ("cts", 8, {"t": 4, "s": 2}),
    ],
)
def test_simulate_all_trials_succeed(family, n, kwargs):
    res = simulate(family, n, 200, seed=99, **kwargs)
    assert res.successes == res.trials == 200
    assert res.failures == 0
    assert res.witnesses == []
    assert res.codebook_size >= 1


def test_simulate_deterministic():
    a = simulate("c31", 10, 500, seed=7)
    b = simulate("c31", 10, 500, seed=7)
    assert a.to_dict() == b.to_dict()


def test_simulate_seed_changes_stream():
    a = simulate("c21", 8, 50, seed=1)
    b = simulate("c21", 8, 50, seed=2)
    assert a.successes == b.successes == 50
    assert a.to_dict() != b.to_dict() or a.seed != b.seed


def test_simulate_validates_arguments():
    with pytest.raises(ValueError):
        simulate("cts", 8, 10, seed=0)  # t, s required
    with pytest.raises(ValueError):
        simulate("nope", 8, 10, seed=0)
    with pytest.raises(ValueError):
        simulate("c21", 8, -1, seed=0)


@pytest.mark.parametrize(
    "family, msg",
    [
        ("svt21", "svt21 decodes only inside a given window"),
        ("nope", "unknown family 'nope'"),
    ],
)
def test_family_setup_says_why_it_refuses_a_family(family, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        family_setup(family, 12)


def test_family_setup_passes_the_run_cap_to_the_search():
    t, s, params, book, decode = family_setup("c21rll", 10, f=2)
    assert params == pigeonhole_search("c21rll", 10, f=2)[0]
    assert params["f"] == 2 and all(rll_member(x, 2) for x in book.members)
    assert verify_roundtrip(book.members, t, s, decode).verdict
    assert simulate("c21rll", 10, 40, seed=5, f=2).params == params
    with pytest.raises(ValueError, match="^vt does not read f$"):
        family_setup("vt", 8, f=2)


def _family_choices(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == "family")


# the families verify and simulate offer, read from the parser
OFFERED = _family_choices("simulate")


def test_verify_and_simulate_offer_the_same_families():
    assert _family_choices("verify") == OFFERED
    assert set(OFFERED) == set(FAMILIES) - {"svt21"}


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("family", OFFERED)
def test_every_offered_family_decodes_its_whole_book(family, n):
    # a family whose burst --t and --s choose is tried at (3, 1)
    t, s, _, book, decode = family_setup(family, n, *(FAMILIES[family].burst or (3, 1)))
    rep = verify_roundtrip(book.members, t, s, decode)
    assert rep.verdict, rep.witness
    assert rep.counts["codewords"] == book.size


def test_result_dict_shape():
    res = simulate("c21", 8, 10, seed=3)
    d = res.to_dict()
    assert d["family"] == "c21"
    assert d["t"] == 2 and d["s"] == 1
    assert d["trials"] == 10
    assert "elapsed" not in " ".join(d)
    assert isinstance(res, SimulationResult)


def test_failures_keep_at_most_ten_replayable_witnesses(monkeypatch):
    # every searched code decodes its bursts, so the decoder is made to fail
    def fail(y, a, b, n):
        raise DecodeFailure("no candidate")

    monkeypatch.setattr(codes, "c21_decode", fail)
    res = simulate("c21", 8, 25, seed=3)
    assert (res.successes, res.failures) == (0, 25)
    assert len(res.witnesses) == 10
    for w in res.witnesses:
        assert set(w) == {"codeword", "start", "inserted", "decoded"}
        assert w["decoded"] == "DecodeFailure: no candidate"
        assert len(w["inserted"]) == 1 and 1 <= w["start"] <= 7
    assert res.to_dict()["failures"] == 25
