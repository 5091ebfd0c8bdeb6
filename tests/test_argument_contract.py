"""Every argument rule ends a call in a result or a refusal.

Burst sizes, lengths, capacities, run caps, counts and window bounds
are drawn from ints in -3..24, whole and fractional floats, and bools,
and fed to each public entry point that checks them and to the member,
search and decode subcommands.  A call must return, or raise
ValueError, DecodingError or GuardLimit (exit 0-3 through the command
line); any other exception is a rule that is missing.  Sizes that
enumerate 2^s inserts, ball-law sweeps and simulated books stay small,
since a valid large one only costs time.  The cache sequence these
rules closed is pinned after the property tests.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstcodes import c31, codes, cts
from burstcodes.channel import (
    BurstSpec,
    apply_burst,
    ball,
    ball_size_formula,
    refined_ball,
    refined_ball_size,
    sphere_packing_bound,
)
from burstcodes.cli import main
from burstcodes.errors import DecodingError, GuardLimit
from burstcodes.families import FAMILIES
from burstcodes.simulate import SplitMix64, simulate
from burstcodes.verify import verify_ball_laws, verify_roundtrip
from burstcodes.words import all_words, interleave, vt_syndrome


def numbers(lo: int = -3, hi: int = 24):
    """Ints in lo..hi, the same as whole floats, fractional floats, bools."""
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi).map(float),
        st.floats(lo, hi).filter(lambda v: not v.is_integer()),
        st.booleans(),
    )


NUMBER = numbers()
SMALL = numbers(hi=5)
OPTIONAL = st.none() | NUMBER
WORD = st.text("01", max_size=10)
QUICK = settings(max_examples=60, deadline=None, derandomize=True)


def ends_well(call, *args, **kwargs) -> None:
    """Run call; a result or an expected refusal passes, anything else raises."""
    with contextlib.suppress(ValueError, DecodingError, GuardLimit):
        call(*args, **kwargs)


@QUICK
@given(x=WORD, t=SMALL, s=SMALL, n=NUMBER, start=NUMBER, raw=st.booleans(), big=NUMBER)
def test_channel_rules(x, t, s, n, start, raw, big):
    ends_well(lambda: apply_burst(x, BurstSpec(t, s, start, x[:3])))
    for fn in (ball, refined_ball, refined_ball_size):
        ends_well(fn, x, t, s)
    ends_well(ball_size_formula, n, big, s)
    ends_well(sphere_packing_bound, n, big, s, raw=raw)
    ends_well(verify_roundtrip, [x], t, s, lambda y: y)


@QUICK
@given(n=st.integers(1, 6) | numbers(hi=6) | numbers(lo=15), t_max=SMALL, s_max=SMALL)
def test_ball_law_rules(n, t_max, s_max):
    ends_well(verify_ball_laws, [n], t_max, s_max)


@QUICK
@given(
    family=st.sampled_from(codes._ROW_FAMILIES),
    x=WORD, n=NUMBER, P=OPTIONAL, f=OPTIONAL, lo=NUMBER, hi=NUMBER,
)
def test_code_rules(family, x, n, P, f, lo, hi):
    ends_well(codes.pigeonhole_search, family, n, P=P, f=f)
    ends_well(codes.vt_member, x, 0, n)
    ends_well(codes.lev2_member, x, 0, n)
    ends_well(codes.c21_member, x, 0, 0, n)
    ends_well(codes.c21rll_member, x, 0, 0, n, f)
    ends_well(codes.svt21_member, x, 0, 0, P)
    ends_well(codes.vt_decode, x, 0, n)
    ends_well(codes.lev2_decode, x, 0, n)
    ends_well(codes.c21_decode, x, 0, 0, n)
    ends_well(codes.svt21_decode, x, 0, 0, P, (lo, hi), n)
    ends_well(codes.rll_max_run, n)
    ends_well(codes.rll_member, x, f)


@QUICK
@given(x=WORD, n=NUMBER, t=NUMBER, s=NUMBER, k=NUMBER)
def test_construction_and_word_rules(x, n, t, s, k):
    ends_well(c31.c31_param_search, n)
    ends_well(c31.C31Params, n, 0, 0, 0, 0)
    ends_well(cts.cts_param_search, n, t, s)
    ends_well(cts.CtsParams.derive, n, t, s, 0, 0)
    ends_well(interleave, x, k)
    ends_well(next, all_words(n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(("c21", "c31", "cts")),
    n=st.integers(4, 12) | numbers(hi=12), trials=NUMBER,
    t=st.none() | SMALL, s=st.none() | SMALL,
)
def test_simulate_rules(family, n, trials, t, s):
    ends_well(simulate, family, n, trials, 0, t=t, s=s)


def option_text():
    return st.one_of(st.integers(-3, 24).map(str), st.sampled_from(["1.5", "2.0", "True"]))


@QUICK
@given(
    command=st.sampled_from(("member", "search", "decode")),
    family=st.sampled_from(list(FAMILIES)),
    word=st.text("01", min_size=1, max_size=10),
    params=st.sampled_from(["0", "0,0", "0,0,0,0", "1,3,7,2,10,0"]),
    options=st.dictionaries(st.sampled_from(["--n", "--P", "--f", "--t", "--s"]), option_text()),
    window=st.none() | st.tuples(st.integers(-3, 24), st.integers(-3, 24)),
)
def test_cli_rules(command, family, word, params, options, window):
    argv = [command, family, *(part for pair in options.items() for part in pair)]
    if command != "search":
        argv += ["--params", params, word]
    if window is not None:
        argv += ["--window", "{},{}".format(*window)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


# ------------------------------------------------------------------ pinned


def test_a_float_that_equals_an_int_leaves_every_cache_clean():
    vt8 = [x for x in all_words(8) if vt_syndrome(x) % 9 == 0]
    for bad in (
        lambda: codes.pigeonhole_search("vt", 8.0),
        lambda: codes.vt_member("0" * 8, 0, 8.0),
        lambda: codes.svt21_member("0" * 8, 0, 0, 3.0),
        lambda: codes.c21rll_member("0" * 8, 0, 0, 8, 2.0),
        lambda: c31.c31_param_search(8.0),
        lambda: cts.cts_param_search(12.0, 4, 1),
    ):
        with pytest.raises(ValueError):
            bad()
        params, book = codes.pigeonhole_search("vt", 8)
        assert (params, book.members) == ({"a": 0}, tuple(vt8))
        assert codes.pigeonhole_search("svt21", 8, P=3)[1].size == 15
        assert codes.pigeonhole_search("c21rll", 8, f=2)[1].params == {"a": 3, "b": 0, "f": 2}
        assert c31.c31_param_search(8)[1].size == 2
        assert cts.cts_param_search(12, 4, 1)[1].size == 8


@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda: simulate("c21", 8, 10, 1.5), "seed must be an int, got 1.5"),
        (lambda: SplitMix64(True), "seed must be an int, got True"),
        (lambda: codes.svt21_decode("0" * 7, 0, 0, 3, None, 8),
         "window must be a pair (lo, hi), got None"),
        (lambda: codes.svt21_decode("0" * 7, 0, 0, 3, (1, 2, 3), 8),
         "window must be a pair (lo, hi), got (1, 2, 3)"),
    ],
    ids=["simulate-float-seed", "bool-seed", "no-window", "three-bound-window"],
)
def test_a_seed_or_window_of_the_wrong_kind_is_refused(call, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call()
