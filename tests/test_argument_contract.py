"""Every argument rule ends a call in a result or a refusal.

Burst sizes, lengths, capacities, run caps, counts and window bounds
are drawn from ints in -3..24, whole and fractional floats, and bools,
and fed to each public entry point that checks them and to the member,
search and decode subcommands; syndrome values also take None and
strs.  A seeded fuzz runs random flags and words through every
subcommand, family and check, and a second one sets only options in
range, so that each of those reaches its verdict.  A call must return,
or raise ValueError, DecodingError or GuardLimit (exit 0-3 through the
command line); any other exception is a rule that is missing.  A command
that exits 2 or 3 prints nothing on stdout, in the CLI oracle and in the
fuzzes, which also run bounds past the int-to-string limit.  Sizes that
enumerate 2^s inserts, ball-law sweeps and simulated books stay small,
since a valid large one only costs time.  The cache sequence these
rules closed is pinned after the property tests.
"""

import argparse
import contextlib
import io
import json
import random
import re
from pathlib import Path

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
from burstcodes.cli import build_parser, main
from burstcodes.errors import DecodingError, GuardLimit
from burstcodes.families import FAMILIES
from burstcodes.simulate import SplitMix64, family_setup, simulate
from burstcodes.verify import (
    bound_report,
    verify_ball_laws,
    verify_disjoint,
    verify_equivalence,
    verify_roundtrip,
)
from burstcodes.words import all_words, deinterleave, interleave, vt_syndrome


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
# a scalar of no number type at all
NOT_A_NUMBER = st.none() | st.text("01a", max_size=2)
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
@given(n=st.integers(1, 6) | numbers(hi=6) | numbers(lo=15),
       t_max=SMALL | NOT_A_NUMBER, s_max=SMALL | NOT_A_NUMBER)
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
    ends_well(codes.c21rll_decode, x, 0, 0, n, f)
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


# a syndrome value: any int, or a float, bool, None or str, each refused
SYNDROME = numbers() | st.none() | st.text("0123z", max_size=2)


@QUICK
@given(x=WORD, n=st.integers(1, 12), a=SYNDROME, b=SYNDROME, c=SYNDROME, d=SYNDROME,
       lo=st.integers(-3, 12), hi=st.integers(-3, 12))
def test_syndrome_rules(x, n, a, b, c, d, lo, hi):
    for call, *args in (
        (codes.vt_member, x, a, n),
        (codes.lev2_member, x, a, n),
        (codes.c21_member, x, a, b, n),
        (codes.c21rll_member, x, a, b, n),
        (codes.svt21_member, x, c, d, n),
        (codes.vt_decode, x, a, n),
        (codes.lev2_decode, x, a, n),
        (codes.c21_decode, x, a, b, n),
        (codes.svt21_decode, x, c, d, 3, (lo, hi), n),
        (lambda: c31.c31_member(x, c31.C31Params(8, a, b, c, d)),),
        (lambda: cts.cts_member(x, cts.CtsParams.derive(12, 4, 1, a, b, ((c, d), (0, 0)))),),
    ):
        ends_well(call, *args)


SYNDROME_CALLS = {
    "vt_member": lambda v: codes.vt_member("0110", v, 4),
    "lev2_member": lambda v: codes.lev2_member("0110", v, 4),
    "c21_member": lambda v: codes.c21_member("0110", 0, v, 4),
    "c21rll_member": lambda v: codes.c21rll_member("101", v, 7, 3),
    "svt21_member": lambda v: codes.svt21_member("0110", v, 0, 3),
    "vt_decode": lambda v: codes.vt_decode("011", v, 4),
    "lev2_decode": lambda v: codes.lev2_decode("11010", v, 6),
    "c21_decode": lambda v: codes.c21_decode("011001", 3, v, 7),
    "svt21_decode": lambda v: codes.svt21_decode("010111", 0, v, 3, (2, 4), 7),
    "C31Params": lambda v: c31.C31Params(8, v, 2, 2, 4),
    "CtsParams": lambda v: cts.CtsParams.derive(15, 4, 1, v, 3, ((7, 2), (10, 0))),
    "CtsParams-row": lambda v: cts.CtsParams.derive(15, 4, 1, 1, 3, ((7, 2), (10, v))),
}


@pytest.mark.parametrize("value", [1.5, 1.0, True, False, None, "3", "zz"], ids=repr)
@pytest.mark.parametrize("call", SYNDROME_CALLS.values(), ids=list(SYNDROME_CALLS))
def test_syndrome_values_must_be_ints(call, value):
    msg = f"syndrome values must be ints, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: cts.CtsParams.derive(15, 4, 1, 0, 3, ((0, 0, 5), (0, 0))), "((0, 0, 5), (0, 0))"),
        (lambda: cts.CtsParams.derive(15, 4, 1, 0, 3, ((0,), (0, 0))), "((0,), (0, 0))"),
        (lambda: cts.CtsParams.derive(15, 4, 1, 1, 3, (7, 2)), "(7, 2)"),
        (lambda: cts.CtsParams(15, 4, 1, 1, 3, [(0, 0), (0, 0)]), "[(0, 0), (0, 0)]"),
    ],
    ids=["a-triple", "a-single", "ints", "a-list"],
)
def test_cts_row_params_must_be_a_tuple_of_pairs(call, shown):
    msg = f"row_params must be a tuple of (c, d) pairs, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call()


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: cts.cts_decode("0" * 9, None), "a CtsParams, got None"),
        (lambda: cts.cts_member("0" * 6, {"n": 6}), "a CtsParams, got {'n': 6}"),
        (lambda: c31.c31_decode("0" * 6, None), "a C31Params, got None"),
        (lambda: c31.c31_member("0" * 8, (8, 0, 0, 0, 0)), "a C31Params, got (8, 0, 0, 0, 0)"),
        (lambda: c31.classify_31("0" * 6, (4, 1, 1, 1, 1)), "a C31Params, got (4, 1, 1, 1, 1)"),
        (lambda: c31.c31_decode("0" * 10, cts.CtsParams.derive(12, 4, 2, 0, 0, ((0, 0),))),
         "a C31Params, got CtsParams(n=12, t=4, s=2, a=0, b=0, row_params=((0, 0),))"),
    ],
    ids=["cts_decode-None", "cts_member-dict", "c31_decode-None", "c31_member-tuple",
         "classify_31-tuple", "c31_decode-CtsParams"],
)
def test_params_of_the_wrong_kind_are_refused(call, shown):
    with pytest.raises(ValueError, match=f"^{re.escape('params must be ' + shown)}$"):
        call()


def test_a_construction_length_must_be_an_int():
    with pytest.raises(ValueError, match="^length must be an int$"):
        cts.cts_param_search("8", 4, 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(("vt", "lev2", "c21", "c31", "cts")),
    n=st.integers(4, 12) | numbers(hi=12), trials=NUMBER,
    t=SMALL | NOT_A_NUMBER, s=SMALL | NOT_A_NUMBER,
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


# every subcommand, each family and check it takes, and its flags, read
# from the parser; values stay small, since a valid large one only costs
# time, and one in twenty is malformed; most runs set --n, which every
# family subcommand but member needs
MALFORMED = ["1.5", "x", "", "2..6", "0,0"]


def _subcommands():
    """(subcommand, leading positionals, {flag: nargs}, takes words) per
    family and check."""
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        choices, flags = [[]], {}
        for action in parser._actions:
            if action.option_strings:
                if "--help" not in action.option_strings:
                    flags[action.option_strings[0]] = action.nargs
            elif action.choices:
                # an optional positional may also be left out
                values = [*action.choices, *[None] * (action.nargs == "?")]
                choices = [head + [c] * (c is not None) for head in choices for c in values]
        takes_words = any(action.dest == "words" for action in parser._actions)
        for head in choices:
            yield name, head, flags, takes_words


def _value(rng, flag):
    if rng.random() < 0.05:
        return rng.choice(MALFORMED)
    if flag in ("--params", "--window"):
        count = rng.randint(1, 6) if flag == "--params" else 2
        return ",".join(str(rng.randint(-1, 8)) for _ in range(count))
    return str(rng.randint(-1, 8))


def _random_argv(rng, name, head, flags, takes_words, missing):
    argv = [name, *head]
    for flag, nargs in flags.items():
        if rng.random() >= {"--file": 0.05, "--n": 0.9}.get(flag, 0.3):
            continue
        if flag == "--file":
            argv += [flag, str(missing)]
        elif nargs == 0:
            argv.append(flag)
        elif nargs == 2:
            argv += [flag, _value(rng, flag), _value(rng, flag)]
        else:
            # joined, so that a value such as -1,5 is not read as a flag
            argv.append(f"{flag}={_value(rng, flag)}")
    for _ in range(rng.randint(0, 2) if takes_words else 0):
        word = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        argv.append(word if rng.random() < 0.9 else word + "2")
    return argv


# past Python's default int-to-string limit of 4,300 digits, the bound at
# the first two n's has too many digits to print; the rest name lengths,
# ranges or run caps too large to build anything of their size from
PINNED_ARGV = (
    ["bounds", "--t", "2", "--s", "1", "--n", "14300"],
    ["bounds", "--t", "2", "--s", "1", "--n", "14298..14302", "--json"],
    ["bounds", "--t", "2", "--s", "1", "--n", "1000000000000"],
    ["bounds", "--t", "1000000000000", "--s", "1", "--n", "1..1000000000000", "--json"],
    ["verify", "ball-laws", "--n-max", "100000000000"],
    ["decode", "cts", "--t", "4", "--s", "2", "--n", "100000000000", "--params", "1,2,3,4", "0101"],
    ["decode", "c21rll", "--n", "8", "--f", "100000000000", "--params", "3,0", "0101010"],
    ["verify", "roundtrip", "c21rll", "--n", "8", "--f", "100000000000"],
    ["simulate", "c21rll", "--n", "8", "--f", "100000000000"],
    ["ball", "011", "--t", "1", "--s", "5"],
)


def ends_in_an_exit_code(argv) -> tuple[int, str]:
    """Run the command line on argv; it must exit 0-3 with no traceback,
    and a refusal (exit 2 or 3) must print nothing on stdout.  Returns
    the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # any escape is the finding
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert code < 2 or out.getvalue() == "", (argv, out.getvalue()[:200])
    return code, out.getvalue()


def test_cli_fuzz_ends_in_an_exit_code(tmp_path):
    rng = random.Random(2022)
    combos = list(_subcommands())
    for i in range(20 * len(combos)):
        ends_in_an_exit_code(_random_argv(rng, *combos[i % len(combos)], tmp_path / "missing.txt"))
    for argv in PINNED_ARGV:
        ends_in_an_exit_code(argv)


def test_a_refusal_prints_nothing_on_stdout():
    """Every recorded exit 2 or 3 leaves stdout empty, as the fuzzes
    check of theirs; no exception is known."""
    records = json.loads((Path(__file__).with_name("cli_oracle.json")).read_text())["records"]
    refusals = [r for r in records if r["exit"] in (2, 3)]
    assert len(refusals) == 51
    assert [r["name"] for r in refusals if r["stdout"]] == []


# the --params count of a family at burst (t, s)
def _param_count(family, t, s):
    return {"vt": 1, "lev2": 1, "c31": 4, "cts": 2 * (t - s)}.get(family, 2)


def _valid_argv(rng, name, head, flags, takes_words):
    """An argv for one combination that sets, of the family options,
    only those its family reads or needs, plus --n and --params (none
    for verify ball-laws, which reads none); each
    value is in range and the words have the length the subcommand
    takes.  Each of the subcommand's own options is set half the time."""
    family = next((h for h in head if h in FAMILIES), None)
    if family == "cts":
        t, s = rng.choice([(3, 1), (4, 1), (4, 2), (5, 2)])
        n = (t - s) * rng.randint(2, 12 // (t - s))
    else:
        t, s = FAMILIES[family].burst if family else (rng.randint(1, 3), rng.randint(1, 3))
        n = 2 * rng.randint(2, 6) if family == "c31" else rng.randint(4, 10)
    P, lo = rng.randint(1, n), rng.randint(1, n - 1)
    params = [rng.randint(0, 2 * n) for _ in range(_param_count(family, t, s))]
    values = {
        "--t": t, "--s": s, "--n": n, "--P": P, "--f": rng.randint(1, n),
        "--window": f"{lo},{min(lo + rng.randint(0, P - 1), n - 1)}",
        "--params": ",".join(map(str, params)),
        "--refined": (rng.randint(0, 3), rng.randint(0, 3)),
        "--trials": rng.randint(1, 20), "--seed": rng.randint(0, 99),
        "--n-max": rng.randint(2, 6), "--t-max": rng.randint(1, 3), "--s-max": rng.randint(1, 3),
    }
    family_options = {"--t", "--s", "--n", "--P", "--f", "--window", "--params"}
    if head[:1] == ["ball-laws"]:
        chosen = set()
    elif family is None:
        chosen = {"--t", "--s", "--n"}
    else:
        fam = FAMILIES[family]
        chosen = {"--n", "--params", *(f"--{o}" for o in fam.reads + fam.needs)}
    argv = [name, *head]
    for flag, nargs in flags.items():
        if flag in family_options and flag not in chosen:
            continue
        if flag == "--file" or flag not in family_options and rng.random() < 0.5:
            continue
        if nargs == 0:
            argv.append(flag)
        elif nargs == 2:
            argv += [flag, *map(str, values[flag])]
        else:
            argv.append(f"{flag}={values[flag]}")
    length = {"member": n, "decode": n - t + s}.get(name, rng.randint(4, 10))
    for _ in range(rng.randint(1, 2) if takes_words else 0):
        argv.append("".join(rng.choice("01") for _ in range(length)))
    return argv


def _reaches_a_verdict(name, head, *_):
    """Whether a valid argv for the combination can exit 0 or 1."""
    if name != "verify":
        return True
    check, family = head[0], (head[1:] or [None])[0]
    if (check == "ball-laws") == (family is not None):
        return False
    # the packing ceiling needs s >= 1, which a family with s = 0 never has
    burst = family and FAMILIES[family].burst
    return not (check == "bound" and burst and burst[1] == 0)


def test_cli_fuzz_with_valid_options_reaches_every_command():
    """Every family, check and subcommand gets past its argument checks
    to a verdict: each combination exits 0 or 1 at least once.  A
    verify check other than ball-laws without a family, ball-laws with
    one, and bound on a family whose burst has s = 0 (vt, lev2) always
    exit 2, so those combinations are left to the fuzz above."""
    rng = random.Random(2022)
    combos = [c for c in _subcommands() if _reaches_a_verdict(*c)]
    verdict = set()
    for i in range(8 * len(combos)):
        code, _ = ends_in_an_exit_code(_valid_argv(rng, *combos[i % len(combos)]))
        if code in (0, 1):
            verdict.add(i % len(combos))
    assert [combos[i][:2] for i in range(len(combos)) if i not in verdict] == []


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


# a row-1 outcome for column_window
OUTCOME = codes.DecodeOutcome("0110", codes.SINGLE_DELETION, (2, 3))


# each of these once ended in TypeError, AttributeError or a result: the
# sweep took min(t_max, s_max), family_setup compared n with t before
# either was known to be an int, the checks over a book iterated it,
# the roundtrip called decode, FAMILIES hashed the family, the helpers
# read attributes off their object, and the window rules took any s
@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda: verify_ball_laws([4], None, 1), "burst sizes must be ints, got None"),
        (lambda: verify_ball_laws([4], 2, "a"), "burst sizes must be ints, got 'a'"),
        (lambda: family_setup("cts", 8, "a", 2), "burst sizes must be ints, got 'a'"),
        (lambda: simulate("cts", 8, 5, 1, t="a", s=2), "burst sizes must be ints, got 'a'"),
        (lambda: SplitMix64(1).word(None), "word length must be an int >= 0, got None"),
        (lambda: SplitMix64(1).word(1.5), "word length must be an int >= 0, got 1.5"),
        (lambda: SplitMix64(1).word(-1), "word length must be an int >= 0, got -1"),
        (lambda: verify_disjoint(None, 1, 1), "codewords must be an iterable of words, got None"),
        (lambda: verify_roundtrip(None, 1, 1, str),
         "codewords must be an iterable of words, got None"),
        (lambda: verify_equivalence(None, 1, 1),
         "codewords must be an iterable of words, got None"),
        (lambda: bound_report(None, 4, 1, 1), "codewords must be an iterable of words, got None"),
        (lambda: verify_ball_laws(None),
         "ball-law sweep lengths must be an iterable of ints, got None"),
        (lambda: verify_ball_laws(5), "ball-law sweep lengths must be an iterable of ints, got 5"),
        (lambda: verify_roundtrip(["0101"], 1, 0, None), "decode must be callable, got None"),
        (lambda: family_setup([], 8), "unknown family []"),
        (lambda: simulate([], 8, 5, 1), "unknown family []"),
        (lambda: apply_burst("0101", None), "spec must be a BurstSpec, got None"),
        (lambda: cts.column_window(None, 1, 4), "outcome must be a DecodeOutcome, got None"),
        (lambda: cts.column_window(OUTCOME, 1.5, 4),
         "insertion count s must be an int >= 1, got 1.5"),
        (lambda: cts.column_window(OUTCOME, 1, 1.0), "row length m must be an int >= 2, got 1.0"),
        (lambda: cts.window_capacity(4, 0), "insertion count s must be an int >= 1, got 0"),
        (lambda: cts.window_capacity(4, 1.5), "insertion count s must be an int >= 1, got 1.5"),
        (lambda: cts.window_capacity(4, None), "insertion count s must be an int >= 1, got None"),
        (lambda: cts.CtsParams.derive(16, 4, 2, 1, 2, None),
         "row_params must be a tuple of (c, d) pairs, got None"),
        (lambda: deinterleave(None), "rows must be an iterable of words, got None"),
        (lambda: deinterleave([1, 2]), "row must be a str of '0'/'1', got int"),
    ],
    ids=["ball-laws-None", "ball-laws-str", "family_setup-str", "simulate-str",
         "word-None", "word-float", "word-negative",
         "disjoint-None", "roundtrip-None", "equivalence-None", "bound-None",
         "ball-laws-lengths-None", "ball-laws-lengths-int", "roundtrip-decode-None",
         "family_setup-list", "simulate-list", "apply_burst-None", "column_window-None",
         "column_window-float-s", "column_window-float-m", "window_capacity-0",
         "window_capacity-float", "window_capacity-None", "derive-None",
         "deinterleave-None", "deinterleave-ints"],
)
def test_a_scalar_of_the_wrong_type_is_refused(call, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        call()
