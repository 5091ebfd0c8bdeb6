"""The package's public names: each module's __all__, listed once.

burstcodes exports exactly the names its modules list in __all__, plus
__version__.  The names the package exported before it derived its list
from the modules are pinned here, by module, so none of them can drop
out or come to mean another object.
"""

import argparse
import importlib
from collections import Counter

import burstcodes
from burstcodes.cli import _BOOK_CHECKS, build_parser

# by module, since burstcodes.simulate is the function of that name
MODULES = {
    name: importlib.import_module(f"burstcodes.{name}")
    for name in ("c31", "channel", "codes", "cts", "errors", "simulate", "verify", "words")
}

# every name the hand-kept package list held, by the module it comes from
PINNED = {
    "c31": ["C31Params", "C31Trace", "c31_decode", "c31_member", "c31_param_search",
            "classify_31"],
    "channel": ["Ball", "BurstSpec", "apply_burst", "ball", "ball_size_formula",
                "refined_ball", "refined_ball_size", "sphere_packing_bound"],
    "codes": ["Codebook", "DecodeOutcome", "c21_decode", "c21_member", "c21rll_member",
              "lev2_decode", "lev2_member", "max_run_length", "pigeonhole_search",
              "rll_max_run", "rll_member", "svt21_decode", "svt21_member", "vt_decode",
              "vt_member"],
    "cts": ["CtsParams", "CtsTrace", "column_window", "cts_decode", "cts_member",
            "cts_param_search", "window_capacity"],
    "errors": ["DecodeAmbiguity", "DecodeFailure", "DecodingError", "DivisibilityError",
               "GuardLimit"],
    "simulate": ["SimulationResult", "SplitMix64", "family_setup", "simulate"],
    "verify": ["VerificationReport", "bound_report", "verify_ball_laws", "verify_disjoint",
               "verify_equivalence", "verify_roundtrip"],
    "words": ["all_words", "deinterleave", "interleave", "run_count", "run_profile", "rsyn0",
              "vt_syndrome", "weights"],
}

# the names the modules listed that the package had not exported, then
# the names added since
ADDED = {
    "OUTPUT_GUARD", "DEFAULT_ENUM_GUARD", "BALL_LAW_GUARD",
    "NO_ERROR", "SINGLE_DELETION", "TWO_BURST_DELETION", "MERGE_00_TO_1", "MERGE_11_TO_0",
    "PATTERN_000_TO_1", "PATTERN_010_TO_1", "PATTERN_111_TO_0", "PATTERN_101_TO_0",
    "check_word", "RunProfile", "Weights",
    "c21rll_decode",
}


def test_the_package_exports_exactly_its_modules_names():
    listed = [name for module in MODULES.values() for name in module.__all__]
    assert burstcodes.__all__ == listed + ["__version__"]
    assert [name for name, count in Counter(listed).items() if count > 1] == []
    for module in MODULES.values():
        for name in module.__all__:
            assert getattr(burstcodes, name) is getattr(module, name), name


def test_every_earlier_name_is_the_same_object():
    pinned = [name for names in PINNED.values() for name in names]
    assert len(pinned) + 1 == 60  # and __version__
    for module, names in PINNED.items():
        for name in names:
            assert getattr(burstcodes, name) is getattr(MODULES[module], name)
    assert burstcodes.__version__ == "0.1.0"
    assert set(burstcodes.__all__) == set(pinned) | ADDED | {"__version__"}


def test_simulate_is_the_function_and_the_checks_are_modules():
    assert burstcodes.simulate is MODULES["simulate"].simulate
    for name in ("c31", "codes", "cts", "verify"):
        assert getattr(burstcodes, name) is MODULES[name]


def test_the_verify_choices_come_from_the_check_table():
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    check = next(a for a in sub.choices["verify"]._actions if a.dest == "check")
    assert tuple(check.choices) == ("ball-laws", *_BOOK_CHECKS)
    assert list(_BOOK_CHECKS) == ["disjoint", "roundtrip", "equivalence", "bound"]
