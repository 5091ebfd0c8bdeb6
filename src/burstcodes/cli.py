"""Command line front door.

Subcommands: ball, member, decode, search, verify, bounds, simulate.
Words are ASCII bitstrings, given positionally or via --file (one per
line); coordinates in output are 1-based.  Exit codes: 0 success,
1 negative verdict or decode failure (witness on stderr), 2 usage or
domain error, 3 enumeration-guard refusal.

Output is deterministic: identical invocations print identical bytes,
so report lines carry no timings and all sets are sorted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import asdict

from . import c31, cts
from .channel import ball, ball_size_formula, refined_ball, refined_ball_size, sphere_packing_bound
from .errors import DecodingError, GuardLimit
from .families import FAMILIES, _outcome
from .simulate import family_setup, simulate
from .verify import (
    bound_report,
    verify_ball_laws,
    verify_disjoint,
    verify_equivalence,
    verify_roundtrip,
)
from .words import _check_int, check_word

__all__ = ["main"]


def _parse_params(text: str | None) -> list[int]:
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"--params must be comma-separated integers, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--window must be lo,hi, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_n_range(text: str) -> range:
    """'12' or '8..16', inclusive."""
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = int(lo), int(hi)
    _check_int(hi, lo, "empty range {!r}", text)
    return range(lo, hi + 1)


def _gather_words(args) -> list[str]:
    words = list(args.words)
    if getattr(args, "file", None):
        with open(args.file) as fh:
            words.extend(line.strip() for line in fh if line.strip())
    if not words:
        raise ValueError("no input words (give them positionally or via --file)")
    for w in words:
        check_word(w)
    return words


def _need(args, *names):
    """Require each named option that the subcommand offers."""
    for name in names:
        if name in vars(args) and getattr(args, name) is None:
            raise ValueError(f"--{name} is required here")


def _family(args, *names):
    """The family the command names, once it is given no option it does
    not read and every option it needs, and --t/--s ask for the burst it
    corrects."""
    fam = FAMILIES[args.family]
    fam.check_reads(args.family, "--", **{o: getattr(args, o, None) for o in ("P", "f", "window")})
    _need(args, *names, *fam.needs)
    fam.burst_for(args.family, args.t, args.s)
    return fam


def _emit(obj, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------- ball


def cmd_ball(args) -> int:
    words = _gather_words(args)
    if args.refined is None:
        _need(args, "t", "s")
    for x in words:
        if args.refined is not None:
            k, l = args.refined
            kind, sizes = "refined ball", {"k": k, "l": l}
            b, formula = refined_ball(x, k, l), refined_ball_size(x, k, l)
        else:
            kind, sizes = "ball", {"t": args.t, "s": args.s}
            # with no insert the full ball is the refined (t, 0)-ball
            b, formula = ball(x, args.t, args.s), (
                ball_size_formula(len(x), args.t, args.s) if args.s
                else refined_ball_size(x, args.t, 0))
        payload = {"center": x, **sizes, "size": b.size, "formula": formula,
                   "members": list(b.members)}
        shown = " ".join(f"{key}={val}" for key, val in sizes.items())
        verdict = "match" if formula == b.size else "MISMATCH"
        head = f"{kind} {shown}: size {b.size}, formula {formula}, {verdict}"
        _emit(payload, args.json, [f"center {x} n={len(x)}", head, *b.members])
    return 0


# -------------------------------------------------------------- member


def cmd_member(args) -> int:
    words = _gather_words(args)
    all_in = True
    for x in words:
        n = len(x)
        if args.n is not None and args.n != n:
            raise ValueError(f"word length {n} does not match --n {args.n}")
        fam = _family(args)
        ok = fam.member(x, fam.params(_parse_params(args.params), n, args), n)
        all_in &= ok
        _emit(
            {"word": x, "family": args.family, "member": ok},
            args.json,
            [f"{x}: {'member' if ok else 'not a member'}"],
        )
    return 0 if all_in else 1


# -------------------------------------------------------------- decode


def _cts_trace(trace, verbose: bool, payload: dict, lines: list[str]) -> None:
    row1, cols = trace.row1, trace.column_window
    payload |= {"row1": _report(_outcome(row1), False)[0], "rows": list(trace.rows),
                "column_window": cols and list(cols)}
    if verbose:
        lines.append(f"row 1: {row1.word}  {row1.classification}  window {list(row1.window)}")
        lines += [f"column window {list(cols)}"] if cols else []
        lines += [f"row {i}: {row}" for i, row in enumerate(trace.rows[1:], start=2)]


def _c31_trace(trace, verbose: bool, payload: dict, lines: list[str]) -> None:
    if verbose:
        # the classification is already at the top level
        payload["trace"] = {k: v for k, v in asdict(trace).items() if k != "classification"}
        lines += [f"deltas odd={trace.d_odd} even={trace.d_even} run={trace.d_run}",
                  f"candidates {trace.candidates}, survivors {trace.survivors}, "
                  f"run filter {'decisive' if trace.run_filter_decisive else 'idle'}"]


# what each trace type adds to a decode's payload, and to its lines under --verbose
_TRACES = {cts.CtsTrace: _cts_trace, c31.C31Trace: _c31_trace}


def _report(res, verbose: bool) -> tuple[dict, list[str]]:
    """The JSON payload and the text lines of one decode result: its
    word, classification and window where set, then what its trace adds."""
    shown = {"decoded": res.word, "classification": res.classification,
             "window": res.window and list(res.window)}
    payload = {key: value for key, value in shown.items() if value is not None}
    lines = [f"{key} {value}" for key, value in payload.items()]
    if res.trace is not None:
        _TRACES[type(res.trace)](res.trace, verbose, payload, lines)
    return payload, lines


def cmd_decode(args) -> int:
    words = _gather_words(args)
    for y in words:
        fam = _family(args, "n")
        params = fam.params(_parse_params(args.params), args.n, args)
        payload, lines = _report(fam.decode(y, params, args.n, args.window), args.verbose)
        _emit(payload, args.json, lines)
    return 0


# -------------------------------------------------------------- search


def cmd_search(args) -> int:
    fam = _family(args, "n")
    _, book = fam.search(args.n, args.t, args.s, args.P, args.f)
    print(json.dumps(book.to_dict(include_members=args.members), sort_keys=True))
    return 0


# -------------------------------------------------------------- verify


def _print_report(rep) -> bool:
    d = rep.to_dict()
    d.pop("elapsed_s", None)  # keeps identical runs byte-identical
    print(json.dumps(d, sort_keys=True))
    if not rep.verdict and rep.witness is not None:
        print(f"witness: {json.dumps(rep.witness, sort_keys=True)}", file=sys.stderr)
    return rep.verdict


# each family check of verify: its call on the searched book's members
_BOOK_CHECKS = {
    "disjoint": lambda members, n, t, s, decode: verify_disjoint(members, t, s),
    "roundtrip": lambda members, n, t, s, decode: verify_roundtrip(members, t, s, decode),
    "equivalence": lambda members, n, t, s, decode: verify_equivalence(members, t, s),
    "bound": lambda members, n, t, s, decode: bound_report(members, n, t, s),
}


def cmd_verify(args) -> int:
    if args.check == "ball-laws":
        if any(v is not None for v in (args.family, args.n, args.t, args.s)):
            raise ValueError("verify ball-laws reads no family, --n, --t or --s")
        if args.f is not None:
            raise ValueError("verify ball-laws reads no --f")
        _check_int(args.n_max, 2, "--n-max must be >= 2, got {}", args.n_max)
        reports = verify_ball_laws(range(2, args.n_max + 1), args.t_max, args.s_max)
        # a list, so every report prints when one fails
        return 0 if all([_print_report(rep) for rep in reports.values()]) else 1
    if args.family is None:
        raise ValueError(f"verify {args.check} needs a family")
    _family(args, "n")
    t, s, _, book, decode = family_setup(args.family, args.n, args.t, args.s, args.f)
    rep = _BOOK_CHECKS[args.check](book.members, args.n, t, s, decode)
    return 0 if _print_report(rep) else 1


# -------------------------------------------------------------- bounds


def cmd_bounds(args) -> int:
    t, s, m = args.t, args.s, max(args.t, args.s)
    # no burst fits below max(t, s), so no row prints there
    ns = _parse_n_range(args.n)
    ns = range(max(ns.start, m), ns.stop)
    # the first family whose burst is exactly (t, s), else cts; its bucket
    # count multiplies its rows' moduli, each distinct row's product raised
    # to the row's count, None where it has no rows at n
    fam = next((f for f in FAMILIES.values() if f.burst == (t, s)), FAMILIES["cts"])
    # every refusal comes before the first line, so each row prints as it is made
    if ns:
        sphere_packing_bound(m, t, s)  # 1, once t and s are checked
        # the bound rises with n and no guarantee passes it, so the last n's
        # bound is the largest int printed: refuse one that str() would
        # refuse, or with the limit off would refuse at CPython's default.
        # Past the exponent e = n - m + 1 = 4 * limit, 2^e / (e + 1) has
        # more than limit digits for every limit Python takes (640 and up),
        # so only a bound below that is built to be compared
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        whose = "this Python's" if limit else "CPython's default"
        limit = limit or getattr(sys.int_info, "default_max_str_digits", 4300)
        if ns[-1] - m + 1 > 4 * limit or sphere_packing_bound(ns[-1], t, s) >= 10**limit:
            raise GuardLimit(f"the bound at n={ns[-1]} has more than {limit} digits, "
                             f"past {whose} int-to-string limit")
    if not args.json:
        print(f"bounds t={t} s={s}")
        print(f"{'n':>4}  {'bound':>14}  {'log2':>9}  {'guarantee':>10}  {'max_red':>8}")
    for n in ns:
        cap = sphere_packing_bound(n, t, s)
        log2 = round(math.log2(cap), 4)
        try:
            automata = fam.rows(n, t, s, None, None)
            buckets = math.prod(math.prod(mods) ** count
                                for (_, _, mods, _), count in Counter(automata).items())
        except ValueError:
            buckets = None
        guar = None if buckets is None else -(-(1 << n) // buckets)
        red = None if buckets is None else round(math.log2(buckets), 4)
        if args.json:
            print(json.dumps({"n": n, "bound": cap, "log2_bound": log2,
                              "guaranteed_size": guar, "max_redundancy": red}, sort_keys=True))
        else:
            guar, red = ("-", "-") if buckets is None else (guar, f"{red:.4f}")
            print(f"{n:>4}  {cap:>14}  {log2:>9.4f}  {guar:>10}  {red:>8}")
    return 0


# ------------------------------------------------------------ simulate


def cmd_simulate(args) -> int:
    _family(args, "n")
    res = simulate(
        args.family, args.n, args.trials, args.seed, t=args.t, s=args.s, f=args.f
    )
    _emit(res.to_dict(), args.json, [
        f"simulate {res.family} n={res.n} t={res.t} s={res.s} seed={res.seed}",
        f"codebook size {res.codebook_size} params {json.dumps(res.params, sort_keys=True)}",
        f"success {res.successes}/{res.trials}",
    ])
    if res.failures:
        for w in res.witnesses:
            print(f"witness: {json.dumps(w, sort_keys=True)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- main


# the arguments several subcommands share, with their keywords, in the
# order _add_shared adds them
_SHARED = {
    "words": {"nargs": "*", "help": "ASCII bitstrings"},
    "--file": {"help": "read words from a file, one per line"},
    "--t": {"type": int},
    "--s": {"type": int},
    "--n": {"type": int},
    "--params": {"help": "comma-separated integers"},
    "--P": {"type": int},
    "--window": {"type": _parse_window, "help": "lo,hi"},
    "--f": {"type": int, "help": "run cap override"},
    "--json": {"action": "store_true"},
    "--verbose": {"action": "store_true"},
}


def _add_shared(p, *names):
    """Add the named shared arguments to p, in _SHARED's order."""
    for name, keywords in _SHARED.items():
        if name in names:
            p.add_argument(name, **keywords)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves the parser unchanged and help text is laid out to the
    terminal width when it is printed, so one parser serves every call.
    """
    top = argparse.ArgumentParser(
        prog="burstcodes",
        description="burst-error codes: balls, membership, decoding, search, verification",
    )
    sub = top.add_subparsers(dest="command", required=True)
    # verify and simulate decode with no window, which svt21 needs
    unaided = [name for name, fam in FAMILIES.items() if "window" not in fam.needs]

    p = sub.add_parser("ball", help="enumerate a burst ball around a word")
    _add_shared(p, "words", "--file", "--t", "--s", "--json")
    p.add_argument("--refined", nargs=2, type=int, metavar=("K", "L"), default=None)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("member", help="test codebook membership")
    p.add_argument("family", choices=list(FAMILIES))
    _add_shared(p, "words", "--file", "--t", "--s", "--n", "--params", "--P", "--f", "--json")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("family", choices=list(FAMILIES))
    _add_shared(p, "words", "--file", "--t", "--s", "--n", "--params", "--P", "--window",
                "--f", "--json", "--verbose")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("search", help="find the best parameters by pigeonhole")
    p.add_argument("family", choices=list(FAMILIES))
    _add_shared(p, "--t", "--s", "--n", "--P", "--f")
    p.add_argument("--members", action="store_true", help="include the codeword list")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="exhaustive checks, JSON report per line")
    p.add_argument("check", choices=("ball-laws", *_BOOK_CHECKS))
    p.add_argument("family", nargs="?", choices=unaided, default=None)
    _add_shared(p, "--t", "--s", "--n", "--f")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument("--t-max", type=int, default=4, dest="t_max")
    p.add_argument("--s-max", type=int, default=4, dest="s_max")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="packing bounds and construction guarantees")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", required=True, help="single value or inclusive range a..b")
    _add_shared(p, "--json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="seeded random bursts through a decoder")
    p.add_argument("family", choices=unaided)
    _add_shared(p, "--t", "--s", "--n", "--f", "--json")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # words may trail the flags, which a greedy * positional would
        # otherwise miss; fold the leftovers back in
        args, extra = parser.parse_known_args(argv)
        if extra:
            stray = [e for e in extra if not set(e) <= {"0", "1"}]
            if stray or not hasattr(args, "words"):
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.words = list(args.words) + extra
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GuardLimit as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except DecodingError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
