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

from . import c31, codes, cts
from .channel import ball, ball_size_formula, refined_ball, refined_ball_size, sphere_packing_bound
from .errors import DecodingError, GuardLimit
from .families import FAMILIES
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


def _parse_n_range(text: str) -> list[int]:
    """'12' or '8..16', inclusive."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        _check_int(hi, lo, "empty range {!r}", text)
        return list(range(lo, hi + 1))
    return [int(text)]


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
            b, formula = ball(x, args.t, args.s), ball_size_formula(len(x), args.t, args.s)
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


def cmd_decode(args) -> int:
    words = _gather_words(args)
    for y in words:
        fam = _family(args, "n")
        params = fam.params(_parse_params(args.params), args.n, args)
        payload, lines = fam.decode(y, params, args.n, args)
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
        _check_int(args.n_max, 2, "--n-max must be >= 2, got {}", args.n_max)
        reports = verify_ball_laws(range(2, args.n_max + 1), args.t_max, args.s_max)
        # a list, so every report prints when one fails
        return 0 if all([_print_report(rep) for rep in reports.values()]) else 1
    if args.family is None:
        raise ValueError(f"verify {args.check} needs a family")
    _family(args, "n")
    t, s, _, book, decode = family_setup(args.family, args.n, args.t, args.s)
    rep = _BOOK_CHECKS[args.check](book.members, args.n, t, s, decode)
    return 0 if _print_report(rep) else 1


# -------------------------------------------------------------- bounds


def _construction_buckets(n: int, t: int, s: int) -> int | None:
    """Syndrome-bucket count of the best construction at (n, t, s): the
    product of the moduli of its row automata, None where none exists."""
    try:
        if (t, s) == (3, 1):
            rows = c31._rows(n)
        elif (t, s) == (2, 1):
            rows, _, _ = codes._family_rows("c21", n, None, None)
        else:
            rows = cts._rows(n, t, s)
    except ValueError:
        return None
    return math.prod(mod for _, _, mods in rows for mod in mods)


def cmd_bounds(args) -> int:
    _need(args, "t", "s", "n")
    ns = _parse_n_range(args.n)
    rows = []
    for n in ns:
        if n < max(args.t, args.s):
            continue
        cap = sphere_packing_bound(n, args.t, args.s)
        buckets = _construction_buckets(n, args.t, args.s)
        guarantee = None if buckets is None else -(-(1 << n) // buckets)
        rows.append(
            {
                "n": n,
                "bound": cap,
                "log2_bound": round(math.log2(cap), 4) if cap else None,
                "guaranteed_size": guarantee,
                "max_redundancy": None if buckets is None else round(math.log2(buckets), 4),
            }
        )
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return 0
    print(f"bounds t={args.t} s={args.s}")
    print(f"{'n':>4}  {'bound':>14}  {'log2':>9}  {'guarantee':>10}  {'max_red':>8}")
    for r in rows:
        guar = "-" if r["guaranteed_size"] is None else str(r["guaranteed_size"])
        red = "-" if r["max_redundancy"] is None else f"{r['max_redundancy']:.4f}"
        print(
            f"{r['n']:>4}  {r['bound']:>14}  {r['log2_bound']:>9.4f}  "
            f"{guar:>10}  {red:>8}"
        )
    return 0


# ------------------------------------------------------------ simulate


def cmd_simulate(args) -> int:
    _family(args, "n")
    res = simulate(
        args.family, args.n, args.trials, args.seed, t=args.t, s=args.s
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
    decodable = [name for name, fam in FAMILIES.items() if fam.decode]
    roundtrip = [name for name, fam in FAMILIES.items() if fam.roundtrip]

    p = sub.add_parser("ball", help="enumerate a burst ball around a word")
    _add_shared(p, "words", "--file", "--t", "--s", "--json")
    p.add_argument("--refined", nargs=2, type=int, metavar=("K", "L"), default=None)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("member", help="test codebook membership")
    p.add_argument("family", choices=list(FAMILIES))
    _add_shared(p, "words", "--file", "--t", "--s", "--n", "--params", "--P", "--f", "--json")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("family", choices=decodable)
    _add_shared(p, "words", "--file", "--t", "--s", "--n", "--params", "--P", "--window",
                "--json", "--verbose")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("search", help="find the best parameters by pigeonhole")
    p.add_argument("family", choices=list(FAMILIES))
    _add_shared(p, "--t", "--s", "--n", "--P", "--f")
    p.add_argument("--members", action="store_true", help="include the codeword list")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="exhaustive checks, JSON report per line")
    p.add_argument("check", choices=("ball-laws", *_BOOK_CHECKS))
    p.add_argument("family", nargs="?", choices=roundtrip, default=None)
    _add_shared(p, "--t", "--s", "--n")
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
    p.add_argument("family", choices=roundtrip)
    _add_shared(p, "--t", "--s", "--n", "--json")
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
