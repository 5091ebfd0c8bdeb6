"""The code families, one entry each: the one place a family is registered.

Every family is the same triple: a syndrome membership test, a
candidate decoder, and a pigeonhole search that keeps the largest
residue bucket.  FAMILIES says, per family, how the command line and
the simulator reach that triple, so neither of them names a family.

Entries call package functions through their module at call time
(codes.c21_decode(...), never a stored function object), so anything
that replaces a module attribute, such as a tracer, sees these calls.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from . import c31, codes, cts

__all__ = ["Family", "FAMILIES"]


@dataclass(frozen=True)
class Family:
    """How to reach one code family.

    burst is the (t, s) the family corrects, None where --t and --s
    choose it; also names the smaller bursts it corrects as well, which
    --t and --s may ask for instead.  burst_for holds the rule every
    family subcommand and simulate.family_setup apply to the asked t
    and s.  needs names the options the family cannot work without,
    checked wherever a subcommand offers them; apart from member, every
    subcommand also needs --n.  reads names the family options, of P, f and window,
    that the family reads at all; check_reads refuses any other.

    params(vals, n, opts) builds the parameter object from the --params
    integers, the length and the parsed options; member(x, params, n)
    tests membership; search(n, t, s, P, f) returns (params, Codebook),
    counted over the row automata rows(n, t, s, P, f).  decode(y,
    params, n, window) returns a _Decoded, where window is read only by
    a family that needs it.
    """

    burst: tuple[int, int] | None
    needs: tuple[str, ...]
    params: Callable
    member: Callable
    search: Callable
    rows: Callable
    decode: Callable
    reads: tuple[str, ...] = ()
    also: tuple[tuple[int, int], ...] = ()

    def burst_for(self, name: str, t: int | None, s: int | None) -> tuple[int, int]:
        """The (t, s) the family named name corrects, asked for as t, s.

        A family that corrects one fixed burst takes its own value for
        an omitted t or s and refuses any burst but that one and those in
        also; one whose burst t and s choose needs both.
        """
        burst = self.burst or (t, s)
        asked = (burst[0] if t is None else t, burst[1] if s is None else s)
        if None in asked:
            raise ValueError(f"{name} needs t and s")
        if asked != burst and asked not in self.also:
            raise ValueError(f"{name} corrects {burst}-bursts, not {asked}")
        return asked

    def check_reads(self, name: str, flag: str = "", **options) -> None:
        """Refuse each of options, by its name as flag + key, that is set
        although the family named name does not read it."""
        for key, value in options.items():
            if value is not None and key not in self.reads:
                raise ValueError(f"{name} does not read {flag}{key}")


# one decode of any family: the codeword, and the classification, location
# window and trace where the family's decoder gives them
_Decoded = namedtuple("_Decoded", "word classification window trace", defaults=(None,) * 3)


def _take(vals: list[int], names: str) -> dict:
    """The --params integers named by names ("a,b"), checked for count."""
    keys = names.split(",")
    if len(vals) != len(keys):
        raise ValueError(f"--params needs {len(keys)} values ({names}), got {len(vals)}")
    return dict(zip(keys, vals))


def _cts_params(vals: list[int], n: int, opts) -> cts.CtsParams:
    k = opts.t - opts.s
    want = 2 + 2 * max(k - 1, 0)
    if len(vals) != want:
        raise ValueError(
            f"cts at t={opts.t} s={opts.s} needs {want} params "
            f"(a,b then c,d per extra row), got {len(vals)}"
        )
    rows = tuple((vals[i], vals[i + 1]) for i in range(2, len(vals), 2))
    return cts.CtsParams.derive(n, opts.t, opts.s, vals[0], vals[1], rows)


def _outcome(out: codes.DecodeOutcome) -> _Decoded:
    return _Decoded(out.word, out.classification, out.window)


def _decode_cts(y: str, params: cts.CtsParams, n: int, window) -> _Decoded:
    word, trace = cts.cts_decode(y, params, trace=True)
    return _Decoded(word, trace=trace)


def _decode_c31(y: str, params: c31.C31Params, n: int, window) -> _Decoded:
    word, trace = c31.c31_decode(y, params, trace=True)
    return _Decoded(word, trace.classification, trace=trace)


FAMILIES = {
    "vt": Family(
        burst=(1, 0), needs=(),
        params=lambda vals, n, opts: _take(vals, "a"),
        member=lambda x, p, n: codes.vt_member(x, p["a"], n),
        search=lambda n, t, s, P, f: codes.pigeonhole_search("vt", n),
        rows=lambda n, t, s, P, f: codes._family_rows("vt", n, None, None)[0],
        decode=lambda y, p, n, w: _Decoded(codes.vt_decode(y, p["a"], n)),
    ),
    # a burst of at most two deletions: one deletion too
    "lev2": Family(
        burst=(2, 0), needs=(), also=((1, 0),),
        params=lambda vals, n, opts: _take(vals, "a"),
        member=lambda x, p, n: codes.lev2_member(x, p["a"], n),
        search=lambda n, t, s, P, f: codes.pigeonhole_search("lev2", n),
        rows=lambda n, t, s, P, f: codes._family_rows("lev2", n, None, None)[0],
        decode=lambda y, p, n, w: _Decoded(codes.lev2_decode(y, p["a"], n)),
    ),
    "c21": Family(
        burst=(2, 1), needs=(), also=((1, 0),),
        params=lambda vals, n, opts: _take(vals, "a,b"),
        member=lambda x, p, n: codes.c21_member(x, p["a"], p["b"], n),
        search=lambda n, t, s, P, f: codes.pigeonhole_search("c21", n),
        rows=lambda n, t, s, P, f: codes._family_rows("c21", n, None, None)[0],
        decode=lambda y, p, n, w: _outcome(codes.c21_decode(y, p["a"], p["b"], n)),
    ),
    "c21rll": Family(
        burst=(2, 1), needs=(), also=((1, 0),),
        params=lambda vals, n, opts: _take(vals, "a,b") | {"f": opts.f},
        member=lambda x, p, n: codes.c21rll_member(x, p["a"], p["b"], n, p["f"]),
        search=lambda n, t, s, P, f: codes.pigeonhole_search("c21rll", n, f=f),
        rows=lambda n, t, s, P, f: codes._family_rows("c21rll", n, None, f)[0],
        decode=lambda y, p, n, w: _outcome(codes.c21rll_decode(y, p["a"], p["b"], n, p["f"])),
        reads=("f",),
    ),
    "svt21": Family(
        burst=(2, 1), needs=("P", "window"),
        params=lambda vals, n, opts: _take(vals, "c,d") | {"P": opts.P},
        member=lambda x, p, n: codes.svt21_member(x, p["c"], p["d"], p["P"]),
        search=lambda n, t, s, P, f: codes.pigeonhole_search("svt21", n, P=P),
        rows=lambda n, t, s, P, f: codes._family_rows("svt21", n, P, None)[0],
        decode=lambda y, p, n, w: _Decoded(codes.svt21_decode(y, p["c"], p["d"], p["P"], w, n)),
        reads=("P", "window"),
    ),
    "cts": Family(
        burst=None, needs=("n", "t", "s", "params"),
        params=_cts_params,
        member=lambda x, p, n: cts.cts_member(x, p),
        search=lambda n, t, s, P, f: cts.cts_param_search(n, t, s),
        rows=lambda n, t, s, P, f: cts._rows(n, t, s),
        decode=_decode_cts,
    ),
    "c31": Family(
        burst=(3, 1), needs=(), also=((2, 0),),
        params=lambda vals, n, opts: c31.C31Params(n, **_take(vals, "a,b,c,d")),
        member=lambda x, p, n: c31.c31_member(x, p),
        search=lambda n, t, s, P, f: c31.c31_param_search(n),
        rows=lambda n, t, s, P, f: c31._rows(n),
        decode=_decode_c31,
    ),
}
