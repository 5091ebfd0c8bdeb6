"""The burstcodes benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {search,decode,verify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
./src and nothing else.  Each run is one single-threaded process and a
closed loop with one caller: the next call is made only after the
previous one returned.  The inputs come from the benchmark's own
`random.Random(seed)`; the same seed gives the same inputs.

Workloads (perfbench/README.md says why each was chosen and which
per-layer metric should move which end-to-end metric):

* search  in-process `burstcodes search` (through burstcodes.cli.main)
          over a fixed mix of nine commands; the seed shuffles the order.
* decode  seeded (codeword, start, inserted word) draws over six
          codebooks built in set-up; one public decode call per op.
* verify  verify_ball_laws over n = 4..10, three exhaustive roundtrips,
          and verify_disjoint plus verify_equivalence on c21 n = 18.

Every output is checked without trusting the program: search stdout
against golden lines taken from the seed commit, decodes against the
drawn codeword, verify reports against closed forms computed here.  A
call that raises, or a CLI exit code other than 0 (a `GuardLimit`
refusal exits 3), counts as a failed op.

Ops are timed in process CPU time, so time the scheduler gives to other
processes is left out (runtime.cpu_wall_ratio in a traced run shows how
much that was).  An untraced run also scales its timings to a nominal
machine speed: on a shared machine the single-core speed can swing
by a quarter or more within seconds.  A SIGALRM handler times a fixed
pure-Python reference kernel every REF_PERIOD_S, and each timed interval
is scaled by REF_NOMINAL_S over the kernel's mean time in or around it,
with the handler's own time taken out.  See SpeedProbe.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics.  A
traced run first runs the workload untraced (the reference phase, which
also gives the diagnostics that need clean timing), then replays the
same inputs with every public function wrapped (perfbench/tracer.py),
checks that both phases gave identical outputs, and writes the full
per-(function, parent) table to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from tracer import DECODERS, LAYERS, SEARCHES, Stat, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3  # set-ups per untraced run, at least; setup_s is their median
SETUP_MIN_S = 1.0
DECODE_BATCH = 600  # decodes drawn at a time, 100 per codebook
REF_PERIOD_S = 0.04  # how often the speed probe times the reference kernel
REF_NOMINAL_S = 0.0007  # the kernel's time on an idle core of a 2-vCPU x86 VM
MAX_ERRORS_SHOWN = 5

# timed intervals and speed samples use this process's CPU time
clock = time.process_time


class BenchError(Exception):
    """The benchmark cannot run here (missing source, bad arguments)."""


@dataclass(frozen=True)
class Sizes:
    """What one workload pass runs.  Books are named by the search command
    whose codebook they are, which is also their golden key."""

    search: tuple[str, ...]
    decode_books: tuple[str, ...]
    ball_ns: tuple[int, ...]
    roundtrip_books: tuple[str, ...]
    disjoint_book: str


FULL = Sizes(
    search=(
        "search c21 --n 18",
        "search c31 --n 16",
        "search cts --n 16 --t 4 --s 2",
        "search cts --n 15 --t 4 --s 1",
        "search lev2 --n 16",
        "search c21rll --n 16",
        "search svt21 --n 16 --P 6",
        "search vt --n 16",
        "search c21 --n 12 --members",
    ),
    decode_books=(
        "search vt --n 16",
        "search lev2 --n 16",
        "search c21 --n 16",
        "search cts --n 15 --t 4 --s 1",
        "search cts --n 16 --t 4 --s 2",
        "search c31 --n 16",
    ),
    ball_ns=tuple(range(4, 11)),
    roundtrip_books=(
        "search c31 --n 16",
        "search cts --n 16 --t 4 --s 2",
        "search c21 --n 16",
    ),
    disjoint_book="search c21 --n 18",
)

# the harness self-test runs these; every command has a golden line too
TINY = Sizes(
    search=("search c21 --n 8 --members", "search vt --n 8", "search c31 --n 8"),
    decode_books=(
        "search vt --n 8",
        "search lev2 --n 8",
        "search c21 --n 8",
        "search cts --n 9 --t 4 --s 1",
        "search cts --n 8 --t 4 --s 2",
        "search c31 --n 8",
    ),
    ball_ns=(4, 5),
    roundtrip_books=("search c31 --n 8", "search cts --n 8 --t 4 --s 2", "search c21 --n 8"),
    disjoint_book="search c21 --n 10",
)

BALL_T_MAX = BALL_S_MAX = 4

# burst shapes (t, s) each family's decoder corrects, as drawn by `decode`
SHAPES = {"vt": ((1, 0),), "lev2": ((1, 0), (2, 0)), "c21": ((2, 1),), "c31": ((3, 1),)}


def load_golden() -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


def members_digest(members) -> str:
    return hashlib.sha256("\n".join(members).encode()).hexdigest()


# ------------------------------------------------------------- package


def fresh_import():
    """Import burstcodes from ./src, dropping any earlier import first,
    so every set-up pays the same import cost."""
    if not (SRC / "burstcodes" / "__init__.py").is_file():
        raise BenchError(f"no burstcodes package under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "burstcodes" or m.startswith("burstcodes.")]:
        del sys.modules[name]
    bc = importlib.import_module("burstcodes")
    importlib.import_module("burstcodes.cli")
    if not Path(bc.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported burstcodes from {bc.__file__}, not from {SRC}")
    return bc


# ------------------------------------------------------------- timing


def ref_kernel() -> dict:
    """Fixed pure-Python work of the kind the package does (formatting,
    scanning and slicing bit strings, dict updates); uses no package code."""
    acc = {}
    for v in range(400):
        w = format(v * 40503 % 65536, "016b")
        key = sum(i for i, ch in enumerate(w, 1) if ch == "1") % 31
        w = w[:5] + "10" + w[7:]
        acc[key] = acc.get(key, 0) + w.count("1")
    return acc


class SpeedProbe:
    """Samples the machine's speed by timing ref_kernel from a SIGALRM
    handler every REF_PERIOD_S of wall time, while measured code runs."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._sampling = False

    def _sample(self, *_):
        if self._sampling:  # a late alarm arrived inside the handler
            return
        self._sampling = True
        t0 = clock()
        ref_kernel()
        self.starts.append(t0)
        self.ends.append(clock())
        self._sampling = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at nominal speed: the probe's
        own time inside it is removed, and the rest scaled by the mean
        kernel time of the samples inside it, or of the two around it."""
        starts, ends = self.starts, self.ends
        first = bisect_left(ends, t0)
        busy = t1 - t0
        refs = 0.0
        i = first
        while i < len(starts) and starts[i] < t1:
            busy -= min(ends[i], t1) - max(starts[i], t0)
            refs += ends[i] - starts[i]
            i += 1
        count = i - first
        if count == 0:  # no sample inside: the ones just before and after
            around = [j for j in (first - 1, first) if 0 <= j < len(starts)]
            refs = sum(ends[j] - starts[j] for j in around)
            count = len(around)
        return busy * REF_NOMINAL_S * count / refs


# ------------------------------------------------------------- tallies


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(problem)


@dataclass
class Phase:
    """What one closed-loop phase did: each op's timed interval, per-stage
    work, and (only when kept for a traced replay) its op lists and outputs."""

    t0: array = field(default_factory=lambda: array("d"))
    t1: array = field(default_factory=lambda: array("d"))
    stage_units: dict = field(default_factory=dict)  # stage -> [units, seconds]
    lists: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.t0, self.t1)]


# ------------------------------------------------------------- books


@dataclass
class Book:
    cmd: str
    n: int
    shapes: tuple[tuple[int, int], ...]
    members: tuple[str, ...]
    decode: object  # received word -> decoded codeword


def parse_search(cmd: str) -> tuple[str, dict[str, int]]:
    parts = cmd.split()
    flags = [p for p in parts[2:] if p != "--members"]
    return parts[1], {k.lstrip("-"): int(v) for k, v in zip(flags[::2], flags[1::2])}


def build_book(bc, cmd: str, golden: dict, tally: Tally) -> Book:
    """Build one codebook through the public search functions and check
    it against the seed commit's search output and member digest."""
    family, opt = parse_search(cmd)
    n = opt["n"]
    if family == "cts":
        params, book = bc.cts_param_search(n, opt["t"], opt["s"])
        shapes = ((opt["t"], opt["s"]),)
        decode = lambda y: bc.cts_decode(y, params)  # noqa: E731
    elif family == "c31":
        params, book = bc.c31_param_search(n)
        shapes = SHAPES[family]
        decode = lambda y: bc.c31_decode(y, params)  # noqa: E731
    else:
        params, book = bc.pigeonhole_search(family, n)
        shapes = SHAPES[family]
        a = params["a"]
        if family == "c21":
            decode = lambda y: bc.c21_decode(y, a, params["b"], n).word  # noqa: E731
        elif family == "vt":
            decode = lambda y: bc.vt_decode(y, a, n)  # noqa: E731
        else:
            decode = lambda y: bc.lev2_decode(y, a, n)  # noqa: E731
    got = json.dumps(book.to_dict(), sort_keys=True)
    problem = None
    if got != golden["stdout"][cmd]:
        problem = f"set-up {cmd!r}: book {got} != golden {golden['stdout'][cmd]}"
    elif members_digest(book.members) != golden["members_sha256"][cmd]:
        problem = f"set-up {cmd!r}: members differ from the golden digest"
    tally.record(problem)
    return Book(cmd, n, shapes, book.members, decode)


# ------------------------------------------------------------- workloads


class Workload:
    """One workload: set-up, the op stream, one timed op, the check."""

    name = ""

    def __init__(self, sizes: Sizes, golden: dict):
        self.sizes = sizes
        self.golden = golden
        self.bc = None

    def setup(self, tally: Tally) -> None:
        self.bc = fresh_import()

    def passes(self, rng: random.Random):
        """Endless stream of op lists; a run measures whole lists."""
        raise NotImplementedError

    def execute(self, op):
        """Run one op; return (output, t0, t1) where [t0, t1] is the
        clock() interval spent inside the program."""
        raise NotImplementedError

    def check(self, op, output) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError

    def stage(self, op) -> tuple[str, int]:
        """Stage name and units of work of one op, for per-stage rates."""
        return self.name, 1


class SearchWorkload(Workload):
    name = "search"

    def passes(self, rng):
        while True:
            order = list(self.sizes.search)
            rng.shuffle(order)
            yield order

    def execute(self, cmd):
        main = self.bc.cli.main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            rc = main(cmd.split())
            t1 = clock()
        return (rc, out.getvalue(), err.getvalue()), t0, t1

    def check(self, cmd, output):
        rc, out, err = output
        want = self.golden["stdout"][cmd] + "\n"
        if rc != 0:
            return f"{cmd!r}: exit code {rc}: {err.strip()}"
        if out != want:
            return f"{cmd!r}: stdout {out[:120]!r} != golden {want[:120]!r}"
        return None


class DecodeWorkload(Workload):
    name = "decode"

    def setup(self, tally):
        super().setup(tally)
        self.books = [build_book(self.bc, cmd, self.golden, tally) for cmd in self.sizes.decode_books]

    def passes(self, rng):
        while True:
            batch = []
            for i, book in enumerate(self.books):
                for _ in range(DECODE_BATCH // len(self.books)):
                    x = rng.choice(book.members)
                    t, s = rng.choice(book.shapes)
                    start = rng.randint(1, book.n - t + 1)
                    inserted = format(rng.getrandbits(s), f"0{s}b") if s else ""
                    y = x[: start - 1] + inserted + x[start - 1 + t :]
                    batch.append((i, x, y))
            rng.shuffle(batch)
            yield batch

    def execute(self, op):
        decode = self.books[op[0]].decode
        t0 = clock()
        try:
            got = decode(op[2])
        except Exception as exc:  # any raise is a failed op, recorded by check()
            got = f"{type(exc).__name__}: {exc}"
        return got, t0, clock()

    def check(self, op, output):
        i, x, y = op
        if output != x:
            return f"{self.books[i].cmd}: decode({y}) = {output!r}, drawn {x}"
        return None


def report_dict(rep) -> dict:
    d = rep.to_dict()
    d.pop("elapsed_s", None)
    return d


class VerifyWorkload(Workload):
    name = "verify"

    def setup(self, tally):
        super().setup(tally)
        cmds = dict.fromkeys(self.sizes.roundtrip_books + (self.sizes.disjoint_book,))
        self.books = {cmd: build_book(self.bc, cmd, self.golden, tally) for cmd in cmds}

    def passes(self, rng):
        fixed = [("ballaws", None)]
        fixed += [("roundtrip", cmd) for cmd in self.sizes.roundtrip_books]
        fixed += [("disjoint", self.sizes.disjoint_book), ("equivalence", self.sizes.disjoint_book)]
        while True:
            order = list(fixed)
            rng.shuffle(order)
            yield order

    def execute(self, op):
        kind, cmd = op
        bc = self.bc
        book = self.books.get(cmd)
        t0 = clock()
        try:
            if kind == "ballaws":
                reps = bc.verify_ball_laws(self.sizes.ball_ns, BALL_T_MAX, BALL_S_MAX)
            elif kind == "roundtrip":
                (t, s), = book.shapes
                reps = bc.verify_roundtrip(book.members, t, s, book.decode)
            elif kind == "disjoint":
                reps = bc.verify_disjoint(book.members, 2, 1)
            else:
                reps = bc.verify_equivalence(book.members, 2, 1)
        except Exception as exc:  # any raise is a failed op, recorded by check()
            return f"{type(exc).__name__}: {exc}", t0, clock()
        t1 = clock()
        if isinstance(reps, dict):
            out = {k: report_dict(v) for k, v in sorted(reps.items())}
        else:
            out = report_dict(reps)
        return json.dumps(out, sort_keys=True), t0, t1

    def expected(self, op) -> dict:
        """Closed-form counts each report must carry."""
        kind, cmd = op
        if kind == "ballaws":
            words = sum(1 << n for n in self.sizes.ball_ns)
            combos = sum(
                (1 << n) * sum(
                    1
                    for t in range(1, BALL_T_MAX + 1)
                    for s in range(1, BALL_S_MAX + 1)
                    if max(t, s) <= n
                )
                for n in self.sizes.ball_ns
            )
            return {"words": words, "burst_combinations": combos, "failures": 0}
        book = self.books[cmd]
        size, n = len(book.members), book.n
        if kind == "roundtrip":
            (t, s), = book.shapes
            return {"codewords": size, "corruptions": size * (n - t + 1) * 2**s, "failures": 0}
        if kind == "disjoint":
            t, s = 2, 1
            return {"codewords": size, "outputs_checked": size * (n - t + 2) * 2 ** (s - 1)}
        return {"forward_pass": 1, "swapped_pass": 1}

    def check(self, op, output):
        try:
            got = json.loads(output)
        except ValueError:
            return f"{op}: raised {output}"
        reports = got.values() if op[0] == "ballaws" else [got]
        want = self.expected(op)
        for rep in reports:
            if rep["verdict"] != "pass":
                return f"{op}: verdict {rep['verdict']}, witness {rep['witness']}"
            counts = {k: rep["counts"].get(k) for k in want}
            if counts != want:
                return f"{op}: counts {counts} != closed form {want}"
        return None

    def stage(self, op):
        kind = op[0]
        if kind == "equivalence":
            return kind, 1
        unit = {"ballaws": "burst_combinations", "roundtrip": "corruptions", "disjoint": "outputs_checked"}
        return kind, self.expected(op)[unit[kind]]


WORKLOADS = {w.name: w for w in (SearchWorkload, DecodeWorkload, VerifyWorkload)}


# ------------------------------------------------------------- phases


def run_phase(
    wl: Workload, tally: Tally, seconds: float, rng=None, replay=None, keep=False
) -> Phase:
    """Closed loop over whole op lists (passes) until the next pass would
    end after `seconds` (at least one pass), or over exactly the passes of
    `replay`, whose outputs each output must then equal.  `keep` records
    the passes and outputs for a replay."""
    ph = Phase()
    lists = iter(replay.lists) if replay is not None else wl.passes(rng)
    start = time.perf_counter()
    cpu0 = clock()
    done = 0
    for ops in lists:
        for op in ops:
            out, t0, t1 = wl.execute(op)
            problem = wl.check(op, out)
            if problem is None and replay is not None and out != replay.outputs[len(ph.t0)]:
                problem = f"{op}: traced output differs from the untraced output"
            tally.record(problem)
            ph.t0.append(t0)
            ph.t1.append(t1)
            stage, units = wl.stage(op)
            acc = ph.stage_units.setdefault(stage, [0, 0.0])
            acc[0] += units
            acc[1] += t1 - t0
            if keep:
                ph.outputs.append(out)
        if keep:
            ph.lists.append(ops)
        done += 1
        elapsed = time.perf_counter() - start
        if replay is None and elapsed + elapsed / done > seconds:
            break
    ph.wall_s = time.perf_counter() - start
    ph.cpu_s = clock() - cpu0
    return ph


def tail_percentile(seconds: list[float]) -> tuple[float, float]:
    """(percentile, value): p99, or lower when fewer than ten samples
    would lie beyond p99."""
    n = len(seconds)
    p = min(0.99, 1 - 10 / n) if n else 0.0
    if p <= 0:
        return 0.0, 0.0
    ordered = sorted(seconds)
    return 100 * p, ordered[max(0, math.ceil(p * n) - 1)]


class GcWatch:
    """Garbage-collector pauses, taken from gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False


# ------------------------------------------------------------- metrics


def end_to_end(wl: Workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    setups = []
    with SpeedProbe() as probe:
        # a cheap set-up repeats until SETUP_MIN_S, so its median is steady
        while len(setups) < SETUP_REPEATS or clock() - setups[0][0] < SETUP_MIN_S:
            gc.collect()
            t0 = clock()
            wl.setup(tally)
            setups.append((t0, clock()))
        ph = run_phase(wl, tally, seconds, rng=random.Random(seed))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    nominal = [probe.nominal(a, b) for a, b in zip(ph.t0, ph.t1)]
    raw = ph.seconds()
    pct, tail = tail_percentile(raw)
    print(
        f"perfbench {wl.name}: {len(raw)} ops, {math.fsum(raw):.3f} s inside the program, "
        f"{ph.wall_s:.3f} s wall, cpu/wall {ph.cpu_s / ph.wall_s:.3f}; unscaled "
        f"{len(raw) / math.fsum(raw):.4g} ops/s, p50 {statistics.median(raw) * 1e6:.1f} us, "
        f"p{pct:.2f} {tail * 1e6:.1f} us; {len(probe.starts)} speed samples, median "
        f"{statistics.median(b - a for a, b in zip(probe.starts, probe.ends)) * 1e3:.3f} ms",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": statistics.median(probe.nominal(a, b) for a, b in setups),
        "peak_rss_mb": peak_kb / 1024,
        "ops_per_s": len(nominal) / math.fsum(nominal),
    }
    return metrics, tally


def rate(ph: Phase, stage: str) -> float:
    units, secs = ph.stage_units.get(stage, (0, 0.0))
    return units / secs if secs else 0.0


def traced(wl: Workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    wl.setup(tally)
    # the untraced reference phase takes a quarter of the run, at least one pass
    with GcWatch() as gcw:
        ref = run_phase(wl, tally, seconds / 4, rng=random.Random(seed), keep=True)
    tracer = Tracer()
    with tracer:
        tr = run_phase(wl, tally, 0, replay=ref)

    by = tracer.by_name()
    get = lambda name: by.get(name, Stat())  # noqa: E731
    m: dict[str, float] = {}
    for fn in ("vt_syndrome", "rsyn0", "run_profile", "weights", "interleave", "deinterleave"):
        m[f"words.{fn}.calls"] = get(f"words.{fn}").calls
        m[f"words.{fn}.self_s"] = get(f"words.{fn}").self_s
    m["words.check_word.calls"] = get("words.check_word").calls
    m["words.all_words.yielded"] = get("words.all_words").yielded
    m["search.all_words_yielded"] = sum(
        st.yielded for (name, parent), st in tracer.stats.items()
        if name == "words.all_words" and parent in SEARCHES
    )
    for name in sorted(SEARCHES):
        m[f"{name}.self_s"] = get(name).self_s
    outer = [st for (name, parent), st in tracer.stats.items() if name in DECODERS and parent not in DECODERS]
    decodes = sum(st.calls for st in outer)
    for name in sorted(DECODERS):
        m[f"{name}.calls"] = get(name).calls
        m[f"{name}.self_s"] = get(name).self_s
    evals = sum(st.under_decoder for st in tracer.stats.values())
    m["decode.syndrome_evals_per_decode"] = evals / decodes if decodes else 0.0
    m["decode.errors"] = sum(st.errors for st in outer)
    for fn in ("ball", "refined_ball", "apply_burst"):
        m[f"channel.{fn}.calls"] = get(f"channel.{fn}").calls
        m[f"channel.{fn}.self_s"] = get(f"channel.{fn}").self_s
    m["channel.ball.outputs"] = tracer.ball_outputs
    m["channel.ball.dedup_ratio"] = (
        tracer.ball_outputs / tracer.ball_generated if tracer.ball_generated else 0.0
    )
    for fn in ("verify_ball_laws", "verify_roundtrip", "verify_disjoint"):
        m[f"verify.{fn}.self_s"] = get(f"verify.{fn}").self_s
    m["cli.main.self_s"] = get("cli.main").self_s
    m["runtime.gc_pause_s"] = gcw.pause_s
    m["runtime.gc_collections"] = gcw.collections
    ref_busy, tr_busy = math.fsum(ref.seconds()), math.fsum(tr.seconds())
    m["trace.overhead_ratio"] = tr_busy / ref_busy
    # diagnostics that need clean timing come from the reference phase
    is_decode = wl.name == "decode"
    pct, tail = tail_percentile(ref.seconds()) if is_decode else (0.0, 0.0)
    m["decode_p50_us"] = statistics.median(ref.seconds()) * 1e6 if is_decode else 0.0
    m["decode_p99_us"] = tail * 1e6
    m["decode.latency_samples"] = len(ref.t0) if is_decode else 0
    m["runtime.cpu_wall_ratio"] = ref.cpu_s / ref.wall_s
    m["roundtrip_per_s"] = rate(ref, "roundtrip")
    m["ballaws_combos_per_s"] = rate(ref, "ballaws")
    m["disjoint_outputs_per_s"] = rate(ref, "disjoint")
    m["failed_ops_ratio"] = tally.failed / tally.attempted

    total_self = sum(st.self_s for st in tracer.stats.values()) or 1.0
    self_share = {
        layer: sum(st.self_s for (name, _), st in tracer.stats.items() if name.split(".")[0] == layer)
        / total_self
        for layer in LAYERS
    }
    # time inside the outermost span of each group, over the traced busy time
    groups = {"search functions": SEARCHES, "decoders": DECODERS}
    groups |= {f"{layer} layer": {n for n, _ in tracer.stats if n.startswith(layer + ".")} for layer in LAYERS}
    inclusive_share = {
        label: sum(st.total_s for (n, p), st in tracer.stats.items() if n in names and p not in names)
        / tr_busy
        for label, names in groups.items()
    }
    report = {
        "workload": wl.name,
        "seed": seed,
        "reference_ops": len(ref.t0),
        "tail_percentile": pct,
        "self_share_by_layer": self_share,
        "inclusive_share": inclusive_share,
        "spans": tracer.table(),
    }
    print(
        f"perfbench {wl.name} traced: overhead x{m['trace.overhead_ratio']:.2f}; self-time shares "
        + ", ".join(f"{k} {v:.2f}" for k, v in self_share.items())
        + "; inclusive shares "
        + ", ".join(f"{k} {v:.2f}" for k, v in inclusive_share.items()),
        file=sys.stderr,
    )
    return m, tally, report


# ------------------------------------------------------------- main


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    declared = declared_metrics(trace)
    wl = WORKLOADS[workload](FULL, load_golden())
    if trace:
        values, tally, report = traced(wl, seed, seconds)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    else:
        values, tally = end_to_end(wl, seed, seconds)
    stray = {d["name"] for d in declared} ^ set(values)
    if stray:
        raise BenchError(f"metrics out of step with BENCHMARK.json: {sorted(stray)}")
    for problem in tally.errors:
        print(f"perfbench check failed: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
