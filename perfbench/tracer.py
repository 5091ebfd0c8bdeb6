"""Per-layer tracing of the burstcodes package, installed from outside.

Every public function of the layer modules is replaced by a wrapper
that records a span: its layer-qualified name, its parent span, the
CPU time it took and the part of that time its child spans did not
cover (self time).  Spans are aggregated in memory per (name, parent)
and read out once the traced work has ended.

`from .words import vt_syndrome` binds the function object into the
importing module at import time, so a wrapper is installed under every
name, in every burstcodes module, that refers to the original object.
Module-level lookups at call time (including inside closures and
lambdas of the package) then reach the wrapper.

Generator functions (`all_words`) get a counting wrapper instead of a
span: the time spent producing items runs inside the consumer's frame
and is charged to the consumer's span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "burstcodes"
LAYERS = ("words", "channel", "codes", "c31", "cts", "verify", "cli")

DECODERS = frozenset(
    {
        "codes.vt_decode",
        "codes.lev2_decode",
        "codes.c21_decode",
        "codes.svt21_decode",
        "cts.cts_decode",
        "c31.c31_decode",
    }
)
SEARCHES = frozenset(
    {"codes.pigeonhole_search", "c31.c31_param_search", "cts.cts_param_search"}
)
# the syndrome and weight primitives decoders call to filter candidates;
# run_profile is left out because rsyn0 and run_count call it themselves
SYNDROME_PRIMITIVES = frozenset(
    {"words.vt_syndrome", "words.rsyn0", "words.run_count", "words.weights"}
)


class Stat:
    """Aggregate of the spans of one (name, parent) pair."""

    __slots__ = ("calls", "total_s", "self_s", "errors", "under_decoder", "yielded")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.under_decoder = 0
        self.yielded = 0


class Tracer:
    """Wraps the package's public functions; `uninstall` restores them.

    Not reentrant across threads: the benchmark runs one caller.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str | None], Stat] = {}
        self.ball_generated = 0
        self.ball_outputs = 0
        self._stack: list[list] = []  # [name, child_s] per open span
        self._decoder_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")  # None: no such layer, no spans
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ wrappers

    def _stat(self, name: str, parent: str | None) -> Stat:
        key = (name, parent)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack = self._stack
        stat = self._stat
        clock = time.process_time  # the clock run.py times ops with
        is_decoder = name in DECODERS
        is_syndrome = name in SYNDROME_PRIMITIVES
        tracer = self
        post = self._ball_post if name == "channel.ball" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if is_decoder:
                tracer._decoder_depth += 1
            under = is_syndrome and tracer._decoder_depth > 0
            failed = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                if is_decoder:
                    tracer._decoder_depth -= 1
                st = stat(name, parent)
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                st.errors += failed
                st.under_decoder += under
            if post is not None:
                post(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stack = self._stack
        stat = self._stat

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = stat(name, stack[-1][0] if stack else None)
            st.calls += 1
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                st.yielded += count

        return wrapper

    def _ball_post(self, result) -> None:
        # ball() tries every start and every inserted word, then dedups
        self.ball_generated += (len(result.center) - result.t + 1) << result.s
        self.ball_outputs += result.size

    # ------------------------------------------------------------ readout

    def by_name(self) -> dict[str, Stat]:
        """Stats summed over parents."""
        out: dict[str, Stat] = {}
        for (name, _parent), st in self.stats.items():
            acc = out.setdefault(name, Stat())
            for slot in Stat.__slots__:
                setattr(acc, slot, getattr(acc, slot) + getattr(st, slot))
        return out

    def table(self) -> list[dict]:
        """Every (name, parent) aggregate, largest self time first."""
        rows = [
            {
                "name": name,
                "parent": parent,
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                "errors": st.errors,
                "under_decoder": st.under_decoder,
                "yielded": st.yielded,
            }
            for (name, parent), st in self.stats.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
