"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Shows that the checks do not trust the program: a planted wrong golden
line, a planted wrong decode, a planted wrong roundtrip and a search
refused by the enumeration guard each raise failed_ops_ratio above 0.
Also shows that clean runs of every workload pass and that the traced
replay reproduces the untraced outputs exactly.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import run

SEED = 7
SECONDS = 0.3


def traced(wl):
    return run.traced(wl, SEED, SECONDS)


def planted(cls, patch):
    """A workload class whose set-up plants `patch(bc)` into the package."""

    class Planted(cls):
        def setup(self, tally):
            super().setup(tally)
            patch(self.bc)

    return Planted


def flip_last_bit(fn, field=None):
    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        word = getattr(out, field) if field else out
        bad = word[:-1] + ("1" if word[-1] == "0" else "0")
        return dataclasses.replace(out, **{field: bad}) if field else bad

    return wrong


def main() -> int:
    golden = run.load_golden()
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for name, cls in run.WORKLOADS.items():
        metrics, tally = run.end_to_end(cls(run.TINY, golden), SEED, SECONDS)
        expect(tally.failed == 0 and tally.attempted > 0, f"{name}: clean untraced run passes its checks")
        expect(all(v > 0 for v in metrics.values()), f"{name}: every end-to-end metric is above 0")
        metrics, tally, report = traced(cls(run.TINY, golden))
        expect(
            tally.failed == 0 and metrics["failed_ops_ratio"] == 0 and report["reference_ops"] > 0,
            f"{name}: traced replay of {report['reference_ops']} ops matches the untraced outputs",
        )
        expect(metrics["trace.overhead_ratio"] > 0, f"{name}: traced run recorded spans")

    bad = copy.deepcopy(golden)
    cmd = run.TINY.search[1]
    bad["stdout"][cmd] = bad["stdout"][cmd].replace('"size": ', '"size": 1')
    metrics, _, _ = traced(run.SearchWorkload(run.TINY, bad))
    expect(metrics["failed_ops_ratio"] > 0, "search: a planted wrong golden line is a failed op")

    guarded = dataclasses.replace(run.TINY, search=("search c21 --n 25",))
    refused = copy.deepcopy(golden)
    refused["stdout"]["search c21 --n 25"] = "{}"
    metrics, _, _ = traced(run.SearchWorkload(guarded, refused))
    expect(metrics["failed_ops_ratio"] == 1, "search: a GuardLimit refusal (exit 3) is a failed op")

    def wrong_vt(bc):
        bc.vt_decode = flip_last_bit(bc.vt_decode)

    metrics, _, _ = traced(planted(run.DecodeWorkload, wrong_vt)(run.TINY, golden))
    expect(0 < metrics["failed_ops_ratio"] < 1, "decode: a planted wrong decode is a failed op")

    def wrong_when_traced(bc):
        right = bc.vt_decode

        def decode(*args):
            word = right(*args)
            if hasattr(bc.vt_syndrome, "__wrapped__"):  # the tracer is installed
                word = word[:-1] + ("1" if word[-1] == "0" else "0")
            return word

        bc.vt_decode = decode

    _, tally, _ = traced(planted(run.DecodeWorkload, wrong_when_traced)(run.TINY, golden))
    expect(tally.failed > 0, "decode: a wrong output seen only under tracing is a failed op")

    def wrong_c21(bc):
        bc.c21_decode = flip_last_bit(bc.c21_decode, "word")

    metrics, _, _ = traced(planted(run.VerifyWorkload, wrong_c21)(run.TINY, golden))
    expect(metrics["failed_ops_ratio"] > 0, "verify: a failing roundtrip verdict is a failed op")

    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
