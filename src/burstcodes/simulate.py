"""Randomized burst trials with a self-contained PRNG.

Results must be byte-identical across machines and interpreter
versions, so the generator is pinned here rather than borrowed from
the random module: SplitMix64 (Steele, Lea, Flood 2014), 64-bit state,
one addition and two xor-multiply mixes per draw.  Unbiased bounded
draws use rejection sampling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .channel import BurstSpec, _check_room, _check_sizes, apply_burst
from .errors import DecodingError
from .families import FAMILIES
from .words import _check_int

__all__ = ["SplitMix64", "SimulationResult", "simulate", "family_setup"]

_MASK = (1 << 64) - 1
_WITNESS_CAP = 10


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    def __init__(self, seed: int):
        _check_int(seed, None, "seed must be an int, got {!r}", seed)
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bound <= 2^64, without modulo bias."""
        _check_int(bound, 1, "bound must be positive")
        if bound > 1 << 64:
            raise ValueError(f"bound must be at most 2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next64()
            if draw < limit:
                return draw % bound

    def word(self, length: int) -> str:
        """Uniform word of the given length, an int from 0 to 64."""
        _check_int(length, 0, "word length must be an int >= 0, got {!r}", length)
        if length > 64:
            raise ValueError(f"word length must be at most 64, got {length}")
        if length == 0:
            return ""
        return format(self.below(1 << length), f"0{length}b")


@dataclass
class SimulationResult:
    family: str
    n: int
    t: int
    s: int
    seed: int
    trials: int
    successes: int
    params: dict
    codebook_size: int
    witnesses: list = field(default_factory=list)

    @property
    def failures(self) -> int:
        return self.trials - self.successes

    def to_dict(self) -> dict:
        return asdict(self) | {"failures": self.failures}


def family_setup(
    family: str, n: int, t: int | None = None, s: int | None = None, f: int | None = None
):
    """Search the best codebook for a family and build its decoder.

    Returns (t, s, params_dict, codebook, decode) where decode maps a
    received word back to the codeword.  Families: those in FAMILIES
    whose decoder needs no window, all but svt21; cts needs t and s.
    t and s go through Family.burst_for, then must be ints >= 0,
    and a length n < t, which no (t, s)-burst fits in, is refused.
    f, the run cap, goes to the search of a family that reads it and
    is refused by any other.
    """
    fam = FAMILIES.get(family) if isinstance(family, str) else None
    if fam is None:
        raise ValueError(f"unknown family {family!r}")
    if "window" in fam.needs:
        raise ValueError(f"{family} decodes only inside a given window")
    fam.check_reads(family, f=f)
    t, s = fam.burst_for(family, t, s)
    _check_sizes(t, s)
    _check_room(n, t, s)
    params, book = fam.search(n, t, s, None, f)
    return t, s, book.params, book, lambda y: fam.decode(y, params, n, None).word


def simulate(
    family: str,
    n: int,
    trials: int,
    seed: int,
    *,
    t: int | None = None,
    s: int | None = None,
    f: int | None = None,
) -> SimulationResult:
    """Hit random codewords with random bursts and decode them back.

    Per trial the stream is consumed in a fixed order: codeword index,
    burst start, inserted word.  Up to 10 failing trials are kept as
    replayable witnesses.  t, s and f go to family_setup.
    """
    # zero trials would report a vacuous success 0/0
    _check_int(trials, 1, "trials must be >= 1, got {}", trials)
    rng = SplitMix64(seed)
    t, s, params, book, decode = family_setup(family, n, t, s, f)
    successes = 0
    witnesses: list[dict] = []
    for _ in range(trials):
        x = book.members[rng.below(book.size)]
        start = 1 + rng.below(n - t + 1)
        ins = rng.word(s)
        y = apply_burst(x, BurstSpec(t, s, start, ins))
        try:
            got = decode(y)
        except DecodingError as exc:
            got = f"{type(exc).__name__}: {exc}"
        if got == x:
            successes += 1
        elif len(witnesses) < _WITNESS_CAP:
            witnesses.append(
                {"codeword": x, "start": start, "inserted": ins, "decoded": got}
            )
    return SimulationResult(
        family=family,
        n=n,
        t=t,
        s=s,
        seed=seed,
        trials=trials,
        successes=successes,
        params=params,
        codebook_size=book.size,
        witnesses=witnesses,
    )
