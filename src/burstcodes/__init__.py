"""Codes correcting a burst of t deletions and s insertions.

A (t, s)-burst deletes t consecutive symbols and inserts s arbitrary
ones at the same position.  This package provides the channel model
and exact ball combinatorics, the classic component codes (VT,
two-burst Levenshtein, (2,1)-burst, windowed SVT), an interleaved
construction for any t >= 2s, a four-congruence code for (3, 1),
exhaustive verification with JSON reports, and a seeded simulator.
All words are ASCII '0'/'1' strings; coordinates are 1-based.
"""

from . import c31, channel, codes, cts, errors, simulate, verify, words

_MODULES = (c31, channel, codes, cts, errors, simulate, verify, words)

# each module's __all__ is the one list of its public names; coming
# after the module imports, these make burstcodes.simulate the function
from .c31 import *
from .channel import *
from .codes import *
from .cts import *
from .errors import *
from .simulate import *
from .verify import *
from .words import *

__version__ = "0.1.0"
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
