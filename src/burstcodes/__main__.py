"""`python -m burstcodes ...` runs the command line front door."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
