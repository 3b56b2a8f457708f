"""``python -m repro.gauntlet [row ...]``: see :mod:`repro.gauntlet`."""

import sys

from .rows import main

if __name__ == "__main__":
    sys.exit(main())
