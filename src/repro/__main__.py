"""``python -m repro …`` — see :mod:`repro.cli` for the commands."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
