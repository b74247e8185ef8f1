"""``python -m weylmass``: the command-line front end of :mod:`weylmass.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
