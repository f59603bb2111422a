"""Entry point for ``python -m qic``; the same commands as the ``qic`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
