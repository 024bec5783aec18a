"""``python -m finsum``: the command-line front end, ``finsum.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
