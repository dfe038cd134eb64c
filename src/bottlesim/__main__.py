"""``python -m bottlesim``: the ``bottlesim`` command line."""

import sys

from .expcli import main

if __name__ == "__main__":
    sys.exit(main())
