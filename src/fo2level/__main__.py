"""``python -m fo2level``: the command-line interface, without installing the script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
