"""``python -m pivotlab``: the command line of :mod:`pivotlab.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
