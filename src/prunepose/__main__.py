"""``python -m prunepose``: the same command line as the ``prunepose`` script."""

from .cli import main

if __name__ == "__main__":
    main()
