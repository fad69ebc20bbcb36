"""``python -m robust_trees`` runs the ``robust-trees`` command line."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
