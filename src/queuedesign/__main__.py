"""``python -m queuedesign``: the same CLI as the ``queuedesign`` console script."""

from .cli import main

if __name__ == "__main__":
    main()
