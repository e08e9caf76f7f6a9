"""``python -m fracsmooth``: the same commands as the ``fracsmooth`` script."""

from .cli import main

if __name__ == "__main__":
    main()
