"""``python -m pgsolve``: the same command line as the ``pgsolve`` script."""

from .cli import run

if __name__ == "__main__":
    run()
