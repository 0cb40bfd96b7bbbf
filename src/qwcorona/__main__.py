"""`python -m qwcorona` runs the qwc command line tool."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
