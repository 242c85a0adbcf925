"""`python -m quograph`: the `quograph` command line, `cli.main`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
