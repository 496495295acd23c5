"""Process entry point: ``python -m qmask`` and the ``qmask`` script both run ``run``."""

import gc

from .cli import main


def run() -> int:
    """``cli.main`` on ``sys.argv``, then a frozen heap for the process's exit.

    Shutdown's full collections skip frozen objects (``gc.disable`` does
    not stop them), which saves about 20 ms per process. ``cli.main``
    leaves the collector alone, as in-process callers run it many times.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
