"""Process entry point: ``python -m qmask`` and the ``qmask`` script both run ``run``."""

import gc


def run() -> int:
    """``cli.main`` on ``sys.argv`` with the collector off, then a frozen heap for the exit.

    The process owns the collector, so ``run`` turns it off before it
    imports ``cli``, and with it numpy: the imports' allocations would
    otherwise trigger about 36 collections, which find no garbage
    (``import qmask`` loads nothing, so numpy is not yet loaded here).
    Shutdown's full collections ignore ``gc.disable`` but skip frozen
    objects, so ``gc.freeze`` saves about 20 ms per process. ``cli.main``
    leaves the collector alone, as in-process callers run it many times.
    """
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
