"""Shared pieces of the seeded file fuzzers (timelines, traces).

Each fuzzer mutates a valid file and holds its loader to one contract: it
returns something whose queries answer with finite numbers, or it raises a
``ReproError`` that names the file.  It never hangs, and never lets another
exception out.
"""

import contextlib
import signal

#: Values a hostile editor puts in place of one value of a file.
HOSTILE = (
    None, True, 0, -1, 0.0, -0.0, -1e9, float("nan"), float("inf"), float("-inf"),
    10**400, "", "x", "1e9", "nan", "a->b", [], {}, [1, 2], {"x": 1},
)

#: JSON nested past any parser's stack.
DEEP = "[" * 100_000 + "]" * 100_000


@contextlib.contextmanager
def deadline(seconds=5.0):
    """Fail a case that takes longer than ``seconds`` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"load exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
