"""Reference loop for scaling times to a nominal CPU speed.

The CPU this benchmark shares runs the same Python code up to almost
twice as slowly for seconds to minutes at a time (other tenants).  The
end-to-end times, ``ms_per_iter`` and ``setup_s``, are therefore scaled
to nominal speed: raw seconds times NOMINAL_S over the time the fixed
loop below took right before and after the measured interval.  On a quiet x86 core the loop takes about NOMINAL_S, so scaled
times read close to raw ones.  The loop runs no treeroute code, so no
change to the program can move it.
"""

import time

NOMINAL_S = 0.020


def reference_s() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


def with_speed(measure):
    """``measure()`` run between two reference loops: its result, and the
    factor that scales times taken meanwhile to nominal speed."""
    before = reference_s()
    value = measure()
    return value, NOMINAL_S * 2 / (before + reference_s())
