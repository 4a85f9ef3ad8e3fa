"""Machine-speed calibration: wall times rescaled to a reference speed.

A machine whose cores are shared with other tenants changes speed by up to 2x
over tens of seconds.  A fixed pure-Python kernel, timed next to the work,
slows down with it: on a 2-core shared Xeon, over 6-second windows, scan and
CSV-write times varied by 36-52% (interquartile range over median) while
their ratio to this kernel's time varied by 7%.

So the benchmark reports every time in *reference seconds*: wall seconds
multiplied by K_REF / k, where k is the kernel time measured around the work.
On a machine where the kernel takes K_REF, reference seconds are wall seconds.
Runs print the raw wall figures next to the rescaled ones.
"""

import time

K_REF = 0.0025  # kernel time, in seconds, that defines one reference second


def _kernel() -> int:
    acc = 0
    parts = []
    for i in range(20000):
        acc += (i * 7) % 13
        if i % 10 == 0:
            parts.append(repr(i * 0.1))
    return acc + len(",".join(parts))


def kernel_time() -> float:
    """Best of three timings of the kernel, in wall seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
