"""A fixed task that shows how fast the host runs Python at the moment.

The benchmark runs on shared hosts whose speed drifts by a fifth or more over
minutes, for every op alike.  A timed run therefore interleaves this task
with its ops and scales its times by ``NOMINAL_NS / median(reference times)``:
it reports them as they would read on a host where the task takes
``NOMINAL_NS``.  The task is benchmark code on constant data (the independent
string counter of inputs.py on the ``loops_barbell`` quiver), so no change to
the program can change it; it runs with the garbage collector off, so the
size of the program's heap does not change it either.
"""

from __future__ import annotations

import gc
import time
from types import SimpleNamespace

from inputs import string_walks

# two loops joined by one arrow; the squares of the loops vanish
QUIVER = SimpleNamespace(
    vertices=("x", "y"),
    arrows=(
        SimpleNamespace(name="alpha", src="x", tgt="x"),
        SimpleNamespace(name="theta", src="y", tgt="x"),
        SimpleNamespace(name="gamma", src="y", tgt="y"),
    ),
    relations=(
        SimpleNamespace(path1=("alpha", "alpha"), path2=()),
        SimpleNamespace(path1=("gamma", "gamma"), path2=()),
    ),
)
LENGTH = 9
# typical CPU time of one call on a shared 2-vCPU Intel Xeon host with
# Python 3.11; it only sets the scale, so it must never change
NOMINAL_NS = 800_000
# share of the ops' CPU time spent on the task
SHARE = 0.05


def reference_ns() -> int:
    """CPU time of one run of the task, in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time_ns()
        string_walks(QUIVER, LENGTH)
        return time.process_time_ns() - t0
    finally:
        if enabled:
            gc.enable()
