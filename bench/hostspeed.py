"""Host-speed reference: a fixed pure-Python kernel timed next to every sample.

On a shared host the speed of one core can change by a factor of almost two
within seconds and stay changed for minutes, for reasons outside the
benchmark (CPU time follows wall time, so it is not waiting). A median over
one run then reads whichever speed the host had during that run. To measure
the program rather than the host, every timing sample is taken together
with the time of ``kernel``, a fixed piece of interpreter work of the same
kind as penheal's (string splitting, dict counting, sorting, tuple
building), run on the same core just before and after the sample. The
sample is reported in reference seconds::

    seconds * NOMINAL_S / reference_seconds

that is, the time the sample would have taken had ``kernel`` run in
``NOMINAL_S``. A faster program lowers the sample and leaves the kernel as
it was, so a gain shows in full; a slower host raises both, and cancels.
The raw samples and reference times stay in ``.bench_out/``.
"""

from __future__ import annotations

import statistics
import time

# One block of ``kernel`` takes about this long when the reference host
# (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11) runs at full speed.
NOMINAL_S = 0.0035
BLOCK = 8

_TEXT = " ".join(f"word{i % 97} token{i % 13} value{i}" for i in range(600))


def kernel() -> int:
    counts: dict[str, int] = {}
    for token in _TEXT.split():
        counts[token] = counts.get(token, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    total = 0
    for token, count in ordered:
        total += len(token) * count
    return total + len(tuple((t, c) for t, c in ordered))


def reference() -> float:
    """Seconds one block of ``kernel`` takes now."""
    start = time.perf_counter()
    for _ in range(BLOCK):
        kernel()
    return time.perf_counter() - start


def settled_reference() -> float:
    """Median of three blocks after one warm-up block (for a fresh process)."""
    reference()
    return statistics.median(reference() for _ in range(3))


def scaled(seconds: float, reference_seconds: float) -> float:
    """``seconds`` in reference seconds."""
    return seconds * NOMINAL_S / reference_seconds
