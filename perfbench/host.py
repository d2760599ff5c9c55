"""Host facts recorded with every result, and small measurement helpers.

The host's speed drifts between runs, so every result carries a fixed
pure-Python probe loop timed before and after the run, the core count,
an in-run two-process CPU parallel ceiling, numpy presence and the
Python version.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

_BURN = (
    "import time\n"
    "t=time.perf_counter()\n"
    "x=0\n"
    "for i in range(1000000): x+=i*i%7\n"
    "print(time.perf_counter()-t)\n"
)


def probe_seconds():
    """Time a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(300000):
            x += i * i % 7
        times.append(perf_counter() - start)
    return sorted(times)[1]


def _burn(count):
    """Run ``count`` CPU-burning child processes at once; return each
    one's own loop time."""
    procs = [subprocess.Popen([sys.executable, "-c", _BURN],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(count)]
    try:
        return [float(proc.communicate(timeout=60)[0]) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def parallel_ceiling():
    """Speed-up of two concurrent CPU-bound processes over one: 2.0 on
    two independent cores, near 1.0 when they share one."""
    (solo,) = _burn(1)
    pair = _burn(2)
    return sum(solo / t for t in pair)


def have_numpy():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def host_facts():
    return {
        "cpu_count": os.cpu_count(),
        "parallel_ceiling": round(parallel_ceiling(), 3),
        "numpy": have_numpy(),
        "python": platform.python_version(),
    }


def proc_status_kb(field, pid="self"):
    """A ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss():
    """Reset this process's ``VmHWM`` to its current RSS; return whether
    the kernel allowed it."""
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        return False
    return True


def percentile(values, q):
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)
