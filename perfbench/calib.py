"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host.  There the same
instructions take up to twice as long at some moments as at others, and the
speed changes within a tenth of a second; process CPU time moves with wall
time, so it does not help.  So a ``Sampler`` times a small fixed kernel
every ``INTERVAL`` seconds, from a SIGALRM handler in the process that does
the work.  A sample's slowness is the kernel's time over its reference time
``REF_S``; the mean slowness near an operation is the machine's slowness
during it, and the reported time is the operation's own wall time (the
handler's time taken out) divided by that slowness: the time the operation
would have taken on a machine where the kernel takes ``REF_S``.

Once numpy is loaded in the process, the kernel is the kind of work the
program does: small numpy calls on masks and short arrays, method calls and
small objects.  Before that it is plain interpreted arithmetic: the kernel never imports numpy itself,
so a child process samples itself without paying for the program's imports.
Each variant has its own ``REF_S``, about what it takes on an idle core of
an Intel Xeon host, so scaled times read as seconds on such a core.  The
kernel belongs to the benchmark, so a change to the program moves the
operation's time and not the kernel's.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import sys
import time

REF_S = {"math": 3.0e-4, "numpy": 4.1e-4}
INTERVAL = 0.02
_GRID = []


class _Scaled:  # a method call with a keyword, as the program makes them
    def __init__(self, a):
        self.a = a

    def at(self, x, scale=1.0):
        return self.a * x * scale


_SCALED = (_Scaled(0.5), _Scaled(1.5))


def _numpy():
    """numpy if a finished import has loaded it, else None."""
    np = sys.modules.get("numpy")
    spec = getattr(np, "__spec__", None)
    if spec is None or getattr(spec, "_initializing", False):
        return None
    return np


def kernel() -> str:
    """Run the kernel once; return which variant ran."""
    np = _numpy()
    s = 0.0
    if np is None:
        for i in range(2000):
            x = i * 5e-4
            s += math.exp(-x) * math.sqrt(x + 1.0)
        return "math"
    if not _GRID:
        _GRID.append(np.linspace(-1.0, 1.0, 16))
    grid = _GRID[0]
    for i in range(40):
        x = grid * (i * 1e-2)
        neg = x < 0.0
        y = np.where(neg, x * 0.5, x * 1.5)
        if np.any(neg):
            s += float(np.abs(y[neg]).sum())
        s += _SCALED[i & 1].at(math.exp(-i * 1e-2), scale=2.0)
        d = {"i": i, "s": s}
        s += len([v for v in d.values() if v])
    return "numpy"


class Sampler:
    """Kernel timings every ``INTERVAL`` seconds of wall time, from SIGALRM.

    ``starts[i]`` and ``ends[i]`` bound the i-th handler call and
    ``slowness[i]`` is the kernel's time inside it over its ``REF_S``.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowness: list[float] = []
        self._old = None

    def _handler(self, signum, frame):
        # the handler runs between any two bytecodes of the program, imports
        # included, so it must never raise into them
        try:
            t0 = time.perf_counter()
            variant = kernel()
            t1 = time.perf_counter()
        except Exception:
            return
        self.starts.append(t0)
        self.slowness.append((t1 - t0) / REF_S[variant])
        self.ends.append(time.perf_counter())

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    @contextlib.contextmanager
    def paused(self):
        """No samples while a child process works: it samples itself."""
        running = signal.getitimer(signal.ITIMER_REAL)[1] > 0.0
        if running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            if running:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def window(self, t0: float, t1: float) -> tuple[float, float, int]:
        """(handler seconds inside [t0, t1], sum and count of slowness near it).

        The kernel samples are those that start within one interval of the
        window, so a short operation borrows its neighbours' samples.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        handler = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL)
        if lo == hi:  # no sample near: the nearest one on either side
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return handler, sum(self.slowness[lo:hi]), hi - lo

    def summary(self, t0: float, t1: float) -> dict:
        handler, slowness, n = self.window(t0, t1)
        return {"handler_s": handler, "slowness_sum": slowness, "samples": n}


class Measured:
    """An operation's result together with the sampler summary of its own
    process, for operations whose work runs in a child process."""

    def __init__(self, result, summary: dict):
        self.result = result
        self.summary = summary


SAMPLER = Sampler()
MARK = "perfbench-calibration "


def scaled(wall: float, summary: dict) -> tuple[float, float]:
    """(scaled seconds, slowness) of a block from its sampler summary."""
    if not summary["samples"]:
        raise RuntimeError("no calibration sample was taken")
    slowness = summary["slowness_sum"] / summary["samples"]
    return (wall - summary["handler_s"]) / slowness, slowness
