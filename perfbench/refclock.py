"""Reference clock: express wall times at a fixed reference machine speed.

On a shared virtual machine the speed of the CPU drifts by tens of percent
over minutes, and the drift moves pure-Python loops and small NumPy calls
alike. Raw wall times therefore cannot repeat within a tenth between two
sets of runs. The reference kernel below is a fixed piece of work of a few
milliseconds that never calls hdlab. It is timed again and again while the
benchmark runs: between ops, and on an interval timer inside long ops. An
op's wall time, less the time the kernel itself took inside the op, is then
multiplied by NOMINAL_S / (mean kernel time measured around that op).

NOMINAL_S is a constant of the benchmark, so a scaled time reads "seconds
on a machine where the reference kernel takes NOMINAL_S".
"""

import signal
import statistics
import time

import numpy as np

# Median kernel time on the machine the benchmark was written on (2-core
# x86-64 VM, Python 3.11, NumPy 2.4 with OpenBLAS pinned to one thread).
NOMINAL_S = 0.0030

# Interval between kernel samples inside an op, and samples taken between ops.
INTERVAL_S = 0.15
BETWEEN_OPS = 2


class ReferenceKernel:
    """A pure-Python loop, small dot products and small GEMMs, ~1 ms each."""

    def __init__(self):
        rng = np.random.default_rng(20130806)
        self._cols = np.asfortranarray(rng.standard_normal((160, 48)))
        self._r = rng.standard_normal(160)
        self._a = rng.standard_normal((128, 128))
        self._b = rng.standard_normal((128, 128))
        self._c = np.empty((128, 128))

    def run(self):
        acc = 0
        for i in range(10000):
            acc = (acc * 31 + i) % 1000003
        cols, r = self._cols, self._r
        s = 0.0
        for _ in range(12):
            for j in range(cols.shape[1]):
                c = cols[:, j]
                z = c @ r
                if z > s:
                    s = z
        for _ in range(12):
            np.matmul(self._a, self._b, out=self._c)
        return acc + s + float(self._c[0, 0])

    def sample(self):
        """Run the kernel once and return its wall time in seconds."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class ReferenceClock:
    """Times ops at reference speed.

    Usage: call `between()` before the first op and after each op, and wrap
    each op in `start()` / `stop()`. `stop()` returns an OpTiming.
    """

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.samples = []          # every kernel time, in order
        self.in_op_total = 0.0     # seconds spent in the kernel inside ops, ever
        self._last_between = []
        self._inside = []
        self._t0 = None
        self._op_total0 = 0.0
        self._pending = None

    def net_time(self):
        """perf_counter() less the kernel time spent inside ops so far."""
        return time.perf_counter() - self.in_op_total

    def between(self, count=BETWEEN_OPS):
        """Sample the kernel between ops; closes the previous op's window."""
        got = [self.kernel.sample() for _ in range(count)]
        self.samples.extend(got)
        if self._pending is not None:
            self._pending.finish(got)
            self._pending = None
        self._last_between = got

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        s = self.kernel.sample()
        self._inside.append(s)
        self.in_op_total += time.perf_counter() - t0

    def start(self):
        self._inside = []
        self._op_total0 = self.in_op_total
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wall = time.perf_counter() - self._t0
        self.samples.extend(self._inside)
        timing = OpTiming(wall, self.in_op_total - self._op_total0,
                          list(self._last_between) + self._inside)
        self._pending = timing
        return timing


class OpTiming:
    """Wall time of one op and the kernel samples around it.

    The scaled time is final only after the following `between()` call adds
    the samples taken just after the op.
    """

    def __init__(self, wall, in_op_kernel_s, samples):
        self.wall = wall
        self.net = wall - in_op_kernel_s
        self.samples = samples

    def finish(self, after):
        self.samples = self.samples + list(after)

    @property
    def ref_mean(self):
        return statistics.fmean(self.samples)

    @property
    def speed(self):
        """Kernel time measured around the op over NOMINAL_S (>1: slow)."""
        return self.ref_mean / NOMINAL_S

    @property
    def scaled(self):
        return self.net / self.speed
