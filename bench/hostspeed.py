"""Host-speed reference for normalizing benchmark times.

On a shared virtual machine the speed of the CPU a run gets can change by
2-5x over seconds to minutes, whatever the program does; thread CPU time
changes the same way, so it is execution speed, not scheduling.  The
benchmark therefore times, next to its operations, two fixed kernels that
do not touch slpkit: a pure-Python one (a small expression tree walked
1500 times, the kind of interpreter work slpkit does) and a native one
(numpy array arithmetic and a sort).  On the same host, native code slows
by a much smaller factor than interpreted code.  slpkit's operations mix
both, and set-up adds imports, so their times are scaled by the geometric
mean of the two kernels' speeds (``host_factor``): an operation's time
multiplied by the factor measured while it ran is its time at the
reference host speed.  bench/README.md gives the measurements behind this
choice and the bias that remains.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# about the Python kernel's fastest time on the host that defined the benchmark
# (Intel Xeon vCPU at 2.0 GHz, CPython 3.11.7): 1.55 ms minimum, 1.69 ms
# at the first percentile of 1053 samples
REFERENCE_S = 1.6e-3
# the same for the native kernel: 0.139 ms minimum, 0.145 ms at the first
# percentile of 671 samples
NATIVE_REFERENCE_S = 0.14e-3


class _Const:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def ev(self, x):
        return self.value


class _Var:
    __slots__ = ()

    def ev(self, x):
        return x


class _Binary:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b

    def ev(self, x):
        u, v = self.a.ev(x), self.b.ev(x)
        if self.op == "+":
            return u + v
        if self.op == "*":
            return u * v
        return u / v


class _Call:
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn, self.a = fn, a

    def ev(self, x):
        return self.fn(self.a.ev(x))


_X = _Var()
# sqrt(3 x^2 + exp(-x/2) / (x + 1))
_TREE = _Call(math.sqrt, _Binary(
    "+", _Binary("*", _Const(3.0), _Binary("*", _X, _X)),
    _Binary("/", _Call(math.exp, _Binary("*", _Const(-0.5), _X)),
            _Binary("+", _X, _Const(1.0)))))


def _kernel() -> float:
    acc = 0.0
    for i in range(1500):
        acc += _TREE.ev(1e-3 * i)
    return acc


# the kind of native work a vectorized slpkit would do: the tree above
# evaluated on an array ten times, and a sort.  Single-threaded numpy only;
# a threaded BLAS call on the one CPU the benchmark runs on would measure
# thread contention instead.
_XS = 1e-3 * np.arange(1500)
_SHUFFLED = np.random.default_rng(0).random(4000)


def _native_kernel() -> None:
    for _ in range(10):
        np.sqrt(3.0 * _XS * _XS + np.exp(-0.5 * _XS) / (_XS + 1.0))
    np.sort(_SHUFFLED)


def host_factor(speed: float, speed_native: float) -> float:
    """The factor times are scaled by: the geometric mean of the two
    kernels' speeds, chosen by measurement (bench/README.md)."""
    return math.sqrt(speed * speed_native)


def _fastest(kernel) -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_s() -> float:
    """Fastest of three timings of the reference kernel, in seconds."""
    return _fastest(_kernel)


def native_kernel_s() -> float:
    """Fastest of three timings of the native kernel, in seconds."""
    return _fastest(_native_kernel)


class Sampler:
    """Times both kernels every `interval` seconds of process CPU time.

    The timings come from a SIGPROF handler, so an operation that runs for
    seconds is sampled while it runs, not only before and after.  Use as a
    context manager around the timed phase; the main thread must run it.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list = []  # (start, end, kernel s, native kernel s)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel, native = kernel_s(), native_kernel_s()
        self.samples.append((start, time.perf_counter(), kernel, native))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()

    def speeds(self, start: float, end: float) -> tuple:
        """(speed of the Python kernel, speed of the native kernel, seconds
        spent sampling) for the interval [start, end), each speed relative
        to the reference host: from the mean kernel times of the samples
        taken inside it, or of the nearest sample on each side when there
        are none.
        """
        starts = [s[0] for s in self.samples]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        inside = self.samples[lo:hi]
        if not inside:
            inside_or_near = [self.samples[max(lo - 1, 0)],
                              self.samples[min(hi, len(self.samples) - 1)]]
        else:
            inside_or_near = inside
        kernel = statistics.fmean(s[2] for s in inside_or_near)
        native = statistics.fmean(s[3] for s in inside_or_near)
        return (REFERENCE_S / kernel, NATIVE_REFERENCE_S / native,
                sum(s[1] - s[0] for s in inside))
