"""How fast the benchmark's CPU runs, to put host times on one scale.

The benchmark runs on a few virtual CPUs of a shared machine, and each
virtual CPU's speed changes with what the rest of the machine does: a
fixed piece of Python work takes about 4.5 ms in some stretches and
about 7 ms in others, switching within a second, with no steal time
reported.  The two virtual CPUs switch independently (their speeds
correlated at -0.3 over half-second windows), and CPU time slows with
wall time, so no clock of the guest tells a slower program from a
slower host.

The benchmark therefore runs everything on one CPU (:func:`pin`) and
measures that CPU's speed while the program runs on it: a sampler
process (:class:`SpeedSampler`) wakes every :data:`PERIOD_S`, times a
fixed piece of work that has nothing to do with the program
(:func:`probe_s`: interpreter loops over ints, dicts and lists, and
small NumPy operations, the two kinds of work the simulator does), and
writes the time down.  An operation timed from ``t0`` to ``t1`` is put
on the benchmark's scale by :meth:`SpeedSampler.scale`: its time times
:data:`REFERENCE_S` over the mean probe time in the window widened by
:data:`MARGIN_S`, i.e. the time it would have taken on a CPU where the
probe takes :data:`REFERENCE_S`.  A change to the program moves the
operation and not the probe, so it moves the scaled time in full; a
change of the CPU's speed moves both, and cancels.

How well it cancels depends on the work.  A Table I regeneration is
computation, and scaling cut the quartile spread of ten runs' median
regeneration time from 4-17% to 1-3%.  A serve request is half kernel
time and waits on other threads and on fsyncs, which a slower host
stretches more than it stretches the probe; scaling cut the spread of
its batch medians only by about half.

The probe runs about 2% of the time and preempts the program when it
does, so scaled times include that 2%, on every commit alike.

Run as a script, this module is the sampler: ``python3 hostspeed.py
FILE`` appends ``<perf_counter> <probe seconds>`` lines to FILE until
it is terminated or its parent exits.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: the probe's time on the benchmark's scale: about its mean on the
#: 2-vCPU Xeon virtual machine of the README's baseline
REFERENCE_S = 0.00038

#: seconds the sampler sleeps between two probes
PERIOD_S = 0.02

#: a window also takes the probes this close to it: a serve request
#: lasts about 10 ms, shorter than PERIOD_S, and the speed holds for
#: about this long (scaling each request over its window widened by
#: 0.1 s steadied batch medians more than by 0.5 s or per batch)
MARGIN_S = 0.1

#: probes a window needs; one with fewer takes the nearest ones
MIN_PROBES = 5

_INTS = list(range(512))
_VEC = np.arange(4096, dtype=np.int64)


def _work() -> int:
    """The fixed work: about 0.35 ms on the reference CPU."""
    acc = 0
    table: dict[int, int] = {}
    for i in _INTS:
        table[i & 63] = table.get(i & 63, 0) + i
    for _ in range(3):
        for i in _INTS:
            acc += table[i & 63] % 7
        v = (_VEC * 33 + acc) & 1023
        acc += int(np.count_nonzero(np.bincount(v, minlength=1024)))
    return acc


def probe_s() -> float:
    """CPU seconds the fixed work takes now.

    Thread CPU time leaves out the time the probe waits while the
    program runs, but not a slower CPU, which the guest cannot see.
    """
    t0 = time.thread_time()
    _work()
    return time.thread_time() - t0


def pin() -> int:
    """Restrict this process, and every process it starts from now on,
    to one CPU of those it may use; return that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """The sampler process, and the scale its probes give.

    Start it after :func:`pin`, so that it probes the CPU the program
    runs on, and use it as a context manager, which stops and reaps it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        path.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(path)],
            stdin=subprocess.DEVNULL,
        )
        self._times: list[float] = []
        self._probes: list[float] = []
        self._read = 0

    def __enter__(self) -> SpeedSampler:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _load(self) -> None:
        """Read the probes written since the last call."""
        with self.path.open("rb") as fh:
            fh.seek(self._read)
            data = fh.read()
        complete = data[: data.rfind(b"\n") + 1]
        self._read += len(complete)
        for line in complete.decode().splitlines():
            t, probe = line.split()
            self._times.append(float(t))
            self._probes.append(float(probe))

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured from ``t0`` to ``t1`` (``perf_counter``
        times), on the benchmark's scale."""
        self._load()
        if not self._times:
            raise RuntimeError(f"no speed probes in {self.path}")
        return seconds * speed_factor(self._times, self._probes, t0, t1)


def speed_factor(
    times: list[float], probes: list[float], t0: float, t1: float
) -> float:
    """:data:`REFERENCE_S` over the mean of the probes started within
    :data:`MARGIN_S` of the window from ``t0`` to ``t1``, or of the
    :data:`MIN_PROBES` probes nearest the window when it holds fewer.
    ``times`` is ascending."""
    lo = bisect.bisect_left(times, t0 - MARGIN_S)
    hi = bisect.bisect_right(times, t1 + MARGIN_S)
    if hi - lo < MIN_PROBES:
        mid = (t0 + t1) / 2
        k = bisect.bisect_left(times, mid)
        around = range(max(0, k - MIN_PROBES), min(len(times), k + MIN_PROBES))
        nearest = sorted(around, key=lambda i: abs(times[i] - mid))[:MIN_PROBES]
        return REFERENCE_S / statistics.fmean(probes[i] for i in nearest)
    return REFERENCE_S / statistics.fmean(probes[lo:hi])


def _sample(path: Path) -> None:
    parent = os.getppid()
    with path.open("a") as out:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            t = time.perf_counter()
            out.write(f"{t:.6f} {probe_s():.9f}\n")
            out.flush()


if __name__ == "__main__":
    _sample(Path(sys.argv[1]))
