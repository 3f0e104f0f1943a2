"""The host's speed, measured alongside the jobs by a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed changes
with the load of other tenants, often for the whole length of a run: the
same job can take 0.8 s in one period and 1.6 s in another, so no
statistic over the job times of one run is steady from run to run. The
jobs of a run are therefore interleaved with timings of `kernel`, a fixed
pure-Python loop (integer arithmetic, dictionary updates, tuple
allocation, a sort with a key function) that does not touch ``src/``.
The mean job time *at reference speed* is the mean host time of the
run's jobs scaled by ``REF_KERNEL_S`` over the mean kernel time of the run
(`SpeedProbe.mean_s`): what a job would take on a host where the kernel
takes ``REF_KERNEL_S``. A change to the program moves the jobs and leaves the
kernel alone, so it shows in full; a change of the host's speed moves
both and cancels, as far as the kernel is slowed like the job.

Both are means, not medians. On a shared host the kernel's time jumps
between levels (about 6 ms and 10 ms on the reference host) within
seconds, and so do the jobs' times; the jobs live through the levels in
proportion to their share of the run, which a mean over samples spread
evenly in time follows and a median does not. Over eight 15-second runs
of ``fleet`` the spread (interquartile range over median) of the mean job
time was 0.12 in host seconds, 0.05 scaled by the median kernel time and
0.04 scaled by the mean; over six runs of the memory-heavier ``verify``,
0.20, 0.13 and 0.10. Scaling the median job time instead gave 0.06 and
0.14.

While a job runs, a real-time interval timer interrupts it every
``TICK_S`` seconds and takes a sample (`SpeedProbe.sampling`), so that the
samples cover the run evenly whatever the shape of the job; a sample taken
only between jobs sees the host in whichever level it happens to be in,
and a run of few jobs then gets a noisy scale. Time spent in the kernel is
excluded from the job's own time (`SpeedProbe.clock`).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator, List

#: Kernel seconds on the reference host, a 2-vCPU Intel Xeon (Python
#: 3.11), whose runs measured 8.8 to 10.5 ms; job times at reference
#: speed are within about a fifth of host seconds there.
REF_KERNEL_S = 0.0085
#: Seconds between two samples while a job runs.
TICK_S = 0.2
#: What `kernel` returns; anything else means it did not run as written.
KERNEL_CHECKSUM = 1806188929


def kernel() -> int:
    acc = 0
    table = {}
    for i in range(16_000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + (i ^ key)) & 0xFFFFFFFF
    pairs = sorted(((v % 977, k) for k, v in table.items()),
                   key=lambda kv: (kv[0], -kv[1]))
    for rank, (value, key) in enumerate(pairs):
        acc = (acc ^ (value * 7 + key + rank)) & 0xFFFFFFFF
    return acc


class SpeedProbe:
    """Kernel samples of one run, in time order."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Total seconds spent in the kernel.
        self.spent = 0.0
        self._busy = False
        self._sampling = False

    def sample(self) -> None:
        self._busy = True
        try:
            t0 = time.perf_counter()
            checksum = kernel()
            elapsed = time.perf_counter() - t0
        finally:
            self._busy = False
        if checksum != KERNEL_CHECKSUM:
            raise RuntimeError("reference kernel returned %d, not %d"
                               % (checksum, KERNEL_CHECKSUM))
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """Host seconds, less the time spent in the kernel so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:  # no sample ran in between
                return now - spent

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling and not self._busy:
            self.sample()

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Take a sample every ``TICK_S`` seconds while the block runs.

        The signal handler stays installed afterwards and does nothing
        once the block has ended: restoring the previous handler could
        race with a tick already delivered."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sampling = False

    def mean_s(self) -> float:
        """Mean sample, leaving out the highest and lowest tenth. A sample
        lasts about 10 ms, so one that a descheduling of the process
        stretched to 180 ms would move a plain mean of a run's ~80
        samples by a fifth."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def scale(self) -> float:
        """Reference seconds per host second."""
        return REF_KERNEL_S / self.mean_s()
