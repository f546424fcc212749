"""Host speed probe: scales timings to a reference speed of the machine.

On a shared host the speed of a virtual CPU changes by up to 2x within
seconds and for minutes at a time, as other tenants load the physical cores.
Even the median of a fixed loop over 60 s windows spread by a quarter from
window to window on the 2-vCPU Xeon VM this benchmark was written on, which
is wider than any bound a benchmark may set. Timing the same interval twice
cannot remove that, but the speed can be measured while the work runs.

One background thread per CPU, pinned to it, times a fixed pure-Python loop
every PERIOD_S on its own thread CPU clock. The two vCPUs change speed
independently, so a serial timed call runs pinned to the first CPU, whose
probe then runs on the same core in the same moments (interleaved with the
call by the interpreter lock); a probe on the other CPU would measure the
wrong core. Parallel work uses every probed CPU. A timing is then reported
in reference seconds:

    host seconds * REFERENCE_S / (mean over the work's CPUs of the
                                  median probe time during the interval)

REFERENCE_S is the probe's time on that VM in its fast phases, so reference
seconds read close to host seconds there. A change to uqsim's speed does not
change the probe, so it moves reference seconds exactly as much as host
seconds; the probe only removes the machine's own drift. Each probe costs
the timed calls about 1% (one loop of about 1 ms every 100 ms).
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time
from typing import Iterator

PERIOD_S = 0.1
LOOP_ITERATIONS = 16_000
REFERENCE_S = 1.0e-3
MIN_SAMPLES = 5
MAX_CPUS = 4


def probe_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


class SpeedProbe:
    """Context manager running one probe thread per CPU (at most MAX_CPUS)."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        self.samples: dict[int, list[float]] = {cpu: [] for cpu in self.cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), name=f"speed-probe-{cpu}", daemon=True)
            for cpu in self.cpus
        ]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        while min(map(len, self.samples.values())) < MIN_SAMPLES:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10)

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
        samples = self.samples[cpu]
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            probe_loop()
            samples.append(time.thread_time() - t0)

    @contextlib.contextmanager
    def work_cpus(self, serial: bool) -> Iterator[list[int]]:
        """Pin the calling thread to the first CPU if ``serial``; yield the work's CPUs.

        Threads and processes started inside inherit the pinning, so
        parallel work must not be serial here.
        """
        if not serial:
            yield self.cpus
            return
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpus[0]})
        try:
            yield self.cpus[:1]
        finally:
            os.sched_setaffinity(0, saved)

    def mark(self) -> dict[int, int]:
        """Positions to pass to ``factor`` at the end of an interval."""
        return {cpu: len(samples) for cpu, samples in self.samples.items()}

    def factor(self, since: dict[int, int], cpus: list[int]) -> float:
        """REFERENCE_S over the mean, across ``cpus``, of the median probe time.

        An interval too short for MIN_SAMPLES probes on a CPU uses that
        CPU's latest MIN_SAMPLES probes instead.
        """
        medians = []
        for cpu in cpus:
            recent = self.samples[cpu][since[cpu]:]
            if len(recent) < MIN_SAMPLES:
                recent = self.samples[cpu][-MIN_SAMPLES:]
            medians.append(statistics.median(recent))
        return REFERENCE_S / statistics.fmean(medians)
