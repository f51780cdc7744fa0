"""The host-speed probes that the benchmark's end-to-end times are scaled by.

The benchmark runs on a shared host whose speed drifts by 30% and more over
minutes, as other tenants load it.  The speed probe is a fixed piece of work
that does not use the package: an interpreter loop, an FFT and passes over
an 8 MB array, the three kinds of work the workloads do.  It runs on as many
threads at once as the workload has workers, so that it sees the speed of
every core the workload uses, and it is timed between the workload's
iterations, in the same process.  An end-to-end time is reported as measured
times `REFERENCE_S[threads] / probe time`: the time the same run would have
taken on a host where the probe takes `REFERENCE_S[threads]`.  A change to
the package does not change the probe, so it moves the scaled times exactly
as it moves the measured ones.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Speed probe time of the reference host, in seconds, by thread count: about
#: the probe's median on a 2-core 'Intel(R) Xeon(R) Processor' host with
#: numpy on 1 thread.  The interpreter loops of the threads take turns, so 2
#: threads take longer than 1.
REFERENCE_S = {1: 0.018, 2: 0.026}

#: The start-up probe: the arguments of a fresh interpreter that imports numpy
#: and exits.  Set-up times are start-up work, interpreter start and imports
#: from the page cache, which the host's drift slows by other amounts than the
#: speed probe's work, so `setup_s` is scaled by this probe instead, timed
#: before each set-up probe.
START_PROBE = ("-c", "import numpy")
#: Start-up probe time of the reference host, in seconds.
START_REFERENCE_S = 0.2


def _work(frames: np.ndarray, samples: np.ndarray) -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    np.abs(np.fft.rfft(frames, axis=1)).sum()
    for _ in range(4):
        (samples * 1.5 + 2.0).sum()


class SpeedProbe:
    """Times the fixed work on `threads` threads at once per call and keeps the times."""

    def __init__(self, threads: int) -> None:
        rng = np.random.default_rng(0)
        self.inputs = [(rng.standard_normal((400, 512)), rng.standard_normal(1 << 20)) for _ in range(threads)]
        self.pool = ThreadPoolExecutor(max_workers=threads)
        self.times: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        for future in [self.pool.submit(_work, *arrays) for arrays in self.inputs]:
            future.result()
        self.times.append(time.perf_counter() - start)

    def close(self) -> None:
        self.pool.shutdown()
