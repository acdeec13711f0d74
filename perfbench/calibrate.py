"""Machine-speed calibration of the benchmark's timings.

On a shared virtual machine the speed of identical work drifts by 20% and
more within minutes, so a raw wall time says as much about the neighbours
as about nilaut.  SpeedClock times a segment of work and, while it runs,
samples the machine's speed: a SIGALRM timer interrupts the work every
SAMPLE_INTERVAL_S and times a fixed pure-Python loop (the probe), which
touches no nilaut code.  The segment's scaled time is its wall time, less
the time spent probing, times the mean over the samples of
REFERENCE_PROBE_S / probe time: the seconds the same work would take on a
machine where the probe always takes REFERENCE_PROBE_S.  Samples are even
in wall time, so that mean weights each moment of the segment by its
length.  A change to nilaut moves the wall time and not the probe, so it
moves the scaled time by the same share.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PROBE_LOOPS = 20_000
# Median probe time on the 2-core x86-64 machine, Python 3.11, on which the
# benchmark was written; scaled times there are close to wall times.
REFERENCE_PROBE_S = 0.0016
SAMPLE_INTERVAL_S = 0.1
WARMUP_PROBES = 5


def probe() -> float:
    """Seconds of a fixed integer loop: how slowly the machine runs now."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


class Segment:
    """Timing of one segment: wall_s excludes probing; scaled_s is wall_s at
    the reference speed; probes is the number of speed samples behind it."""

    wall_s = scaled_s = speed = 0.0
    probes = 0


class SpeedClock:
    """Times segments of work, each scaled to the reference machine speed.

    Use as a context manager around every segment, which it starts and
    stops the sampling timer for:

        with clock.segment() as seg:
            work()
        seg.scaled_s
    """

    def __init__(self):
        self._samples = []
        self._probing_s = 0.0
        for _ in range(WARMUP_PROBES):
            probe()

    def _sample(self, *_):
        t = time.perf_counter()
        self._samples.append(probe())
        self._probing_s += time.perf_counter() - t

    @contextmanager
    def segment(self):
        seg = Segment()
        first = len(self._samples)
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        probing = self._probing_s
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t = time.perf_counter()
        try:
            yield seg
        finally:
            seg.wall_s = time.perf_counter() - t - (self._probing_s - probing)
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        samples = self._samples[first:]
        seg.speed = sum(REFERENCE_PROBE_S / p for p in samples) / len(samples)
        seg.scaled_s = seg.wall_s * seg.speed
        seg.probes = len(samples)
