"""Reference-speed normalisation of measured times.

The benchmark shares a few cores of a host whose speed drifts by 30-50 %
over tens of seconds: a fixed pure-Python loop timed in 2 s windows ranges
that widely on a 2-core Xeon VM, and so does a rerun of one seed.  Raw wall
times therefore move as much between two sets of runs of the same code as a
real change would.

A calibration chunk is a fixed piece of pure-Python work, owned by the
benchmark and independent of ``src/``.  Chunks are interleaved with the jobs
(one after every ``EVERY_S`` seconds of job time), and every job's wall time
is scaled by ``REF_S / c``, where ``c`` is the median of the ``WINDOW``
chunks nearest the job.  Times are then in seconds at the reference speed,
the speed at which one chunk takes ``REF_S``.  On a fixed cycle of 60
``cones`` jobs timed in 50 passes, raw pass times had a coefficient of
variation of 0.22 and scaled ones 0.02 (0.13 and 0.015 on 120 ``ring``
jobs).  A faster program still reads faster: the chunk does not call the
program.

Set-up times are not scaled by chunks: a fresh process starting and
importing does not slow with a hot loop (on ``cones``, 60 set-up times had
correlation -0.03 with chunks run next to them).  They are scaled instead by
``PROBE_REF_S / p``, where ``p`` is the mean time of a probe run just before
and just after the set-up: a fresh interpreter importing the standard
library modules the program and the benchmark load.  On 50 ``cones``
set-ups its correlation with set-up time was 0.83 and the set-up times'
interquartile range fell from 0.15 to 0.10 of their median.
"""
from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

REF_S = 0.0065   # roughly a chunk's time between jobs on the 2-core Xeon VM,
                 # Python 3.11.7; it only sets the unit
EVERY_S = 0.1    # job time between two chunks: about 6 % overhead
WINDOW = 6       # chunks per job factor, half before the job and half after

PROBE = ("import argparse, csv, dataclasses, fractions, functools, hashlib, "
         "io, itertools, json, math, random, re, statistics, typing")
PROBE_REF_S = 0.08  # roughly a probe's time on the 2-core Xeon VM


_TABLE: Dict[int, Tuple[int, int]] = {}
_KEYS: List[int] = []


def chunk() -> float:
    """Run one calibration chunk; return its wall time in seconds.

    Its two halves bracket the jobs.  When the host slows, small-object work
    (dict updates, tuple keys, small Fractions, sorting) slows by more than
    the ``cones`` and ``ring`` jobs (log-log slope of job time on chunk time
    0.84-0.91), random lookups in a table of about 1 MB by less (slope
    1.04-1.3); their sum tracks the jobs with slope 0.97-1.03."""
    if not _TABLE:  # built once, outside any timed span
        _TABLE.update({(i * 7919) % 1000003: (i, -i) for i in range(15000)})
        _KEYS.extend(_TABLE)
        random.Random(1).shuffle(_KEYS)
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(2000):
        k = (i % 37, i % 11)
        d[k] = d.get(k, 0) + i * i
        s += Fraction(i, 7 + i % 5).numerator
    s += sum(d[k] for k in sorted(d))
    for k in _KEYS:
        s += _TABLE[k][0]
    return time.perf_counter() - t0


def factor(samples: Sequence[float]) -> float:
    """The scale from wall time to reference time for these chunk times."""
    return REF_S / statistics.median(samples)


def job_factors(n_jobs: int, positions: Sequence[int], samples: Sequence[float],
                window: int = WINDOW) -> List[float]:
    """Per-job scale factors.  ``samples[k]`` was taken just before job
    ``positions[k]`` ran (positions ascend); each job uses the ``window``
    chunks around it, half taken before it and half after."""
    half = window // 2
    out = []
    for i in range(n_jobs):
        b = bisect.bisect_right(positions, i)
        lo = max(0, min(b - half, len(samples) - window))
        out.append(factor(samples[lo:lo + window]))
    return out


def probe(env) -> float:
    """Wall time of one probe process, started with ``env``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], env=env, check=True)
    return time.perf_counter() - t0
