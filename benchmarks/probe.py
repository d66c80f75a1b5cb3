"""Machine-speed probe: a fixed kernel timed before and after every benchmarked command.

On a shared host the speed of one core drifts by up to 2x over minutes, as
neighbours come and go. Within one run the drift is small, but ten runs of
the same code spread far wider than any regression bound. So the benchmark
times this kernel around every command, takes the median over the run, and
scales the run's times to a reference machine speed:

    reference time = wall time * REFERENCE_S / median probe time of the run

The median over a run's few dozen probes follows the slow drift without
adding the probe's own short-term noise to each command.

The probe is a small mix of what the program spends its time on: regex
tokenising, dict counting and a Python float loop like BM25's; float32
matmuls with an argsort like the encoder's scoring; and row gathers from a
16 MB table like the hashed embedding lookups. It is the benchmark's own
code, so no change to the program moves it.
"""

from __future__ import annotations

import re
import time

import numpy as np

# The probe's median time on the machine the benchmark was tuned on (2 vCPUs
# of an Intel Xeon, Python 3.11.7, numpy 2.4.6 with one OpenBLAS thread). It
# only sets the scale: a metric reads the throughput that machine would have
# had at that speed.
REFERENCE_S = 0.045

_RNG = np.random.default_rng(0)
_PROFILES = _RNG.random((1000, 128), dtype=np.float32)
_QUERIES = _RNG.random((128, 16), dtype=np.float32)
_TABLE = _RNG.random((2**16, 64), dtype=np.float32)
_ROWS = _RNG.integers(0, 2**16, size=(2000, 12))
_WORDS = [f"w{i % 1499}" for i in range(12000)]
_TEXT = " ".join(_WORDS[:4000])
_TOKEN = re.compile(r"\w+")


def _kernel() -> float:
    """About a third each of interpreter work, small GEMMs and table gathers."""
    score = 0.0
    for _ in range(3):
        counts: dict[str, int] = {}
        for word in _TOKEN.findall(_TEXT):
            counts[word] = counts.get(word, 0) + 1
        for word in _WORDS:
            tf = counts.get(word, 0)
            score += tf * 2.5 / (tf + 1.125)
    for _ in range(36):
        np.argsort(_PROFILES @ _QUERIES, axis=0)
    for _ in range(3):
        score += float(_TABLE[_ROWS].sum())
    return score


def probe_s() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
