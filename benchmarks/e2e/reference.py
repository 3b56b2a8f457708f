"""The host-speed reference of the end-to-end serve benchmark.

The benchmark's host is shared: for seconds to minutes at a time it runs
everything up to 2x slower, the program and a pure-Python loop alike,
and CPU time grows with wall time, so the slow spells are not spent
waiting.  :func:`reference` times one small fixed computation with
nothing to do with the program.  The benchmark runs it between the
program's calls, outside their timing, and divides each timing by
:func:`slowness` over the runs taken around it (see ``run.py``), so a
run in one of the host's slow spells reads like one in a fast spell.

The computation mixes what the program does: dictionary updates in an
interpreter loop, numpy over a few thousand rows, numpy calls on 64-row
blocks from a Python loop, a JSON round trip, pure-Python library code
(difflib, fractions, a sort by key, regular expressions) and datetime
arithmetic.  Alternated with real passes of four workloads for 20
minutes, the mix tracked pass times better than any part or pair of
parts, and a trimmed mean of its runs better than their median or
minimum.
"""

from __future__ import annotations

import difflib
import json
import random
import re
import statistics
import time
from datetime import datetime, timedelta
from fractions import Fraction

import numpy as np

#: What :func:`reference` takes on the benchmark's 2-core host in a fast
#: spell.  Scaled timings read as on a host where it takes this long.
REFERENCE_S = 1.4e-3

_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(size=(4_000, 2))
_BLOCK = _RNG.uniform(size=(64, 2))
_DOCUMENT = {"rows": [{"x": float(i), "y": [i, i + 1, "label"]} for i in range(150)]}
_LETTERS = random.Random(0)
_TEXTS = tuple("".join(_LETTERS.choice("abcdefgh") for _ in range(80)) for _ in range(2))
_PAIRS = " ".join(f"item{i}=v{i * 7 % 13}" for i in range(100))
_T0 = datetime(2017, 5, 10)


def reference() -> float:
    """Seconds one run of the fixed reference computation took."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(2_000):
        table[i & 255] = table.get(i & 255, 0) + i * 0.5
    distance = np.hypot(_POINTS[:, 0] - 0.5, _POINTS[:, 1] - 0.5)
    np.cumsum(distance[np.argsort(distance)])
    nearest = 0.0
    for _ in range(30):
        gap = np.hypot(_BLOCK[:, 0] - 0.5, _BLOCK[:, 1] - 0.5)
        nearest += float(gap[int(gap.argmin())])
    json.loads(json.dumps(_DOCUMENT))
    difflib.SequenceMatcher(None, *_TEXTS).ratio()
    harmonic = sum((Fraction(1, i) for i in range(1, 20)), Fraction(0))
    rows = [(i, i * 0.5, harmonic) for i in range(100)]
    sorted(rows, key=lambda row: (row[1] % 7, row[0]))
    re.findall(r"item(\d+)=v(\d+)", _PAIRS)
    for i in range(75):
        (_T0 + timedelta(seconds=30 * i) - _T0).total_seconds()
    return time.perf_counter() - start


def slowness(samples) -> float:
    """The mean of ``samples`` (reference times) over ``REFERENCE_S``,
    after dropping the fastest and slowest tenth: one interrupted run
    should not move it."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut]) / REFERENCE_S
