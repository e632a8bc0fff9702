"""Machine-speed calibration for timings taken on a shared box.

On a box shared with other tenants the same code runs up to twice as slowly
for stretches of several seconds (measured while building this benchmark:
a fixed 0.3 s simulation read between 0.20 s and 0.51 s within one minute).
A median over rounds cannot remove that, because all the rounds of one
strategy run inside the same few seconds. So every timed operation is
bracketed by two readings of a fixed calibration unit, and its times are
scaled by REFERENCE_S / (mean of the two readings): they read as on the box
at its reference speed. The unit mixes the kinds of work the simulator does
(integer loops, dict and tuple traffic, attribute reads, sorting, a small
matrix product) and none of the simulator's own code, so a change to the
simulator cannot move it.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Calibration time of one unit on an unloaded 2-core Xeon box (2.0 GHz).
REFERENCE_S = 0.011

_rng = random.Random(0)
_KEYS = [(_rng.randrange(10), _rng.randrange(10), _rng.randrange(20))
         for _ in range(8000)]
_VALUES = [_rng.random() for _ in range(8000)]
_MATRIX = np.random.default_rng(0).random((200, 200))


class _Item:
    __slots__ = ("value", "index")

    def __init__(self, value, index):
        self.value = value
        self.index = index


_ITEMS = [_Item(v, i) for i, v in enumerate(_VALUES)]


def _unit():
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    table = {}
    for key in _KEYS:
        row = table.get(key)
        if row is None:
            table[key] = row = [0.0, 0]
        row[0] = 0.5 * row[0] + 0.5
        row[1] += 1
    total = 0.0
    for item in _ITEMS:
        if item.value > 0.5:
            total += item.value
    ordered = sorted((item.value, item.index) for item in _ITEMS[:3000])
    best = 0.0
    for i in range(0, 200, 2):
        row = _MATRIX[i]
        for j in range(0, 200, 2):
            value = row[j] * 0.5 + float(_MATRIX[j, i])
            if value > best:
                best = value
    product = float((_MATRIX @ _MATRIX[:, :40]).sum())
    return acc, len(table), total, ordered[0], best, product


def reading(repeats: int = 3) -> float:
    """Seconds for one calibration unit: the fastest of `repeats` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _unit()
        best = min(best, time.perf_counter() - t0)
    return best
