"""The machine's speed at a moment, from fixed reference kernels.

On a shared host the same job's wall time drifts by over half between
quiet and contended periods (see README.md).  run.py times a kernel
right before and after every job and every set-up probe, in its own
process while the worker waits, and scales the measured time to the
kernel's time at the reference speed:
scaled = measured * reference / mean(kernel before, kernel after).
The kernels neither call flagroots nor import the benchmark's oracle,
so no change to flagroots moves them, and they run outside the worker,
so they add nothing to its memory.

Two kernels, because the host's contention slows compute and memory
apart: `cpu` adds root-like integer tuples and multiplies Fractions
into a dict, as flagroots' brackets do; `memory` allocates and shuffles
a large list of ints and walks it as a linked cycle, as the collector
walks a large heap.
"""

from __future__ import annotations

import array
import random
import time
from fractions import Fraction

# The cpu kernel runs CPU_ROUNDS times per sample: the host's speed also
# flickers on the scale of tens of ms, and a longer sample averages that
# out as a job of a second or more does.
CPU_ROUNDS = 3
MEMORY_SIZE = 1 << 21
MEMORY_STEPS = 400_000


def cpu_ms() -> float:
    """Wall time of the compute kernel, in ms."""
    t0 = time.perf_counter()
    for _ in range(CPU_ROUNDS):
        rng = random.Random(0)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(8)) for _ in range(96)]
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in vecs]
        acc: dict[tuple[int, ...], Fraction] = {}
        for u, cu in zip(vecs, coeffs):
            for v, cv in zip(vecs, coeffs):
                s = tuple(x + y for x, y in zip(u, v))
                acc[s] = acc.get(s, 0) + cu * cv
    return (time.perf_counter() - t0) * 1e3


def memory_ms() -> float:
    """Wall time of the memory kernel, in ms."""
    t0 = time.perf_counter()
    order = list(range(MEMORY_SIZE))
    random.Random(1).shuffle(order)
    nxt = array.array("q", order)
    i = 0
    for _ in range(MEMORY_STEPS):
        i = nxt[i]
    del order, nxt
    return (time.perf_counter() - t0) * 1e3


# Each kernel with its time at the reference speed, in ms.
KERNELS = {"cpu": (cpu_ms, 189.0), "memory": (memory_ms, 2000.0)}


def scaled(measured: float, kernel: str, before: float, after: float) -> float:
    """A measured time at the reference speed."""
    return measured * KERNELS[kernel][1] / ((before + after) / 2)
