"""Host-speed calibration for the benchmark's host times.

The machine this benchmark was built on is a shared 2-vCPU VM whose
speed drifts by up to 2x within minutes, and the drift shows the same
in CPU time as in wall time. Each repetition therefore runs a fixed unit
of interpreter work (dicts, tuples, a heap, struct packing, blake2b: the
simulator's mix, and no geobft code) a few times before and after the
measured work, in the same process. Summed over a run, the units give
the host's speed relative to the reference machine:

    speed = REFERENCE_UNIT_S / (measured seconds per unit)

and a host time t is reported as t * speed, i.e. in seconds at the
reference speed. Over five rounds of the three workloads on that VM, the
spread (q3 - q1) / median of raw sim_s was 0.30-0.45 and that of the
scaled sim_s 0.11-0.17.
"""
from __future__ import annotations

import hashlib
import heapq
import random
import struct
from time import perf_counter

REFERENCE_UNIT_S = 0.07  # seconds per unit on the reference machine, typically
UNITS_PER_SIDE = 4       # units before and after each repetition
_PACK = struct.Struct(">QI").pack


def unit(rounds: int = 10000) -> int:
    """A fixed amount of interpreter work; returns a value so none is skipped."""
    rng = random.Random(7)
    heap: list = []
    store: dict = {}
    out = 0
    for i in range(rounds):
        key = (i % 97, i)
        rec = (i * 0.5, "deliver", str(key), {"s": i, "p": i % 7})
        store[key] = rec
        heapq.heappush(heap, (rng.random(), i, rec))
        if len(heap) > 500:
            heapq.heappop(heap)
        buf = bytearray(_PACK(i, i & 0xFFFF))
        buf += repr(rec).encode()
        out ^= hashlib.blake2b(bytes(buf), digest_size=16).digest()[0]
    return out


def measure(units: int = UNITS_PER_SIDE) -> float:
    """Seconds taken by `units` units."""
    t0 = perf_counter()
    for _ in range(units):
        unit()
    return perf_counter() - t0


def speed(unit_counts, seconds) -> float:
    """Host speed relative to the reference from units run and their time."""
    return REFERENCE_UNIT_S * sum(unit_counts) / sum(seconds)
