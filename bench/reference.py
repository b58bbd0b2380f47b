"""A fixed reference computation that shares no code with sinkgames.

The host this benchmark runs on is shared: for minutes at a time its
speed drops by up to half, which moves every wall time alike. ``run.py``
times this kernel right after each job and divides the job's time by it,
so the ratio measures the program and not the host. The kernel mixes the
operations the jobs spend their time in: big-integer relaxation over a
small graph (as in valuation and decoding) and parsing and printing
PGSolver-like text (as in reading and writing games). It must never
change: the ratios of two commits are comparable only while it stays the
same.
"""

from __future__ import annotations

import gc
import random
import time

NODES = 200
ROUNDS = 30
LINES = 1500


def _relax() -> int:
    rng = random.Random(7)
    succ = [[rng.randrange(NODES) for _ in range(3)] for _ in range(NODES)]
    value = {v: 1 << rng.randrange(1500) for v in range(NODES)}
    for _ in range(ROUNDS):
        value = {v: max(value[w] + (v << 5) for w in succ[v]) for v in range(NODES)}
    return sum(x.bit_length() for x in value.values())


def _text() -> int:
    rng = random.Random(8)
    text = "\n".join(
        f"{v} {rng.randrange(400)} {rng.randrange(2)} {rng.randrange(LINES)},{rng.randrange(LINES)};"
        for v in range(LINES)
    )
    game = {}
    for line in text.split("\n"):
        v, priority, owner, moves = line.rstrip(";").split(" ")
        game[int(v)] = (int(priority), int(owner), tuple(int(w) for w in moves.split(",")))
    return len("\n".join(f"{v} {p} {o} {','.join(map(str, m))};" for v, (p, o, m) in game.items()))


def seconds() -> float:
    """Wall time of one pass of the kernel. The cyclic collector is off
    while it runs, so its time does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _relax()
        _text()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
