"""Host-speed reference: every reported time is rescaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed wanders.  A
fixed pure-Python loop, timed over and over on an otherwise idle guest,
switches between speeds about 1.5x apart in blocks of seconds, and over
minutes its windows spread by tens of percent.  Medians inside one run
cannot remove that: two runs minutes apart see different hosts.

So each timed window is paired with timings of ``reference()``, a fixed
workload that never touches the package (integer loops, a small recursive
bitmask evaluator, dicts, ``json`` and ``argparse`` from the standard
library).  A window's wall time ``t`` is reported as ``t * scale(refs)``,
where ``refs`` are the reference's times next to or during the window and
``scale`` is ``REFERENCE_S`` times the mean of ``1 / ref``: the window's time
on a host where the reference takes ``REFERENCE_S``.  The program's speed
and the reference's move together closely enough that, over four minutes
of single-frame CLI calls, the interquartile range of 14 s windows fell
from 17% of the median to 4% when rescaled this way.

``reference()`` runs with the cycle collector off, so the size of the
package's heap cannot change what it measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import signal
import time

# The reference's time on an undisturbed core of the machine the benchmark
# was defined on, so rescaled times read close to wall times there.
REFERENCE_S = 0.005

_DOC = json.dumps({
    "states": [f"s{i}" for i in range(5)],
    "rows": [[{"event": [j, i], "value": i * j % 7} for j in range(16)] for i in range(30)],
})


def _tree(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        return ("atom", rng.randrange(3))
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return (op, _tree(rng, depth - 1))
    return (op, _tree(rng, depth - 1), _tree(rng, depth - 1))


def _evaluate(tree: tuple, masks: tuple, full: int) -> int:
    op = tree[0]
    if op == "atom":
        return masks[tree[1]]
    if op == "not":
        return full & ~_evaluate(tree[1], masks, full)
    left, right = _evaluate(tree[1], masks, full), _evaluate(tree[2], masks, full)
    return left & right if op == "and" else left | right


def _work() -> int:
    acc = 0
    for i in range(15_000):
        acc ^= (i << 3) | (i % 13)
    rng = random.Random(5)
    for _ in range(100):
        tree = _tree(rng, 5)
        for masks in ((1, 2, 4), (3, 5, 6), (7, 1, 2)):
            acc ^= _evaluate(tree, masks, 7)
    counts: dict[tuple[int, int], int] = {}
    for i in range(3_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    acc += len(sorted(counts.items()))
    acc += len(json.dumps(json.loads(_DOC)))
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for k in range(8):
        command = commands.add_parser(f"c{k}")
        for f in range(4):
            command.add_argument(f"--f{f}")
    return acc + len(vars(parser.parse_args(["c3", "--f1", "x", "--f2", "y"])))


def reference() -> float:
    """Wall time of one run of the fixed reference workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(refs: list[float]) -> float:
    """Factor from wall time to time on a host where the reference takes
    REFERENCE_S, given the reference's times over the same stretch."""
    return REFERENCE_S * sum(1 / r for r in refs) / len(refs)


class Sampler:
    """Runs ``reference()`` every ``interval`` seconds of wall time from a
    SIGALRM handler, so it samples the host's speed inside one long call
    (a whole sweep) on the same thread and core.  ``stolen`` is the time
    the handler took, which the caller subtracts from its wall time."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _handle(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
