"""The host's CPU speed, measured beside the work it is used to correct.

The hosts this benchmark runs on share their cores: for seconds to minutes
at a time a neighbour on the sibling hardware thread makes every CPU-bound
number a third slower, without any steal time showing in the guest. A plain
interpreter loop slows by the same factor as the middleware does (over
0.1 s stretches of the closed fan-out loop the delivery rate goes as the
loop's time to the power -0.96), so CPU-bound measurements are cut into
short stretches, the loop is timed before and after each stretch **on the
thread that does the work**, and every stretch is scaled to the speed of a
reference CPU. Wait-bound measurements (latency under a 2 ms batch timer,
paced file chunks) are not touched: they do not follow the CPU.

The loop is the benchmark's own and calls nothing of ``repro``: a change to
the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter, thread_time

#: One iteration of the loop below on the reference CPU. About what the
#: build host does with quiet neighbours (42 ns) and busy ones (60 ns), so
#: corrected numbers stay close to measured ones.
REFERENCE_NS_PER_ITERATION = 50.0
#: One reading is the fastest of REPEATS loops of ITERATIONS (0.5 ms each):
#: a loop the host interrupted reads slow and is dropped, a slow CPU makes
#: all of them slow.
ITERATIONS = 10_000
REPEATS = 3


def cpu_factor():
    """How many times slower than the reference CPU the calling thread runs
    right now (above 1: slower). Corrected time = measured time / factor;
    corrected rate = measured rate x factor."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        x = 0
        for i in range(ITERATIONS):
            x += i * i
        best = min(best, perf_counter() - t0)
    return best * 1e9 / ITERATIONS / REFERENCE_NS_PER_ITERATION


def corrected_seconds(stretches, factors):
    """``stretches[i]`` seconds of work ran between ``factors[i]`` and
    ``factors[i + 1]`` -> the seconds it would have taken on the reference
    CPU."""
    return sum(
        seconds * 2.0 / (before + after)
        for seconds, before, after in zip(stretches, factors, factors[1:])
    )


class Stretches:
    """CPU-bound work on the calling thread, timed in stretches with the CPU
    factor read between them; the readings themselves are not timed."""

    def __init__(self):
        self.seconds = []
        self.cpu_seconds = 0.0  # of the stretches, as the host ran them
        self.factors = [cpu_factor()]
        self._t0, self._cpu0 = perf_counter(), thread_time()

    def lap(self, idle_below=0.0):
        """End a stretch and begin the next. A stretch shorter than
        ``idle_below`` seconds keeps the factor read before it."""
        self.seconds.append(perf_counter() - self._t0)
        self.cpu_seconds += thread_time() - self._cpu0
        self.factors.append(
            cpu_factor() if self.seconds[-1] >= idle_below else self.factors[-1]
        )
        self._t0, self._cpu0 = perf_counter(), thread_time()

    def corrected(self):
        """Each stretch at the reference CPU speed."""
        return [
            corrected_seconds([seconds], self.factors[i:i + 2])
            for i, seconds in enumerate(self.seconds)
        ]
