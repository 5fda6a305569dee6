"""Host speed reference: a fixed tape-like job owned by the benchmark.

On a shared host the program's speed drifts by half for minutes at a time,
which no median inside a 60-second run removes.  The reference job does the
kind of work the program does (an LSTM-like loop of numpy calls on short
vectors whose backward closures are appended to a list, then replayed in
reverse into a dict of adjoints keyed by id), so the same host contention
slows it alike; it shares no code with statetrack, so no change to the
program can move it.  The reference is timed on both sides of every timed
piece of work; the mean of the two over `NOMINAL_S` is that piece's slowdown.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median reference time on a quiet host: Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4
NOMINAL_S = 0.011


class HostReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._wx = rng.uniform(-0.3, 0.3, (18, 16))
        self._wh = rng.uniform(-0.3, 0.3, (4, 16))
        self._xs = [rng.standard_normal(18) for _ in range(6)]
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the reference job once; its duration over the nominal one."""
        start = time.perf_counter()
        for _ in range(3):
            tape = []
            for _ in range(40):
                h = np.zeros(4)
                for x in self._xs:
                    gates = self._wx.T @ x + self._wh.T @ h
                    i = 0.5 * (np.tanh(0.5 * gates[:4]) + 1.0)
                    g = np.tanh(gates[4:8])
                    h = i * g
                    tape.append((h, lambda grad, i=i, g=g: (grad * g, grad * i)))
            adjoints: dict[int, float] = {}
            for out, backward in reversed(tape):
                a, b = backward(np.ones_like(out))
                adjoints[id(out)] = adjoints.get(id(out), 0.0) + float(a.sum() + b.sum())
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1] / NOMINAL_S

    def median_slowdown(self) -> float:
        return statistics.median(self.samples) / NOMINAL_S
