"""Timing in reference seconds, steady on a shared host.

On a host shared with other tenants the CPU's speed moves by a third over
periods of seconds, and process CPU time moves with wall time, so neither
repeats between runs. ``Clock.time`` runs a fixed reference kernel just
before and just after the timed call and scales the call's wall time by
``REF_BURST_S`` over the kernel's mean time. The kernel mixes what the
program spends its time on: float64 matmuls at the model's width, an
attention-sized exp and reduction, many small numpy calls and an
interpreter loop. A slow period slows the kernel and the call alike, so the
scaled time holds still. The kernel uses numpy and the interpreter only,
never the program, and its large arrays are allocated once, so no change to
the program can change its speed.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# the kernel's time on the reference machine (2-CPU shared VM, 1 BLAS thread)
# in a quiet period: reported times read as that machine's seconds
REF_BURST_S = 0.02
REPS = 4
LOOP = 2500
SMALL_CALLS = 150


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((512, 128))
        self.b = 0.01 * rng.standard_normal((128, 512))
        self.c = np.empty((512, 512))
        self.d = np.empty((512, 128))
        self.scores = rng.standard_normal((8, 255, 255))
        self.probs = np.empty_like(self.scores)
        self.small = rng.standard_normal(64)
        self.bursts = []  # seconds of every kernel run, for the stderr report
        for _ in range(3):  # warm the caches and the BLAS code path
            self.burst()
        self.bursts.clear()

    def burst(self) -> float:
        """Seconds of one run of the reference kernel."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(REPS):
            np.matmul(self.a, self.b, out=self.c)
            np.exp(self.c, out=self.c)
            np.matmul(self.c, self.b.T, out=self.d)
            np.exp(self.scores, out=self.probs)
            self.probs.sum(axis=-1)
            for _ in range(SMALL_CALLS):
                (self.small * 2.0 + 1.0).sum()
            s = 0
            for i in range(LOOP):
                s += i * i % 7
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.bursts.append(dt)
        return dt

    def time(self, fn):
        """Run ``fn()``: (its result, reference seconds, wall seconds)."""
        before = self.burst()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = self.burst()
        return out, wall * REF_BURST_S / (0.5 * (before + after)), wall
