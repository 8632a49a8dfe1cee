"""A fixed reference kernel that measures how fast the machine runs right now.

The machine is shared: the CPU time of one and the same operation drifts
by 20-25% over tens of seconds, and at times doubles within a 15-s run, as
other tenants load the caches and cores. The kernel below is the
benchmark's own code, on fixed inputs, with the mix of work ctxmr does:
numpy passes and a sort over 4k-element blocks, small-array numpy calls,
plain Python parsing, and passes, a sort, a weighted 4-column solve and a
label partition over arrays the size of a simulated dataset (100k rows).
Timing it between rounds of the same run and
scaling the operations' CPU times by NOMINAL_S / (median kernel time)
removes much of that drift; perfbench/README.md gives the spreads of the
raw and the scaled figures over ten runs.

No ctxmr code runs in the kernel, so a change to the program cannot move
it; only the machine can. A workload times it in a helper process that
runs this file (`serve`), so the kernel's arrays never count toward the
workload's peak memory."""

from __future__ import annotations

import csv
import io
import sys
import time

import numpy as np

#: Typical median CPU time of `kernel()` within a workload run on the
#: reference machine (shared 2-core Xeon VM, Python 3.11, numpy 2.4,
#: single-threaded BLAS). Normalized times are expressed at this speed.
NOMINAL_S = 0.060

def _uniform(offset: int, shape) -> np.ndarray:
    """Fixed pseudo-random values in [0, 1) from a sine hash, built in place."""
    a = np.arange(offset, offset + np.prod(shape), dtype=float)
    np.sin(a, out=a)
    a *= 43758.5453
    np.abs(a, out=a)
    np.fmod(a, 1.0, out=a)
    return a.reshape(shape)


_G = (_uniform(1, (10, 4_000)) < 0.3).astype(float)
_G += _uniform(100_001, (10, 4_000)) < 0.3
_X = _uniform(200_001, (10, 4_000))
_X *= 3.0
_X += 7.5 + 0.5 * _G
_TEXT = "\n".join(",".join(repr(float(v)) for v in row) for row in _uniform(300_001, (1200, 6)))
_SMALL = _uniform(400_001, (12,)) - 0.5
# Arrays the size of a simulated dataset (100k rows), 20 context labels and
# a 4-column design: the memory traffic of the larger workloads.
_BIG = _uniform(500_001, (100_000,))
_DESIGN = _uniform(600_001, (16_000, 4))
_LABELS = np.array([f"C{j:02d}" for j in range(20)])[
    (_uniform(700_001, (100_000,)) * 20).astype(int)]


def kernel() -> float:
    """One pass of the reference work; returns a checksum so nothing is skipped."""
    total = 0.0
    for k in range(60):
        g, x = _G[k % 10], _X[k % 10]
        gc = g - g.mean()
        beta = float(gc @ (x - x.mean())) / float(gc @ gc)
        resid = x - beta * g
        total += float(np.median(resid)) + float(np.sqrt(resid @ resid))
        total += float(np.sort(resid)[g.size // 3])
    for _ in range(1000):
        w = 1.0 / (_SMALL * _SMALL + 0.5)
        total += float(np.sum(w * _SMALL) / np.sum(w))
    for row in csv.reader(io.StringIO(_TEXT)):
        total += sum(float(cell) for cell in row)
    for _ in range(3):
        y = _BIG - _BIG.mean()
        total += float(y @ y) + float(np.sort(_BIG)[_BIG.size // 2])
        w = 1.0 / (1.0 + _DESIGN[:, 0])
        xtwx = _DESIGN.T @ (_DESIGN * w[:, None])
        total += float(np.linalg.solve(xtwx, _DESIGN.T @ (w * _BIG[:16_000])).sum())
    _, codes = np.unique(_LABELS, return_inverse=True)
    return total + float(codes[0])


def sample() -> float:
    """CPU seconds of one kernel pass."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def serve() -> None:
    """Time one kernel pass per line read from stdin; write each CPU time to stdout."""
    for _ in sys.stdin:
        print(repr(sample()), flush=True)


if __name__ == "__main__":
    serve()
