"""Fixed reference program that the benchmark times next to every invocation.

Usage::

    python3 perfbench/reference.py

It imports numpy and runs a small state-space recursion with 3x3 matrices,
the same mix of interpreter work and tiny numpy calls that dominates an
ilcset trial, and prints one number. It uses nothing from ``ilcset``, so a
change to the program does not change its time: the ratio of an
invocation's time to this program's time, measured right before and after
it on the same CPU, cancels most of the host's drift in speed.
"""

import sys

import numpy as np

STEPS = 30000


def main() -> float:
    rng = np.random.default_rng(12345)
    A = [rng.uniform(-0.5, 0.5, (3, 3)) for _ in range(64)]
    B = [rng.uniform(-1.0, 1.0, (3, 2)) for _ in range(64)]
    C = [rng.uniform(-1.0, 1.0, (2, 3)) for _ in range(64)]
    u = [rng.uniform(-1.0, 1.0, (2, 1)) for _ in range(64)]
    x = np.zeros((3, 1))
    peak = 0.0
    for k in range(STEPS):
        j = k & 63
        y = C[j] @ x + u[j]
        if not np.all(np.isfinite(y)):
            raise SystemExit(f"reference diverged at step {k}")
        x = A[j] @ x + B[j] @ u[j]
        peak = max(peak, float(np.max(np.sum(np.abs(y), axis=1))))
    return peak


if __name__ == "__main__":
    print(repr(main()))
    sys.exit(0)
