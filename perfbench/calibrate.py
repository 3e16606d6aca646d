"""Reference kernels that measure how fast the machine is right now.

Shared machines drift: on a shared 2-core Xeon machine the same Python loop
took 13.5 ms or 20.5 ms depending on the second, in phases that last from a
few seconds to over half a minute, so one run's wall time can read 1.5x
another's on identical code. A timed run therefore runs one of these fixed
kernels between every two passes and reports each pass's wall time divided
by the mean of the kernel times around it (``wall_norm``). The kernels never
call fwflow, so a change to the package moves the numerator only.

Each workload names the kernel whose work resembles its own: ``interp`` for
Python-level stepping over tiny arrays, ``blas`` for dense matrix-vector
products, ``dense`` for FW steps on a 500x100 logistic loss. Each takes
about 20 ms. perfbench/README.md gives the measured spreads that rule out a
single kernel for every workload.
"""

from __future__ import annotations

import time


def _interp():
    import numpy as np

    vertices = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x = np.array([0.1, 0.2])
    rows = []
    for k in range(1200):
        g = np.asarray(x, dtype=float).ravel()
        if not np.all(np.isfinite(g)):
            raise ValueError("calibration kernel diverged")
        s = vertices[int(np.argmin(vertices @ g))].copy()
        x = x + (2.0 / (k + 2.0)) * (s - x)
        rows.append(f"{k},{x[0]:.17g},{x[1]:.17g}")
    return len(rows)


def _blas():
    import numpy as np

    a = np.linspace(-1.0, 1.0, 200 * 150).reshape(200, 150)
    v = np.ones(150)
    for _ in range(1200):
        v = a.T @ (a @ v)
        v /= np.linalg.norm(v)
    return float(v[0])


def _dense():
    import numpy as np

    a = np.linspace(-1.0, 1.0, 500 * 100).reshape(500, 100)
    y = np.where(np.arange(500) % 2 == 0, 1.0, -1.0)
    x = np.zeros(100)
    rows = []
    for k in range(500):
        m = y * (a @ x)
        g = -(a.T @ (y / (1.0 + np.exp(m)))) / 500
        f = float(np.logaddexp(0.0, -m).mean())
        j = int(np.argmax(np.abs(g)))
        s = np.zeros(100)
        s[j] = -10.0 if g[j] >= 0.0 else 10.0
        x = x + (2.0 / (k + 2.0)) * (s - x)
        rows.append(f"{k},{f:.17g}")
    return len(rows)


KERNELS = {"interp": _interp, "blas": _blas, "dense": _dense}


def measure(kernel: str) -> float:
    """Wall seconds of one run of the named kernel."""
    fn = KERNELS[kernel]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
