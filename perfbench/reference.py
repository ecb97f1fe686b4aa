"""A fixed reference kernel that measures how fast the host runs right now.

The CPU this benchmark runs on is shared: the same fixed loop takes
anywhere from 1x to 2x its best time, in spells that last from seconds to
minutes, mostly because neighbours contend for cache and memory bandwidth.
Raw op times of two runs then differ by more than any bound a regression
gate could use.  So the benchmark times this kernel around every op and
reports each time metric in reference seconds:

    seconds * REF_SECONDS / (time of the kernel around that stretch)

i.e. the time the stretch would take on a host where the kernel takes
REF_SECONDS.  The kernel is elcomp's work in miniature, with no elcomp code
in it, so a change to the program moves the ops and never the reference:
interpreted per-node arithmetic (expression sampling), a normalised sparse
matvec loop (the 1D power iteration), a dense inverse larger than L2 (the
oracle) and stencil sweeps over a vector far larger than L2 (2D assembly
and solves).  Without the two parts larger than L2 the kernel slowed down
less than the ops did.  Raw seconds are printed next to the reported values.

The kernel works in place on arrays it allocates once, so it never raises
the process's peak memory while it runs; FOOTPRINT_BYTES, the size of those
arrays, is taken off peak_rss_mb.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

# About the best time of one kernel call on a 2-vCPU Xeon host (L2 2 MiB)
# with one BLAS thread; it only sets the scale of the reported values.
REF_SECONDS = 0.060

_DENSE = 720  # 4 MB per matrix
_STREAM = 1_000_000  # 8 MB per vector


class Reference:
    def __init__(self):
        n = 512
        self._lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        rng = np.random.default_rng(0)
        self._dense = np.empty((_DENSE, _DENSE), order="F")
        rng.standard_normal(out=self._dense)
        self._dense[np.diag_indices(_DENSE)] += _DENSE
        self._work = np.empty_like(self._dense, order="F")
        self._x = np.ones(_STREAM)
        self._y = np.empty(_STREAM)

    @property
    def footprint_bytes(self) -> int:
        return self._dense.nbytes + self._work.nbytes + self._x.nbytes + self._y.nbytes

    def __call__(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40_000):
            acc += math.sin(i * 1e-3) * 0.5
        v = np.ones(self._lap.shape[0])
        for _ in range(400):
            v = self._lap @ v
            v /= np.abs(v).max()
        np.copyto(self._work, self._dense)
        lu, piv, _ = lapack.dgetrf(self._work, overwrite_a=1)
        lapack.dgetri(lu, piv, overwrite_lu=1)
        x, y = self._x, self._y
        for _ in range(5):
            # y = (2x - x_left - x_right) / 2, in place
            np.multiply(x, 2.0, out=y)
            np.subtract(y[1:], x[:-1], out=y[1:])
            np.subtract(y[:-1], x[1:], out=y[:-1])
            np.multiply(y, 0.5, out=y)
            x, y = y, x
        return time.perf_counter() - t0
