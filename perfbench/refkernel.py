"""A fixed reference kernel that measures the speed of the CPU a run gets.

The benchmark runs on a few cores of a shared host whose effective CPU speed
drifts with what its other tenants do.  On a 2-vCPU Xeon guest, six
back-to-back sst2-dl3 runs of the same code measured 93 to 149 training
sentences/s, with user CPU time tracking wall time and no steal time, so
neither a longer run nor a CPU clock removes the drift.

The kernel below is the benchmark's own code and never changes with the
package.  It has the instruction mix of the package's LSTM layer at the
sst2-dl3 shape: one BLAS matmul for the input projection, then a Python
loop of small numpy operations over the time steps, forward and backward.
``Run.measure`` interleaves timed calls of it with the package's units, so
its median over a run is the CPU speed that run saw, and the speed
normalised throughputs are scaled by it:

    value at reference speed = measured value * median kernel time / NOMINAL_S

NOMINAL_S is a round figure near the kernel's median on that Xeon, so
normalised values read close to the raw ones on a quiet host.
"""

import time

import numpy as np

NOMINAL_S = 0.010
T, B, M, H = 16, 200, 300, 10  # time steps, batch, input width, hidden


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class RefKernel:
    """Forward and backward of one LSTM direction on fixed random inputs."""

    def __init__(self):
        rng = np.random.default_rng(1802)
        self.x = rng.standard_normal((T, B, M))
        self.wx = 0.1 * rng.standard_normal((M, 4 * H))
        self.wh = 0.1 * rng.standard_normal((H, 4 * H))
        self.checksum = self._run()  # the same on every call

    def _run(self):
        x, wx, wh = self.x, self.wx, self.wh
        gx = (x.reshape(T * B, M) @ wx).reshape(T, B, 4 * H)
        h, c = np.zeros((B, H)), np.zeros((B, H))
        cache = []
        for t in range(T):
            g = gx[t] + h @ wh
            ifo = _sigmoid(g[:, :3 * H])
            u = np.tanh(g[:, 3 * H:])
            i, f, o = ifo[:, :H], ifo[:, H:2 * H], ifo[:, 2 * H:]
            c_new = f * c + i * u
            tc = np.tanh(c_new)
            cache.append((i, f, o, u, c, tc, h))
            h, c = o * tc, c_new
        dh, dc = np.ones((B, H)), np.zeros((B, H))
        dwh = np.zeros_like(wh)
        dg = np.empty((T, B, 4 * H))
        for t in reversed(range(T)):
            i, f, o, u, c_prev, tc, h_prev = cache[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            dg[t, :, :H] = dc * u * i * (1.0 - i)
            dg[t, :, H:2 * H] = dc * c_prev * f * (1.0 - f)
            dg[t, :, 2 * H:3 * H] = dh * tc * o * (1.0 - o)
            dg[t, :, 3 * H:] = dc * i * (1.0 - u * u)
            dc = dc * f
            dwh += h_prev.T @ dg[t]
            dh = dg[t] @ wh.T
        dwx = x.reshape(T * B, M).T @ dg.reshape(T * B, 4 * H)
        return float(dwx.sum() + dwh.sum())

    def timed(self):
        """Seconds for one call; raises if the kernel computed something else."""
        t0 = time.perf_counter()
        got = self._run()
        dt = time.perf_counter() - t0
        if got != self.checksum:
            raise RuntimeError(f"reference kernel gave {got!r}, not {self.checksum!r}")
        return dt
