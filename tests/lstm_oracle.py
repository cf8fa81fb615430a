"""Step-level LSTM reference cell, the oracle the kernel tests compare against.

The cell follows the classic formulation: one affine transform of the
concatenated ``[x_t; h_{t-1}]`` produces four ``d``-wide blocks in the fixed
order ``[i | f | o | g]`` (input gate, forget gate, output gate, candidate),
then

    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

It works on one (1, width) row at a time and shares no code with the
batched kernels in ``dcbilstm.kernels``.
"""

from dataclasses import dataclass

import numpy as np


def sigmoid(x):
    """Logistic function via 0.5*(tanh(x/2)+1); saturates without overflow."""
    return 0.5 * (np.tanh(0.5 * np.asarray(x, dtype=np.float64)) + 1.0)


def tanh(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


@dataclass
class CellParams:
    """Affine transform of one direction: W (input_dim + d, 4d), b (1, 4d)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def d(self):
        return self.W.shape[1] // 4

    @property
    def input_dim(self):
        return self.W.shape[0] - self.d

    @classmethod
    def init(cls, input_dim, d, rng):
        """Glorot-uniform weights and a zero bias, drawn as ``Model.build`` does."""
        rows, cols = input_dim + d, 4 * d
        limit = np.sqrt(6.0 / (rows + cols))
        return cls(W=rng.uniform(-limit, limit, size=(rows, cols)), b=np.zeros((1, 4 * d)))


@dataclass
class StepCache:
    """Everything the backward pass needs from one forward step."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray


def _check_step_shapes(p, x, h_prev, c_prev):
    d = p.d
    if x.shape != (1, p.input_dim):
        raise ValueError(f"lstm_step: x shape {x.shape}, expected (1, {p.input_dim})")
    if h_prev.shape != (1, d) or c_prev.shape != (1, d):
        raise ValueError(
            f"lstm_step: state shapes {h_prev.shape}/{c_prev.shape}, expected (1, {d})"
        )


def lstm_step(p, x, h_prev, c_prev):
    """One cell update of CellParams ``p``; returns (h, c, cache)."""
    _check_step_shapes(p, x, h_prev, c_prev)
    d = p.d
    z = np.concatenate([x, h_prev], axis=1) @ p.W + p.b
    i = sigmoid(z[:, :d])
    f = sigmoid(z[:, d:2 * d])
    o = sigmoid(z[:, 2 * d:3 * d])
    g = tanh(z[:, 3 * d:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    cache = StepCache(x=x, h_prev=h_prev, c_prev=c_prev, i=i, f=f, o=o, g=g, c=c)
    return h, c, cache


def lstm_step_backward(p, cache, dh, dc_in):
    """Exact gradients of one step.

    dh and dc_in are the loss gradients arriving at h_t and c_t.  Returns
    (dW, db, dx, dh_prev, dc_prev).  Gate derivatives reuse the cached
    activation values: sigm' = v(1-v), tanh' = 1-v^2.
    """
    d = p.d
    if dh.shape != (1, d) or dc_in.shape != (1, d):
        raise ValueError(f"lstm_step_backward: grad shapes {dh.shape}/{dc_in.shape}, expected (1, {d})")
    i, f, o, g = cache.i, cache.f, cache.o, cache.g
    tc = np.tanh(cache.c)
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dz = np.empty((1, 4 * d))
    dz[:, :d] = (dc * g) * i * (1.0 - i)
    dz[:, d:2 * d] = (dc * cache.c_prev) * f * (1.0 - f)
    dz[:, 2 * d:3 * d] = (dh * tc) * o * (1.0 - o)
    dz[:, 3 * d:] = (dc * i) * (1.0 - g * g)
    xh = np.concatenate([cache.x, cache.h_prev], axis=1)
    dW = xh.T @ dz
    db = dz.copy()
    dxh = dz @ p.W.T
    dx = dxh[:, :p.input_dim]
    dh_prev = dxh[:, p.input_dim:]
    dc_prev = dc * f
    return dW, db, dx, dh_prev, dc_prev
