"""Dense 2-D float64 tensor operations and the seeded RNG.

A "tensor" throughout this package is a 2-D ``float64`` numpy array,
possibly a row-strided view; a vector is a 1 x n tensor.  Randomness
always flows through a ``numpy.random.Generator`` seeded with PCG64 so
that every run is reproducible from its recorded seed.
"""

import numpy as np

from .errors import ShapeError

__all__ = [
    "make_rng",
    "glorot_uniform",
]


def make_rng(seed):
    """Seeded PCG64 generator; identical seed gives an identical draw stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def glorot_uniform(rows, cols, rng):
    """Uniform draw on [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))]."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"glorot_uniform: invalid shape ({rows}, {cols})")
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
