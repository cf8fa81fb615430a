"""Core tensor ops, and the step oracle's activations, against frozen
high-precision values and scipy."""

import numpy as np
import pytest
from scipy.special import expit

from dcbilstm.errors import ShapeError
from dcbilstm.tensor import glorot_uniform, make_rng
from lstm_oracle import sigmoid, tanh

# reference values computed once with mpmath at 30 significant digits
SIGMOID_HALF = 0.62245933120185456464
TANH_HALF = 0.46211715726000975850


def test_sigmoid_frozen_values():
    assert abs(sigmoid(0.5) - SIGMOID_HALF) < 1e-16
    assert abs(sigmoid(-0.5) - (1.0 - SIGMOID_HALF)) < 1e-16
    assert sigmoid(0.0) == 0.5


def test_sigmoid_saturates_cleanly():
    # the tanh formulation cannot overflow; extremes hit the bounds exactly
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0
    assert np.isfinite(sigmoid(np.array([-1e6, 1e6]))).all()


def test_sigmoid_matches_scipy_expit():
    rng = make_rng(11)
    x = rng.uniform(-30, 30, size=500)
    assert np.abs(sigmoid(x) - expit(x)).max() < 1e-15


def test_tanh_frozen_value():
    assert abs(tanh(0.5) - TANH_HALF) < 1e-16


def test_glorot_uniform_bound_and_determinism():
    limit = np.sqrt(6.0 / (40 + 24))
    w1 = glorot_uniform(40, 24, make_rng(5))
    w2 = glorot_uniform(40, 24, make_rng(5))
    assert np.array_equal(w1, w2)
    assert np.abs(w1).max() <= limit
    # a different seed should not reproduce the draw
    assert not np.array_equal(w1, glorot_uniform(40, 24, make_rng(6)))
    with pytest.raises(ShapeError):
        glorot_uniform(0, 4, make_rng(0))


def test_make_rng_streams_are_independent_of_call_order():
    r = make_rng(123)
    first = r.random(4)
    again = make_rng(123).random(4)
    assert np.array_equal(first, again)
