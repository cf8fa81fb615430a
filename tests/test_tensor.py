"""Float64 numerics: the Glorot draw of ``Model.build``, and the step
oracle's activations against frozen high-precision values and scipy."""

import numpy as np
from scipy.special import expit

from dcbilstm.model import Model, ModelConfig
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
    rng = np.random.default_rng(11)
    x = rng.uniform(-30, 30, size=500)
    assert np.abs(sigmoid(x) - expit(x)).max() < 1e-15


def test_tanh_frozen_value():
    assert abs(tanh(0.5) - TANH_HALF) < 1e-16


def test_glorot_uniform_bound_and_determinism():
    cfg = ModelConfig(m=40, dl=2, dh=6, th=8, num_classes=3)
    w1, w2, w3 = (dict(Model.build(cfg, np.random.default_rng(seed)).named_params())
                  for seed in (5, 5, 6))
    weights = [name for name in w1 if name.endswith(".W")]
    assert len(weights) == 7  # both directions of three layers, and the softmax
    for name in weights:
        rows, cols = w1[name].shape
        limit = np.sqrt(6.0 / (rows + cols))
        assert np.abs(w1[name]).max() <= limit
        assert np.array_equal(w1[name], w2[name])
        # a different seed should not reproduce the draw
        assert not np.array_equal(w1[name], w3[name])
