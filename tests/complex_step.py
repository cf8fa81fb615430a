"""Directional derivatives of a model's training loss by the complex step.

For a loss L that is real-analytic in its inputs, ``Im L(θ + i h v) / h``
is the directional derivative ``∇L(θ)·v`` up to a relative O(h²), and no
two nearby values are subtracted, so at h = 1e-30 it holds every digit
rounding leaves, however small the derivative (Squire & Trapp 1998, SIAM
Review 40(1)).  The model's forward is analytic: matrix products, ``tanh``
(the sigmoid gates are a shifted ``tanh``), ``exp`` and division, the
softmax's max shift cancelling exactly.  A complex copy of the model runs
the package's own forward, since every buffer it allocates follows the
storage's dtype.

The loss is the mean ``-log p[label]`` of the complex probabilities, not
``train.cross_entropy``, which casts to float.  Every evaluation re-seeds
the dropout rng, so the masks are those of the analytic pass.
"""

import numpy as np

from dcbilstm.model import Model, embedding_gradient, model_backward, model_forward
from dcbilstm.train import cross_entropy

H = 1e-30


def training_gradients(model, emb, batch, seed):
    """Gradients of the training loss whose dropout draws come from
    ``default_rng(seed)``: every model tensor's, as ``model_backward``
    gives them, and emb's as ``"input"``, from ``embedding_gradient``."""
    probs, trace = model_forward(model, emb, batch, np.random.default_rng(seed), training=True)
    _, dlogits = cross_entropy(probs, batch.labels)
    grads, dEmb = model_backward(model, trace, dlogits)
    grads["input"] = embedding_gradient(trace, dEmb, len(emb))
    return grads


def unit_directions(arrays, per_group, seed):
    """{name: [v, ...]}: per_group seeded unit vectors shaped like each array."""
    rng = np.random.default_rng(seed)
    directions = {}
    for name, arr in arrays.items():
        vs = [rng.standard_normal(arr.shape) for _ in range(per_group)]
        directions[name] = [v / np.linalg.norm(v) for v in vs]
    return directions


def directional_derivatives(model, emb, batch, seed, directions):
    """{name: [Im L(θ + i H v) / H for each v]} of the training loss, for
    directions over model tensors and ``"input"`` (emb), one complex
    forward each."""
    complex_model = Model(model.config, {name: arr.astype(np.complex128)
                                         for name, arr in model.named_params()})
    complex_emb = emb.astype(np.complex128)
    arrays = dict(complex_model.params, input=complex_emb)
    rows = np.arange(len(batch.labels))
    derivatives = {}
    for name, vs in directions.items():
        target, derivatives[name] = arrays[name], []
        for v in vs:
            target.imag[...] = H * v  # through the view, into the model's storage
            probs, _ = model_forward(complex_model, complex_emb, batch,
                                     np.random.default_rng(seed), training=True)
            loss = -np.log(probs[rows, batch.labels]).mean()
            derivatives[name].append(float(loss.imag) / H)
        target.imag[...] = 0.0
    return derivatives


def relative_errors(gradients, directions, derivatives):
    """{name: the worst |g·v - d| / max(|g·v|, |d|) over the group's
    directions}, 0 where both are 0."""
    worst = {}
    for name, vs in directions.items():
        errors = [0.0]
        for v, d in zip(vs, derivatives[name]):
            gv = float(np.vdot(gradients[name], v))
            scale = max(abs(gv), abs(d))
            errors.append(abs(gv - d) / scale if scale else 0.0)
        worst[name] = max(errors)
    return worst
