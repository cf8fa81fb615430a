"""Central-difference verification of the analytic gradients.

``window_gradients`` pairs the analytic gradient of the eval loss (dropout
off) with its central difference over windows of a model's tensors, and
``compare`` judges a pair: an element passes within TOL_REL relative
error, or under TOL_ABS absolute gap for near-zero pairs.  ``check_model``
certifies every tensor of a small model and its input, a random length-5
sentence that is its own embedding matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import Model, ModelConfig, embedding_gradient, model_backward, model_forward
from .data import pad_batch
from .train import cross_entropy


def finite_diff(loss_fn, arrays, eps=1e-5):
    """Two-sided difference of loss_fn w.r.t. every element of `arrays`.

    arrays maps names to tensors that loss_fn reads; each element is
    nudged in place and restored, through the array itself, so a view of a
    wider array (a model parameter) is nudged where the model reads it.
    Each gradient has its array's dtype.  Cost is two loss evaluations per
    element, so keep the model tiny.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros(arr.shape, arr.dtype)
        for k in np.ndindex(arr.shape):
            saved = arr[k]
            arr[k] = saved + eps
            lo_hi = loss_fn()
            arr[k] = saved - eps
            lo_lo = loss_fn()
            arr[k] = saved
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise ConfigError(f"non-finite loss while probing {name}{list(k)}")
            g[k] = (lo_hi - lo_lo) / (2.0 * eps)
        grads[name] = g
    return grads


@dataclass
class GroupResult:
    name: str
    n: int
    max_rel: float
    max_abs: float
    worst_index: tuple
    passed: bool


@dataclass
class GradCheckReport:
    arch: str
    dl: int
    seed: int
    passed: bool
    groups: list = field(default_factory=list)

    def format(self):
        lines = [
            f"gradcheck arch={self.arch} dl={self.dl} seed={self.seed} "
            f"tol_rel={TOL_REL:g} tol_abs={TOL_ABS:g}"
        ]
        for g in self.groups:
            verdict = "ok" if g.passed else "FAIL"
            lines.append(
                f"  {g.name:<16s} n={g.n:<5d} max_rel={g.max_rel:.3e} "
                f"max_abs={g.max_abs:.3e} worst={g.worst_index} {verdict}"
            )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def compare(name, analytic, numeric):
    """GroupResult of an analytic gradient against its numeric estimate."""
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel = diff / denom
    ok = (rel <= TOL_REL) | (diff <= TOL_ABS)
    worst_flat = int(rel.argmax()) if rel.size else 0
    worst = np.unravel_index(worst_flat, analytic.shape) if analytic.size else ()
    return GroupResult(
        name=name,
        n=analytic.size,
        max_rel=float(rel.max()) if rel.size else 0.0,
        max_abs=float(diff.max()) if diff.size else 0.0,
        worst_index=tuple(int(i) for i in worst),
        passed=bool(ok.all()),
    )


# the certified model: m, dh, th, classes and sentence length
M, DH, TH, NUM_CLASSES, SEQ_LEN = 8, 4, 6, 3, 5
# an element passes within this relative error, or this absolute gap
TOL_REL, TOL_ABS = 1e-4, 1e-7


def window_gradients(model, emb_matrix, batch, windows):
    """{name: (analytic, numeric)} gradients of the eval loss over windows.

    windows maps a name of ``model.params``, or "input" for emb_matrix (only
    then is its gradient formed), to a basic index such as ``np.s_[:, 4:8]``
    or ``...``, probed in the order given.  An index that yields a copy
    raises ConfigError: a nudged copy never reaches the model.
    """
    arrays = dict(model.params, input=emb_matrix)
    views = {name: arrays[name][index] for name, index in windows.items()}
    for name, view in views.items():
        if view.size and not np.may_share_memory(view, arrays[name]):
            raise ConfigError(f"window {windows[name]!r} of {name} is a copy, not a view")

    def loss_fn():
        probs, _ = model_forward(model, emb_matrix, batch, training=False)
        return cross_entropy(probs, batch.labels)[0]

    probs, trace = model_forward(model, emb_matrix, batch, training=False)
    _, dlogits = cross_entropy(probs, batch.labels)
    analytic, dEmb = model_backward(model, trace, dlogits, embedding_grad="input" in windows)
    if "input" in windows:
        analytic["input"] = embedding_gradient(trace, dEmb, len(emb_matrix))
    numeric = finite_diff(loss_fn, views)
    return {name: (analytic[name][index], numeric[name]) for name, index in windows.items()}


def check_model(arch="dense", dl=1, seed=0, inject_fault=False):
    """Build a small random model and verify all its gradients.

    inject_fault deliberately corrupts one analytic softmax weight gradient
    so callers can confirm the checker notices and names the element.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        m=M, dl=dl, dh=DH, th=TH, num_classes=NUM_CLASSES, arch=arch,
        dropout_embed=0.0, dropout_pool=0.0, max_norm_s=None,
    ).validate()
    model = Model.build(cfg, rng)

    # the fake embedding matrix IS the input sentence, one row per position
    emb_matrix = 0.5 * rng.standard_normal((SEQ_LEN, M))
    batch = pad_batch([(list(range(SEQ_LEN)), int(rng.integers(NUM_CLASSES)))])

    windows = dict.fromkeys([*model.params, "input"], ...)  # every element
    pairs = window_gradients(model, emb_matrix, batch, windows)
    if inject_fault:
        pairs["softmax.W"][0][0, 0] += 1e-2
    groups = [compare(name, *pair) for name, pair in pairs.items()]
    return GradCheckReport(
        arch=arch, dl=dl, seed=seed, passed=all(g.passed for g in groups), groups=groups,
    )
