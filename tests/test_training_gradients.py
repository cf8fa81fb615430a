"""Training-mode gradients certified at the paper's depths by the complex step.

test_02 certifies the eval loss of one sentence at depths 0-3 by central
differences.  Here the loss is the training one, both dropouts drawn, over
a batch of mixed lengths, at depths 6, 10 and 20, where stacked layers'
gradients fall to about 1e-12, below central differences' noise.  Each
check compares ``model_backward``'s gradient along seeded unit directions
with the complex-step derivative (``complex_step``), which is exact to
rounding at any magnitude.
"""

import functools

import numpy as np
import pytest

from dcbilstm.data import pad_batch
from dcbilstm.gradcheck import DH, M, NUM_CLASSES, TH
from dcbilstm.model import Model, ModelConfig

from complex_step import (directional_derivatives, relative_errors, training_gradients,
                          unit_directions)

# fixed before the first run: the element-wise prototype read at most 2.3e-13
TOL_REL = 1e-9
PER_GROUP = 4
LENGTHS = (5, 2, 7)
VOCAB = 12
DROPOUT_SEED = 5
CONFIGS = [(arch, dl) for arch in ("dense", "stacked") for dl in (6, 10, 20)]


def groups(dl):
    """The certified groups: first, middle and top layer, head and input."""
    return ("dense0.fwd.W", f"dense{dl // 2}.bwd.b", "top.fwd.W", "softmax.W", "input")


@functools.cache
def certify(arch, dl):
    """(gradients, directions, complex-step derivatives) of one configuration."""
    cfg = ModelConfig(m=M, dl=dl, dh=DH, th=TH, num_classes=NUM_CLASSES, arch=arch,
                      dropout_embed=0.3, dropout_pool=0.3, max_norm_s=None).validate()
    rng = np.random.default_rng(dl)
    model = Model.build(cfg, rng)
    emb = 0.5 * rng.standard_normal((VOCAB, M))
    batch = pad_batch([(rng.integers(2, VOCAB, L).tolist(), int(rng.integers(NUM_CLASSES)))
                       for L in LENGTHS])
    arrays = dict(model.params, input=emb)
    directions = unit_directions({name: arrays[name] for name in groups(dl)}, PER_GROUP, dl)
    gradients = training_gradients(model, emb, batch, DROPOUT_SEED)
    derivatives = directional_derivatives(model, emb, batch, DROPOUT_SEED, directions)
    return gradients, directions, derivatives


@pytest.mark.parametrize("arch, dl", CONFIGS)
def test_training_gradients_match_the_complex_step(arch, dl):
    gradients, directions, derivatives = certify(arch, dl)
    errors = relative_errors(gradients, directions, derivatives)
    smallest = min(abs(d) for ds in derivatives.values() for d in ds)
    print(f"\n{arch} dl={dl}: worst rel {max(errors.values()):.1e}, "
          f"smallest |g.v| {smallest:.1e}")
    assert smallest > 0.0, "a zero derivative would pass vacuously"
    assert max(errors.values()) <= TOL_REL, errors


@pytest.mark.parametrize("group", groups(20))
def test_a_gradient_off_by_one_part_in_a_million_fails(group):
    """The check bites in every group of the deepest configuration, the
    stacked dl=20 one whose first layers' gradients are near 1e-12."""
    gradients, directions, derivatives = certify("stacked", 20)
    scaled = dict(gradients, **{group: gradients[group] * (1 + 1e-6)})
    errors = relative_errors(scaled, directions, derivatives)
    assert errors.pop(group) > TOL_REL
    assert max(errors.values()) <= TOL_REL
