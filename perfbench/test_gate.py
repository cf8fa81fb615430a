"""The benchmark's correctness gate passes on the package and bites on a wrong gradient.

Run with ``python3 -m pytest -q perfbench`` from the root of the checkout.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import workloads as W
from refkernel import RefKernel

WL = W.WORKLOADS["sst2-dl3"]


@pytest.fixture
def pkg():
    return W.import_package()


def _perturb_backward(monkeypatch, pkg, name, rel):
    """Make model_backward return grads[name] with its first entry off by rel * norm."""
    original = pkg.model.model_backward

    def perturbed(*args, **kwargs):
        grads, d_emb = original(*args, **kwargs)
        g = grads[name].copy()
        g.flat[0] += rel * np.linalg.norm(g)
        return {**grads, name: g}, d_emb

    monkeypatch.setattr(pkg.model, "model_backward", perturbed)


def _small_state(pkg):
    """A tiny model and embedding table, enough for one finite-difference window."""
    cfg = pkg.model.ModelConfig(m=8, dl=1, dh=4, th=6, num_classes=2).validate()
    emb = np.random.default_rng(1).standard_normal((24, 8))
    emb[:2] = 0.0
    return SimpleNamespace(pkg=pkg, emb=emb,
                           model=pkg.model.Model.build(cfg, np.random.default_rng(0)))


SENTENCE = (list(range(2, 21)), 1)


def _run(tmp_path):
    return W.Run(WL, seed=0, seconds=1, trace=False, state_dir=tmp_path)


def test_gates_accept_the_package(pkg, tmp_path):
    run = _run(tmp_path)
    run.reference_gate(SimpleNamespace(pkg=pkg))
    run._gradcheck_window(_small_state(pkg), SENTENCE, 0)
    assert (run.attempted, run.failures) == (2, [])


def test_reference_gate_bites_on_perturbed_gradient(pkg, tmp_path, monkeypatch):
    # far below what a finite-difference check could see
    _perturb_backward(monkeypatch, pkg, "top.fwd.W", 1e-9)
    run = _run(tmp_path)
    run.reference_gate(SimpleNamespace(pkg=pkg))
    assert run.attempted == 1
    assert len(run.failures) == 1 and "top.fwd.W" in run.failures[0]


def test_finite_difference_gate_bites_on_perturbed_gradient(pkg, tmp_path, monkeypatch):
    _perturb_backward(monkeypatch, pkg, "dense0.fwd.b", 1e-2)
    run = _run(tmp_path)
    run._gradcheck_window(_small_state(pkg), SENTENCE, 0)
    assert run.attempted == 1
    assert len(run.failures) == 1 and "dense0.fwd.b" in run.failures[0]


def test_spread_order_prefixes_span_the_range():
    keys = list(range(100))
    order = W.spread_order(keys)
    assert sorted(order) == keys
    # any short prefix already has one pick in each quarter of the ranking
    assert {k // 25 for k in order[:4]} == {0, 1, 2, 3}
    assert W.spread_order([]) == [] and W.spread_order([7]) == [0]


def test_reference_kernel_is_deterministic():
    kernel = RefKernel()
    assert kernel.timed() > 0 and kernel._run() == kernel.checksum
