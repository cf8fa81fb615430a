"""The finite-difference oracle itself, then the model checker built on it."""

import numpy as np
import pytest

from dcbilstm import gradcheck, kernels
from dcbilstm.errors import ConfigError
from dcbilstm.gradcheck import check_model, finite_diff


def test_finite_diff_exact_on_quadratics():
    """Central differences have zero truncation error on degree-2 terms."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    x = rng.standard_normal((4, 1))

    def loss():
        return float((0.5 * x.T @ A @ x)[0, 0])

    grads = finite_diff(loss, {"x": x}, eps=1e-5)
    assert np.abs(grads["x"] - A @ x).max() < 1e-9


def test_finite_diff_second_order_in_eps():
    """On f = sum(x^3) the central-difference error is exactly eps^2 per
    element, so halving eps must cut the error by 4."""
    x = np.array([[0.3, -1.1, 2.0]])
    analytic = 3.0 * x * x

    def loss():
        return float((x ** 3).sum())

    err = {}
    for eps in (1e-3, 5e-4):
        g = finite_diff(loss, {"x": x}, eps=eps)["x"]
        err[eps] = np.abs(g - analytic).max()
    assert err[1e-3] == pytest.approx(1e-6, rel=1e-3)
    ratio = err[1e-3] / err[5e-4]
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_finite_diff_restores_parameters():
    x = np.array([[1.0, 2.0]])
    snapshot = x.copy()
    finite_diff(lambda: float((x * x).sum()), {"x": x}, eps=1e-5)
    assert np.array_equal(x, snapshot)


def test_finite_diff_certifies_a_column_slice_view():
    """A model parameter is a column block of a wider array; nudging it must
    reach the array the loss reads, not a flattened copy."""
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((3, 7))
    view = wide[:, 2:5]
    weights = rng.standard_normal((3, 7))

    def loss():
        return float((weights * wide ** 2).sum())

    snapshot = wide.copy()
    numeric = finite_diff(loss, {"view": view}, eps=1e-5)["view"]
    assert np.abs(numeric - 2.0 * weights[:, 2:5] * wide[:, 2:5]).max() < 1e-8
    assert np.array_equal(wide, snapshot)


def test_finite_diff_aborts_on_non_finite_loss():
    x = np.array([[0.5]])

    def loss():
        return float("nan")

    with pytest.raises(ConfigError):
        finite_diff(loss, {"x": x}, eps=1e-5)


def test_check_model_passes_on_reference_config():
    report = check_model(arch="dense", dl=2, seed=0)
    assert report.passed
    group_names = {g.name for g in report.groups}
    assert "softmax.W" in group_names and "input" in group_names
    assert {f"dense{l}.{d}.{p}" for l in range(2) for d in ("fwd", "bwd")
            for p in ("W", "b")} <= group_names
    assert report.format().endswith("PASS")


def test_check_model_catches_injected_fault():
    report = check_model(arch="dense", dl=1, seed=0, inject_fault=True)
    assert not report.passed
    failing = [g for g in report.groups if not g.passed]
    assert [g.name for g in failing] == ["softmax.W"]
    assert failing[0].worst_index == (0, 0)
    assert report.format().endswith("FAIL")


def test_check_model_stacked_and_depth_zero():
    assert check_model(arch="stacked", dl=1, seed=7).passed
    assert check_model(arch="dense", dl=0, seed=7).passed


def test_check_model_tolerances_are_enforced(monkeypatch):
    # an absurdly tight relative tolerance with no absolute floor must fail,
    # proving the comparison is live
    monkeypatch.setattr(gradcheck, "TOL_REL", 1e-16)
    monkeypatch.setattr(gradcheck, "TOL_ABS", 0.0)
    assert not check_model(arch="dense", dl=0, seed=0).passed


def test_check_model_packs_its_sentence_once(monkeypatch):
    """The batch is packed where it is built; the 2 loss evaluations per
    element of finite differences re-pack nothing."""
    calls, pack = [], kernels.pack

    def counted(lengths):
        calls.append(lengths.tolist())
        return pack(lengths)

    monkeypatch.setattr(kernels, "pack", counted)
    assert check_model("dense", dl=1).passed
    assert calls == [[5]]
