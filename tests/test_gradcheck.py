"""The finite-difference oracle itself, then the model checker built on it."""

import numpy as np
import pytest

from dcbilstm import gradcheck, kernels
from dcbilstm.data import pad_batch
from dcbilstm.errors import ConfigError
from dcbilstm.gradcheck import check_model, finite_diff, window_gradients
from dcbilstm.model import Model, embedding_gradient, model_backward, model_forward
from dcbilstm.train import cross_entropy
from tests.test_model import small_config


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


def test_finite_diff_gives_each_gradient_its_arrays_dtype():
    x, y = np.array([[0.5, -1.5]], np.float32), np.array([[2.0]])
    grads = finite_diff(lambda: float((x * x).sum() + (y * y).sum()), {"x": x, "y": y}, eps=1e-2)
    assert grads["x"].dtype == np.float32 and grads["y"].dtype == np.float64
    assert np.abs(grads["x"] - 2.0 * x).max() < 1e-3


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


def _window_case(seed=4):
    cfg = small_config(arch="dense", dl=2)
    rng = np.random.default_rng(seed)
    model = Model.build(cfg, rng)
    emb_matrix = 0.5 * rng.standard_normal((5, cfg.m))
    batch = pad_batch([([0, 1, 2, 3, 4], 2)])

    def loss_fn():
        probs, _ = model_forward(model, emb_matrix, batch)
        return cross_entropy(probs, batch.labels)[0]

    probs, trace = model_forward(model, emb_matrix, batch)
    analytic, dEmb = model_backward(model, trace, cross_entropy(probs, batch.labels)[1])
    analytic["input"] = embedding_gradient(trace, dEmb, len(emb_matrix))
    return model, emb_matrix, batch, loss_fn, analytic


@pytest.mark.parametrize("lo", [0, 4, 8])
def test_window_gradients_is_finite_diff_and_backward_on_the_window(lo):
    model, emb_matrix, batch, loss_fn, analytic = _window_case()
    name, window = "dense1.bwd.b", np.s_[:, lo:lo + 4]
    snapshot = model.lstm_b.copy()
    pairs = window_gradients(model, emb_matrix, batch, {name: window, "input": np.s_[2:4]})
    assert list(pairs) == [name, "input"]
    want = finite_diff(loss_fn, {name: model.params[name][window],
                                 "input": emb_matrix[2:4]})
    for key, index in ((name, window), ("input", np.s_[2:4])):
        got_analytic, got_numeric = pairs[key]
        assert got_numeric.tobytes() == want[key].tobytes(), key
        assert got_analytic.tobytes() == analytic[key][index].tobytes(), key
    assert model.lstm_b.tobytes() == snapshot.tobytes()


@pytest.mark.parametrize("index", [np.s_[:, [0, 1]], np.s_[0, 0], np.s_[np.array([True])]],
                         ids=["fancy", "scalar", "mask"])
def test_window_gradients_rejects_an_index_that_copies(index):
    model, emb_matrix, batch, _, _ = _window_case()
    with pytest.raises(ConfigError, match="copy"):
        window_gradients(model, emb_matrix, batch, {"softmax.b": index})
