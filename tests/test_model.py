"""Network module: architectures, pooling, head, counting, checkpoints.

The forward paths are checked against a deliberately naive reimplementation
that chains single lstm_step calls and python-list concatenation, sharing
no code with the batched kernels.
"""

import itertools
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dcbilstm import kernels
from dcbilstm.data import make_batches, pad_batch
from dcbilstm.errors import CheckpointError, ConfigError
from dcbilstm.model import (
    Model,
    ModelConfig,
    _dropout_mask,
    average_pool_batch,
    count_params,
    embedding_gradient,
    format_param_count,
    load_checkpoint,
    model_backward,
    model_forward,
    param_shapes,
    run_depth,
    save_checkpoint,
    softmax_rows,
)
from dcbilstm.train import AdamState, adam_update, cross_entropy
from lstm_oracle import CellParams, lstm_step


def small_config(arch="dense", dl=2, m=6, dh=3, th=4, num_classes=3):
    return ModelConfig(m=m, dl=dl, dh=dh, th=th, num_classes=num_classes, arch=arch,
                       dropout_embed=0.0, dropout_pool=0.0, max_norm_s=None)


def save_with_vocab(path, model, seed):
    """``save_checkpoint`` with a three-token vocab and a random embedding
    matrix for it, drawn from seed."""
    emb = np.random.default_rng(seed).standard_normal((5, model.config.m))
    save_checkpoint(path, model, seed, vocab={"a": 2, "b": 3, "c": 4}, emb_matrix=emb)


def checkpoint_without_embeddings(path, model, vocab_section=True):
    """The bytes of a checkpoint of model with no embeddings tensor, and with
    no vocab section either unless vocab_section: a file as the format was
    written when both were optional."""
    save_with_vocab(path, model, 0)
    blob = path.read_bytes()
    k = len(model.named_params())
    blob = blob[:blob.index(f"embeddings 5 {model.config.m}\n".encode())]
    blob = blob.replace(f"\ntensors {k + 1}\n".encode(), f"\ntensors {k}\n".encode(), 1)
    return blob if vocab_section else blob.replace(b"\nvocab 3\na\nb\nc\n", b"\n", 1)


def checkpoint_with_vocab(path, model, tokens, emb):
    """The bytes of a checkpoint of model whose vocab section lists tokens and
    whose embeddings tensor is emb, fitting or not: a file as it could be
    written before ``save_checkpoint`` checked the two against each other."""
    save_with_vocab(path, model, 0)
    blob = path.read_bytes()
    blob = blob[:blob.index(f"embeddings 5 {model.config.m}\n".encode())]
    section = "".join(f"\n{line}" for line in [f"vocab {len(tokens)}", *tokens])
    blob = blob.replace(b"\nvocab 3\na\nb\nc", section.encode(), 1)
    return (blob + f"embeddings {emb.shape[0]} {emb.shape[1]}\n".encode()
            + np.ascontiguousarray(emb, dtype="<f8").tobytes())


def padded_batch(idx, lengths, labels):
    """The Batch ``pad_batch`` builds from the rows of a (B, T) index array,
    each cut at its length."""
    return pad_batch([(row[:L].tolist(), int(y)) for row, L, y in zip(idx, lengths, labels)])


# ---------------------------------------------------------------------------
# naive reference path


def _naive_bilayer(model, layer, xs):
    """xs: list of (1, w) rows.  Returns list of (1, 2d) concatenated states."""
    P = model.params
    fwd_p, bwd_p = (CellParams(W=P[f"{layer}.{tag}.W"], b=P[f"{layer}.{tag}.b"])
                    for tag in ("fwd", "bwd"))
    T = len(xs)
    d = fwd_p.d
    fwd = []
    h = np.zeros((1, d))
    c = np.zeros((1, d))
    for t in range(T):
        h, c, _ = lstm_step(fwd_p, xs[t], h, c)
        fwd.append(h)
    bwd = [None] * T
    h = np.zeros((1, d))
    c = np.zeros((1, d))
    for t in range(T - 1, -1, -1):
        h, c, _ = lstm_step(bwd_p, xs[t], h, c)
        bwd[t] = h
    return [np.concatenate([fwd[t], bwd[t]], axis=1) for t in range(T)]


def _naive_forward(model, emb_rows):
    """Per-position python-list version of both architectures."""
    feats = list(emb_rows)
    for l in range(model.config.dl):
        outs = _naive_bilayer(model, f"dense{l}", feats)
        if model.config.arch == "dense":
            feats = [np.concatenate([feats[t], outs[t]], axis=1) for t in range(len(feats))]
        else:
            feats = outs
    top = _naive_bilayer(model, "top", feats)
    pooled = sum(top) / len(top)
    probs = softmax_rows(pooled @ model.softmax_W + model.softmax_b)
    return top, pooled, probs


@pytest.mark.parametrize("arch", ["dense", "stacked"])
@pytest.mark.parametrize("dl", [0, 1, 3])
def test_forward_matches_naive_reimplementation(arch, dl):
    rng = np.random.default_rng(10 * dl + (arch == "dense"))
    cfg = small_config(arch=arch, dl=dl)
    model = Model.build(cfg, rng)
    T = 5
    emb_rows = [rng.standard_normal((1, cfg.m)) for _ in range(T)]

    ref_top, ref_pooled, ref_probs = _naive_forward(model, emb_rows)

    # the embedding matrix is the sentence itself, one row per position
    batch = pad_batch([(list(range(T)), 0)])
    _, trace = model_forward(model, np.concatenate(emb_rows, axis=0), batch)
    Htop = trace.states[:, -2 * cfg.th:]  # packed; one sentence packs in position order
    for t in range(T):
        assert np.abs(Htop[t] - ref_top[t][0]).max() < 1e-12
    pooled = average_pool_batch(Htop, batch)
    assert np.abs(pooled - ref_pooled).max() < 1e-12
    probs = softmax_rows(pooled @ model.softmax_W + model.softmax_b)
    assert np.abs(probs - ref_probs).max() < 1e-12


def test_degenerate_dl0_architectures_identical_bitwise():
    rng = np.random.default_rng(5)
    dense_cfg = small_config(arch="dense", dl=0)
    model = Model.build(dense_cfg, rng)
    stacked_cfg = small_config(arch="stacked", dl=0)
    twin = Model(stacked_cfg, model.params)

    for trial in range(10):
        r = np.random.default_rng(1000 + trial)
        T = int(r.integers(1, 9))
        X = r.standard_normal((T, dense_cfg.m))
        batch = pad_batch([(list(range(T)), 0)])
        _, ta = model_forward(model, X, batch)
        _, tb = model_forward(twin, X, batch)
        assert np.array_equal(ta.states, tb.states)


def test_growth_law_fail_fast():
    rng = np.random.default_rng(1)
    cfg = small_config(arch="dense", dl=2)
    good = Model.build(cfg, rng)
    # swap in a layer whose input width skips the dense growth law
    bad = dict(good.params)
    for tag in ("fwd", "bwd"):
        # input width m, where the growth law gives m + 2*dh
        bad[f"dense1.{tag}.W"] = rng.uniform(-0.5, 0.5, size=(cfg.m + cfg.dh, 4 * cfg.dh))
    with pytest.raises(ConfigError):
        Model(cfg, bad)
    one_layer = {name: arr for name, arr in good.params.items() if not name.startswith("dense1.")}
    with pytest.raises(ConfigError):
        Model(cfg, one_layer)


@pytest.mark.parametrize("arch", ["dense", "stacked"])
def test_param_table_follows_the_growth_law(arch):
    def reads(l, m, dh):
        """Input width of layer l (1-based); the top layer reads like layer dl + 1."""
        if arch == "dense":
            return m + 2 * dh * (l - 1)
        return m if l == 1 else 2 * dh

    for m, dh, th in [(300, 13, 100), (7, 2, 5)]:
        for dl in range(21):
            layers = [(f"dense{l - 1}", reads(l, m, dh), dh) for l in range(1, dl + 1)]
            layers.append(("top", reads(dl + 1, m, dh), th))
            expected = [(f"{name}.{tag}.{p}", shape)
                        for name, w, d in layers for tag in ("fwd", "bwd")
                        for p, shape in (("W", (w + d, 4 * d)), ("b", (1, 4 * d)))]
            expected += [("softmax.W", (2 * th, 3)), ("softmax.b", (1, 3))]
            cfg = ModelConfig(m=m, dl=dl, dh=dh, th=th, num_classes=3, arch=arch)
            assert param_shapes(cfg) == expected, (m, dl, dh, th)


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(m=6, dl=1, dh=3, th=4, num_classes=3, arch="wide").validate()
    with pytest.raises(ConfigError):
        ModelConfig(m=0, dl=1, dh=3, th=4, num_classes=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(m=6, dl=-1, dh=3, th=4, num_classes=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(m=6, dl=1, dh=0, th=4, num_classes=3).validate()
    with pytest.raises(ConfigError, match="dh must be >= 0"):
        ModelConfig(m=6, dl=0, dh=-1, th=4, num_classes=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(m=6, dl=1, dh=3, th=4, num_classes=1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(m=6, dl=1, dh=3, th=4, num_classes=3, dropout_pool=1.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(m=6, dl=1, dh=3, th=4, num_classes=3, max_norm_s=0.0).validate()
    # a zero width is allowed without dense layers
    ModelConfig(m=6, dl=0, dh=0, th=4, num_classes=3).validate()


# ---------------------------------------------------------------------------
# parameter counting


def dense_count(m, dl, dh, th):
    return count_params(ModelConfig(m=m, dl=dl, dh=dh, th=th, num_classes=2))


def test_count_params_equals_constructed_model_size():
    for arch, (m, dl, dh, th) in itertools.product(
            ["dense", "stacked"], [(6, 0, 3, 4), (6, 2, 3, 4), (12, 3, 5, 7), (300, 1, 10, 100)]):
        cfg = ModelConfig(m=m, dl=dl, dh=dh, th=th, num_classes=3, arch=arch)
        model = Model.build(cfg, np.random.default_rng(0))
        recurrent = sum(arr.size for name, arr in model.named_params()
                        if not name.startswith("softmax"))
        assert recurrent == count_params(cfg), (arch, m, dl, dh, th)


def test_count_params_published_cells():
    # (dl, dh, th) -> exact count and the printed 0.01M cell, m = 300
    cells = {
        (0, 10, 300): (1_442_400, "1.44M"),
        (5, 40, 100): (1_442_400, "1.44M"),
        (10, 20, 100): (1_442_400, "1.44M"),
        (15, 13, 100): (1_406_560, "1.40M"),
        (20, 10, 100): (1_442_400, "1.44M"),
        (0, 10, 100): (320_800, "0.32M"),
        (5, 10, 100): (541_200, "0.54M"),
        (10, 10, 100): (801_600, "0.80M"),
        (15, 10, 100): (1_102_000, "1.10M"),
        (10, 5, 100): (541_200, "0.54M"),
        (10, 15, 100): (1_102_000, "1.10M"),
    }
    for (dl, dh, th), (exact, printed) in cells.items():
        n = dense_count(300, dl, dh, th)
        assert n == exact, (dl, dh, th)
        assert format_param_count(n) == printed, (dl, dh, th)


def test_count_params_zero_width_dense_stack():
    # a zero-width stack runs at depth 0, for either arch
    assert run_depth(10, 0) == 0 and run_depth(10, 3) == 10
    for arch in ("dense", "stacked"):
        cfg = ModelConfig(m=300, dl=run_depth(10, 0), dh=0, th=100, num_classes=2, arch=arch)
        assert count_params(cfg.validate()) == dense_count(300, 0, 0, 100) == 320_800


def test_count_params_rejects_impossible_sizes():
    # count_params counts what it is given; the ModelConfig it counts is
    # what rejects an impossible size, the zero-width rule applied first
    for m, dl, dh, th in [(300, -2, 10, 100), (300, 2, -3, 100), (300, 0, 10, -5),
                          (300, 0, 10, 0), (0, 1, 10, 100), (0, 0, 0, -5), (300, -2, 0, 100),
                          (300, 0, -3, 100)]:
        cfg = ModelConfig(m=m, dl=run_depth(dl, dh), dh=dh, th=th, num_classes=2)
        with pytest.raises(ConfigError):
            cfg.validate()


# ---------------------------------------------------------------------------
# pooling and head


def one_length(n):
    return np.array([n], dtype=np.int64)


def packed(H, lengths):
    """A padded (B, T, D) array packed as ``pad_batch`` packs sentences of
    these lengths, and that batch."""
    batch = pad_batch([([2] * L, 0) for L in lengths.tolist()])
    return H[batch.packing.rows, batch.packing.ts], batch


def test_average_pool_identical_vectors():
    v = np.array([1.5, -2.0, 0.25])
    H = np.tile(v, (1, 3, 1))
    assert np.abs(average_pool_batch(*packed(H, one_length(3))) - v).max() < 1e-15


def test_average_pool_hand_case():
    out = average_pool_batch(*packed(np.array([[[1.0, 0.0], [0.0, 1.0]]]), one_length(2)))
    assert np.array_equal(out, np.array([[0.5, 0.5]]))


def test_average_pool_ignores_padding():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((1, 6, 4))
    pooled = average_pool_batch(*packed(H, one_length(3)))
    assert np.abs(pooled - average_pool_batch(*packed(H[:, :3], one_length(3)))).max() < 1e-12
    # rows of a mixed-length batch pool as they would alone
    lengths = np.array([3, 6, 1], dtype=np.int64)
    Hb = rng.standard_normal((3, 6, 4))
    batched = average_pool_batch(*packed(Hb, lengths))
    for n, L in enumerate(lengths):
        alone = average_pool_batch(*packed(Hb[n:n + 1, :L], lengths[n:n + 1]))
        assert np.abs(batched[n] - alone[0]).max() < 1e-12
    with pytest.raises(ConfigError):
        average_pool_batch(H[0, :2], packed(H, one_length(5))[1])


def test_classify_uniform_and_shift_invariance():
    h = np.array([[0.3, -1.2, 4.0, 0.0]])
    W0 = np.zeros((4, 5))
    b0 = np.zeros((1, 5))
    assert np.abs(softmax_rows(h @ W0 + b0) - 0.2).max() < 1e-15

    rng = np.random.default_rng(3)
    W = rng.standard_normal((4, 5))
    b = rng.standard_normal((1, 5))
    p1 = softmax_rows(h @ W + b)
    assert abs(p1.sum() - 1.0) < 1e-12
    p2 = softmax_rows((h @ W + b) + 123.456)
    assert np.abs(p1 - p2).max() < 1e-12
    # extreme logits stay finite thanks to max subtraction
    assert np.isfinite(softmax_rows(np.array([[1e4, -1e4, 0.0]]))).all()


# ---------------------------------------------------------------------------
# dropout


def test_dropout_identity_paths():
    # in eval mode, or training with a zero pool rate, the pooled vector
    # reaches the softmax unmasked
    cfg = small_config(dl=1)
    model = Model.build(cfg, np.random.default_rng(0))
    emb_matrix = np.random.default_rng(1).standard_normal((6, cfg.m))
    batch = _repeated_token_batch(2)
    for rate, training in ((0.5, False), (0.0, True)):
        cfg.dropout_embed, cfg.dropout_pool = 0.3, rate
        probs, trace = model_forward(model, emb_matrix, batch, np.random.default_rng(3),
                                     training=training)
        pooled = average_pool_batch(trace.states[:, model.layers[-1].out], batch)
        assert trace.mask_pool is None
        assert np.array_equal(trace.pooled_dropped, pooled)
        assert np.array_equal(probs, softmax_rows(pooled @ model.softmax_W + model.softmax_b))


def test_dropout_scales_survivors():
    rng = np.random.default_rng(1)
    mask = _dropout_mask(rng.random((1, 1000)), 0.5)
    assert mask.shape == (1, 1000)
    assert set(np.unique(mask)) == {0.0, 2.0}


def test_dropout_monte_carlo_unbiased():
    # seeded, so this is a frozen numerical fact rather than a flaky sample
    rng = np.random.default_rng(1234)
    x = np.linspace(0.5, 2.0, 20).reshape(1, 20)
    acc = np.zeros_like(x)
    trials = 100_000
    for _ in range(trials):
        acc += x * _dropout_mask(rng.random(x.shape), 0.5)
    rel = np.abs(acc / trials - x) / x
    assert rel.max() < 0.01, rel.max()


# ---------------------------------------------------------------------------
# full model forward


def test_model_forward_identical_rows():
    rng = np.random.default_rng(4)
    cfg = small_config(arch="dense", dl=1)
    model = Model.build(cfg, rng)
    emb_matrix = rng.standard_normal((9, cfg.m))
    batch = pad_batch([([2, 5, 3], 0), ([2, 5, 3], 1)])
    probs, _ = model_forward(model, emb_matrix, batch, training=False)
    assert np.array_equal(probs[0], probs[1])


def test_model_backward_returns_every_parameter():
    rng = np.random.default_rng(6)
    cfg = small_config(arch="stacked", dl=2)
    model = Model.build(cfg, rng)
    emb_matrix = rng.standard_normal((8, cfg.m))
    batch = pad_batch([([1, 2, 3], 1)])
    probs, trace = model_forward(model, emb_matrix, batch, training=False)
    dlogits = probs.copy()
    dlogits[0, 1] -= 1.0
    grads, dEmb = model_backward(model, trace, dlogits)
    names = {name for name, _ in model.named_params()}
    assert set(grads) == names
    for name, arr in model.named_params():
        assert grads[name].shape == arr.shape, name
    assert dEmb.shape == (3, cfg.m) and len(trace.batch.tokens) == 3


def _training_step_inputs(arch, seed):
    cfg = small_config(arch=arch, dl=2)
    cfg.dropout_embed, cfg.dropout_pool, cfg.forget_bias = 0.3, 0.2, 1.0
    model = Model.build(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    emb = rng.standard_normal((12, cfg.m))
    lengths = np.array([3, 6, 1, 4], dtype=np.int64)
    idx = rng.integers(2, 12, size=(4, 6))
    idx[np.arange(6) >= lengths[:, None]] = 0
    return model, emb, padded_batch(idx, lengths, [0, 2, 1, 1])


def _backward(model, emb, batch, **kwargs):
    probs, trace = model_forward(model, emb, batch, np.random.default_rng(77), training=True)
    dlogits = probs.copy()
    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    return model_backward(model, trace, dlogits / len(batch.labels), **kwargs)


@pytest.mark.parametrize("arch", ["dense", "stacked"])
def test_skipping_the_embedding_gradient_keeps_every_parameter_gradient(arch):
    model, emb, batch = _training_step_inputs(arch, 40)
    full, dEmb = _backward(model, emb, batch)
    skipped, none = _backward(model, emb, batch, embedding_grad=False)
    assert dEmb.shape == (int(batch.lengths.sum()), model.config.m) and none is None
    assert list(full) == list(skipped)
    for name in full:
        assert full[name].tobytes() == skipped[name].tobytes(), name


@pytest.mark.parametrize("dl, dh, th", [(3, 10, 50), (15, 13, 100)],
                         ids=["sst2-dl3", "sst2-dl15"])
def test_a_training_step_at_the_benchmark_shapes_is_finite(dl, dh, th):
    """One step with both dropouts at the benchmark's reference shapes (m=300,
    B=8, SST-like lengths): loss, every parameter gradient and the embedding
    gradient of ``model_backward``'s default are finite."""
    rng = np.random.default_rng(1701)
    cfg = ModelConfig(m=300, dl=dl, dh=dh, th=th, num_classes=2,
                      dropout_embed=0.5, dropout_pool=0.5)
    model = Model.build(cfg, rng)
    emb = 0.4 * rng.standard_normal((64, cfg.m))
    emb[:2] = 0.0
    lengths = np.clip(np.rint(rng.normal(19, 9, 8)), 2, 56).astype(int)
    batch = make_batches([(rng.integers(2, 64, L).tolist(), int(rng.integers(0, 2)))
                          for L in lengths], 8)[0]
    probs, trace = model_forward(model, emb, batch, rng, training=True)
    loss, dlogits = cross_entropy(probs, batch.labels)
    grads, dEmb = model_backward(model, trace, dlogits)
    assert np.isfinite(loss) and loss > 0
    assert {name for name, _ in model.named_params()} == set(grads)
    for name, g in grads.items():
        assert np.isfinite(g).all(), name
    assert dEmb.shape == (int(lengths.sum()), cfg.m) and np.isfinite(dEmb).all()


def test_a_trace_takes_one_backward_pass():
    model, emb, batch = _training_step_inputs("dense", 41)
    probs, trace = model_forward(model, emb, batch, np.random.default_rng(77), training=True)
    dlogits = probs - 0.5
    model_backward(model, trace, dlogits)
    with pytest.raises(ConfigError):
        model_backward(model, trace, dlogits)


def test_a_batch_is_packed_once_where_it_is_built(monkeypatch):
    """make_batches packs a batch and lists its distinct tokens; a training
    step with both dropouts, the embedding gradient and an eval forward
    only read them."""
    cfg = small_config(dl=2)
    cfg.dropout_embed, cfg.dropout_pool = 0.3, 0.2
    model = Model.build(cfg, np.random.default_rng(45))
    emb = np.random.default_rng(46).standard_normal((12, cfg.m))
    indexed = [([2, 5, 3], 0), ([7], 1), ([4, 4, 9, 11, 2], 2), ([3, 3], 1)]
    batch = make_batches(indexed, len(indexed))[0]

    def again(*args, **kwargs):
        raise AssertionError("the batch's layout was computed again")

    monkeypatch.setattr(kernels, "pack", again)
    monkeypatch.setattr(np, "unique", again)
    probs, trace = model_forward(model, emb, batch, np.random.default_rng(47), training=True)
    assert trace.mask_embed is not None and trace.mask_pool is not None
    dlogits = probs.copy()
    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    _, dEmb = model_backward(model, trace, dlogits / len(batch.labels))
    full = embedding_gradient(trace, dEmb, len(emb))
    eval_probs, _ = model_forward(model, emb, batch, training=False)
    monkeypatch.undo()
    used = sorted({tok for idxs, _ in indexed for tok in idxs})
    assert np.unique(np.nonzero(full)[0]).tolist() == used
    assert np.abs(eval_probs.sum(axis=1) - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# eval forward: one gate row per distinct token


def _per_token_forward(model, emb_matrix, batch):
    """Eval forward with the embedding product taken over every token.

    A training forward with an embedding-dropout rate of 1e-300 keeps every
    draw and scales by 1 / (1 - 1e-300) == 1.0, so it is the eval forward
    with the per-token product of the masked path.
    """
    cfg = replace(model.config, dropout_embed=1e-300, dropout_pool=0.0)
    probs, trace = model_forward(Model(cfg, model.params), emb_matrix, batch, np.random.default_rng(0),
                                 training=True)
    assert (trace.mask_embed == 1).all()
    return probs, trace


def _repeated_token_batch(seed, B=7, T=9, vocab=6):
    """A batch drawn from a few token ids, so most tokens repeat."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    idx = rng.integers(2, vocab, size=(B, T))
    idx[np.arange(T) >= lengths[:, None]] = 0
    return padded_batch(idx, lengths, rng.integers(0, 3, size=B))


def _near(a, b, tol=1e-12):
    return np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("arch", ["dense", "stacked"])
@pytest.mark.parametrize("dl", [0, 3])
def test_eval_forward_over_distinct_tokens_matches_the_per_token_product(arch, dl):
    """Stacked models also cover the gate columns past the embedded layer,
    which receive only the bias."""
    cfg = small_config(arch=arch, dl=dl)
    cfg.forget_bias = 1.0
    model = Model.build(cfg, np.random.default_rng(50 + dl))
    emb_matrix = np.random.default_rng(51).standard_normal((6, cfg.m))
    batch = _repeated_token_batch(52 + dl)
    n_tokens = int(batch.lengths.sum())
    assert len(np.unique(batch.indices[batch.indices > 0])) < n_tokens
    probs, trace = model_forward(model, emb_matrix, batch, training=False)
    want, ref = _per_token_forward(model, emb_matrix, batch)
    assert _near(probs, want) and _near(trace.gates, ref.gates)
    # both traces keep the caller's matrix, and the backward gathers its rows
    assert trace.emb_matrix is emb_matrix and ref.emb_matrix is emb_matrix
    assert trace.mask_embed is None

    # a backward pass on the eval trace gives the per-token gradients
    dlogits = probs.copy()
    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    grads, dEmb = model_backward(model, trace, dlogits)
    want_grads, want_dEmb = model_backward(model, ref, dlogits)
    assert list(grads) == list(want_grads)
    for name in grads:
        assert _near(grads[name], want_grads[name]), name
    assert _near(dEmb, want_dEmb)


def test_eval_forward_reruns_are_byte_identical():
    model = Model.build(small_config(dl=3), np.random.default_rng(53))
    emb_matrix = np.random.default_rng(54).standard_normal((6, model.config.m))
    batch = _repeated_token_batch(55)
    first, _ = model_forward(model, emb_matrix, batch, training=False)
    again, _ = model_forward(model, emb_matrix, batch, training=False)
    assert first.tobytes() == again.tobytes()


@pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "MT19937", "buffered"])
def test_embedding_dropout_draws_the_padded_stream(bit_generator):
    """The mask of every real token is the one a padded (B, T, m) draw
    gives, and the generator's next draw after the batches is the same."""
    cfg = small_config(dl=1)
    cfg.dropout_embed, cfg.dropout_pool = 0.4, 0.0  # the pool site draws nothing
    model = Model.build(cfg, np.random.default_rng(56))
    emb_matrix = np.random.default_rng(57).standard_normal((6, cfg.m))

    def generator():
        if bit_generator == "buffered":
            # a 32-bit draw leaves half of a 64-bit output buffered
            rng = np.random.default_rng(58)
            rng.integers(0, 7, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"]
            return rng
        return np.random.Generator(getattr(np.random, bit_generator)(58))

    rng, padded = generator(), generator()
    for k in range(3):
        batch = _repeated_token_batch(59 + k)
        _, trace = model_forward(model, emb_matrix, batch, rng, training=True)
        draws = padded.random(batch.indices.shape + (cfg.m,))
        kept = draws[batch.packing.rows, batch.packing.ts] >= cfg.dropout_embed
        assert trace.mask_embed.tobytes() == (kept / (1.0 - cfg.dropout_embed)).tobytes()
    assert rng.random(9).tobytes() == padded.random(9).tobytes()
    assert rng.integers(0, 7, size=5, dtype=np.uint32).tolist() == \
        padded.integers(0, 7, size=5, dtype=np.uint32).tolist()


# ---------------------------------------------------------------------------
# parameter storage


@pytest.mark.parametrize("arch", ["dense", "stacked"])
def test_every_lstm_parameter_is_a_view_of_the_model_storage(arch):
    model = Model.build(small_config(arch=arch, dl=3), np.random.default_rng(42))
    assert [name for name, _ in model.named_params()] == [
        name for name, _ in param_shapes(model.config)]
    col = 0
    for name, arr in model.named_params():
        if name.startswith("softmax."):
            assert arr.base is None and not np.shares_memory(arr, model.lstm_W), name
            continue
        store = model.lstm_W if name.endswith(".W") else model.lstm_b
        assert arr.base is store, name
        # column blocks in table order, each layer's fwd and bwd side by side
        rows, cols = arr.shape
        assert np.shares_memory(arr, store[:rows, col:col + cols]), name
        assert arr.__array_interface__["data"][0] == store[:, col:].__array_interface__["data"][0]
        if name.endswith(".b"):
            col += cols
    assert col == model.lstm_W.shape[1] == model.lstm_b.shape[1]


def test_model_storage_keeps_the_parameter_contracts(tmp_path):
    model = Model.build(small_config(dl=2), np.random.default_rng(43))
    # an Adam step on the views equals one on plain arrays, and reaches the storage
    plain = {name: arr.copy() for name, arr in model.named_params()}
    rng = np.random.default_rng(44)
    grads = {name: rng.standard_normal(arr.shape) for name, arr in plain.items()}
    for name, arr in model.named_params():
        adam_update(arr, grads[name], AdamState.like(arr), 0.01)
        adam_update(plain[name], grads[name], AdamState.like(plain[name]), 0.01)
    for name, arr in model.named_params():
        assert arr.tobytes() == plain[name].tobytes(), name
    W = model.params["dense1.bwd.W"]
    assert np.shares_memory(W, model.lstm_W) and W.base is model.lstm_W

    # a checkpoint round trip rebuilds the same storage, padding rows zero
    path = tmp_path / "m.ckpt"
    save_with_vocab(path, model, 5)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.lstm_W, model.lstm_W)
    assert np.array_equal(loaded.lstm_b, model.lstm_b)
    assert loaded.params["top.fwd.W"].base is loaded.lstm_W
    rows = model.params["dense0.fwd.W"].shape[0]
    assert rows < model.lstm_W.shape[0] and not model.lstm_W[rows:, :4 * model.config.dh].any()

    # Model(cfg, params) copies: the two models share no memory
    twin = Model(model.config, model.params)
    for (name, a), (_, b) in zip(model.named_params(), twin.named_params()):
        assert np.array_equal(a, b) and not np.shares_memory(a, b), name
    model.lstm_W[...] = 0.0
    model.params["softmax.W"][...] = 0.0
    assert twin.lstm_W.any() and twin.params["softmax.W"].any()


@pytest.mark.parametrize("arch", ["dense", "stacked"])
def test_padding_a_batch_further_changes_nothing_bitwise(arch):
    """Padding never enters the packed layout or the random stream, so the
    same batch padded 3 positions further gives byte-identical probabilities
    and gradients, in eval mode and, from the same seed, in training with
    both dropouts, whose masks are byte-identical too."""
    rng = np.random.default_rng(13)
    cfg = small_config(arch=arch, dl=2)
    cfg.dropout_embed, cfg.dropout_pool = 0.3, 0.2
    model = Model.build(cfg, rng)
    emb_matrix = rng.standard_normal((12, cfg.m))
    lengths = np.array([2, 6, 1, 4, 6], dtype=np.int64)
    idx = rng.integers(2, 12, size=(5, 6))
    idx[np.arange(6) >= lengths[:, None]] = 0
    labels = np.array([0, 2, 1, 1, 0], dtype=np.int64)
    batch = padded_batch(idx, lengths, labels)
    for training in (False, True):
        results = []
        for extra in (0, 3):
            padded = replace(batch, indices=np.pad(batch.indices, ((0, 0), (0, extra))))
            probs, trace = model_forward(model, emb_matrix, padded, np.random.default_rng(14),
                                         training=training)
            masks = {"mask_embed": trace.mask_embed, "mask_pool": trace.mask_pool}
            assert all((mask is not None) == training for mask in masks.values())
            dlogits = probs.copy()
            dlogits[np.arange(5), labels] -= 1.0
            grads, dEmb = model_backward(model, trace, dlogits / 5)
            results.append((probs, {**masks, **grads, "embeddings": dEmb}))
        (p0, g0), (p3, g3) = results
        assert p0.tobytes() == p3.tobytes(), training
        assert set(g0) == set(g3)
        for name in g0:
            assert np.asarray(g0[name]).tobytes() == np.asarray(g3[name]).tobytes(), name


@pytest.mark.parametrize("arch", ["dense", "stacked"])
@pytest.mark.parametrize("dropout_embed", [0.0, 0.3])
def test_a_training_trace_keeps_the_matrix_and_no_embedding_rows(arch, dropout_embed):
    """The trace references the caller's matrix; the only (N, m) array it
    holds is the dropout mask, and the backward pass forms the rows itself."""
    cfg = small_config(arch=arch, dl=2, m=5)
    cfg.dropout_embed, cfg.dropout_pool = dropout_embed, 0.2
    model = Model.build(cfg, np.random.default_rng(15))
    emb_matrix = np.random.default_rng(16).standard_normal((6, cfg.m))
    batch = _repeated_token_batch(17)
    probs, trace = model_forward(model, emb_matrix, batch, np.random.default_rng(18),
                                 training=True)
    assert trace.emb_matrix is emb_matrix
    assert (trace.mask_embed is not None) == (dropout_embed > 0)
    shape = (int(batch.lengths.sum()), cfg.m)
    held = [(f.name, getattr(trace, f.name)) for f in fields(trace) if f.name != "batch"]
    held += [(f"cells{k}", c) for k, pair in enumerate(trace.cells) for c in pair]
    for name, arr in held:
        if isinstance(arr, np.ndarray) and arr is not emb_matrix:
            assert name == "mask_embed" or arr.shape != shape, name
            assert not np.shares_memory(arr, emb_matrix), name

    # the backward pass's embedding-row gradient is that of the masked rows
    rows = emb_matrix[batch.tokens] * (1.0 if trace.mask_embed is None else trace.mask_embed)
    dlogits = probs.copy()
    dlogits[np.arange(len(batch.labels)), batch.labels] -= 1.0
    grads, _ = model_backward(model, trace, dlogits)
    got = np.hstack([grads[f"{L.name}.{tag}.W"][:cfg.m] for L in model.layers if L.embedded
                     for tag in ("fwd", "bwd")])
    assert _near(got, rows.T @ trace.gates[:, model.embedded_cols])


def _per_direction_pair(Z, Wf, Wb):
    """The two per-direction kernel calls that ``lstm_pair_forward`` replaces."""
    P, d = kernels.pack(np.array([len(Z)], dtype=np.int64)), Wf.shape[1] // 4
    return (kernels.lstm_layer_forward(Z[:, :4 * d], P, Wf, False),
            kernels.lstm_layer_forward(Z[:, 4 * d:], P, Wb, True))


def _one_sentence_step(arch, dl, training, T=7):
    """Every array of a seeded forward and backward pass over one sentence."""
    cfg = small_config(arch=arch, dl=dl)
    cfg.dropout_embed, cfg.dropout_pool, cfg.forget_bias = 0.3, 0.2, 1.0
    rng = np.random.default_rng(60 + dl)
    model = Model.build(cfg, rng)
    emb = rng.standard_normal((12, cfg.m))
    batch = padded_batch(rng.integers(2, 12, size=(1, T)), [T], [2])
    probs, trace = model_forward(model, emb, batch, np.random.default_rng(61), training=training)
    out = {"probs": probs, "states": trace.states, "gates": trace.gates.copy()}
    out.update((f"cells{k}", np.hstack(c)) for k, c in enumerate(trace.cells))
    dlogits = probs.copy()
    dlogits[0, 2] -= 1.0
    grads, dEmb = model_backward(model, trace, dlogits)
    return {**out, **grads, "embeddings": dEmb}


@pytest.mark.parametrize("arch", ["dense", "stacked"])
@pytest.mark.parametrize("dl", [0, 3])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
def test_one_sentence_runs_both_directions_in_one_loop_bitwise(monkeypatch, arch, dl, training):
    """A batch of one sentence takes the paired kernel; its forward arrays
    and the backward pass's gradients are those of the per-direction path."""
    got = _one_sentence_step(arch, dl, training)
    monkeypatch.setattr(kernels, "lstm_pair_forward", _per_direction_pair)
    want = _one_sentence_step(arch, dl, training)
    assert list(got) == list(want)
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_batch_size_selects_the_forward_kernel(monkeypatch):
    """One sentence never calls the per-direction kernel, and two never call
    the paired one, in eval and in training."""
    def never(*args):
        raise AssertionError("the other forward kernel ran")

    cfg = small_config(dl=2)
    cfg.dropout_embed, cfg.dropout_pool = 0.3, 0.2
    model = Model.build(cfg, np.random.default_rng(62))
    emb = np.random.default_rng(63).standard_normal((12, cfg.m))
    for group, unused in (([([2, 5, 3], 0)], "lstm_layer_forward"),
                          ([([2, 5, 3], 0), ([7], 1)], "lstm_pair_forward")):
        batch = pad_batch(group)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, unused, never)
            for training in (False, True):
                model_forward(model, emb, batch, np.random.default_rng(64), training=training)


def test_training_forward_requires_rng():
    cfg = small_config()
    cfg.dropout_embed = 0.5
    model = Model.build(cfg, np.random.default_rng(0))
    emb = np.zeros((4, cfg.m))
    batch = pad_batch([([1], 0)])
    with pytest.raises(ConfigError):
        model_forward(model, emb, batch, rng=None, training=True)


def test_model_forward_rejects_an_embedding_matrix_of_the_wrong_width():
    cfg = small_config()
    model = Model.build(cfg, np.random.default_rng(0))
    batch = _repeated_token_batch(1)
    with pytest.raises(ConfigError, match="embedding width"):
        model_forward(model, np.zeros((6, cfg.m + 1)), batch)


# ---------------------------------------------------------------------------
# dtype: the parameter storage owns it


def cast_model(model, dtype):
    """A copy of model whose storage has the given dtype."""
    return Model(model.config, {name: arr.astype(dtype) for name, arr in model.named_params()})


def _three_sentences(B):
    return pad_batch([([2, 5, 3, 9, 4], 0), ([7, 8], 1), ([10, 11, 2, 3, 4, 6, 5], 2)][:B])


@pytest.mark.parametrize("given, stored", [
    ([np.float64], np.float64),
    ([np.float32], np.float32),
    ([np.float32, np.float64], np.float64),
    ([np.int64], np.float64),
    ([np.complex64], np.complex64),
    ([np.float64, np.complex128], np.complex128),
], ids=["float64", "float32", "mixed", "int", "complex64", "complex128"])
def test_the_storage_takes_the_result_type_of_the_given_arrays(given, stored):
    cfg = small_config(dl=2)
    table = param_shapes(cfg)
    model = Model(cfg, {name: np.ones(shape, given[k % len(given)])
                        for k, (name, shape) in enumerate(table)})
    assert {arr.dtype for arr in (model.lstm_W, model.lstm_b, *model.params.values())} == {
        np.dtype(stored)}


@pytest.mark.filterwarnings("error")  # a ComplexWarning would mean a dropped imaginary part
def test_complex_parameters_keep_their_imaginary_parts():
    cfg = small_config(dl=2)
    rng = np.random.default_rng(72)
    params = {name: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for name, shape in param_shapes(cfg)}
    model = Model(cfg, params)
    for name, arr in model.named_params():
        assert arr.tobytes() == params[name].tobytes(), name


def _arrays_of(trace):
    """(name, array) of every array a trace holds."""
    for f in fields(trace):
        value = getattr(trace, f.name)
        if f.name == "cells":
            yield from ((f"cells{k}.{tag}", c) for k, pair in enumerate(value)
                        for tag, c in zip("fb", pair))
        elif isinstance(value, np.ndarray):
            yield f.name, value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arch", ["dense", "stacked"])
@pytest.mark.parametrize("B", [1, 3], ids=["paired-kernel", "per-direction"])
def test_a_float32_model_runs_float32_end_to_end(arch, B):
    """Nothing is upcast: with a float32 model and embedding matrix, every
    array of the trace, the probabilities and every gradient are float32.
    Both dropouts are 0, since the dropout draw is float64."""
    cfg = small_config(arch=arch, dl=3)
    rng = np.random.default_rng(70)
    model64 = Model.build(cfg, rng)
    emb64 = rng.standard_normal((12, cfg.m))
    model, emb = cast_model(model64, np.float32), emb64.astype(np.float32)
    batch = _three_sentences(B)
    probs, trace = model_forward(model, emb, batch, np.random.default_rng(71), training=True)
    arrays = {"probs": probs, **dict(_arrays_of(trace))}
    assert trace.mask_embed is None and trace.mask_pool is None
    _, dlogits = cross_entropy(probs, batch.labels)
    grads, dEmb = model_backward(model, trace, dlogits)
    arrays.update(grads, dlogits=dlogits, dEmb=dEmb,
                  embedding_gradient=embedding_gradient(trace, dEmb, len(emb)))
    assert {"states", "gates", "cells0.f", "pooled_dropped", "softmax.W"} <= set(arrays)
    for name, arr in arrays.items():
        assert arr.dtype == np.float32, name
    assert np.abs(probs - model_forward(model64, emb64, batch)[0]).max() < 1e-5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arch", ["dense", "stacked"])
@pytest.mark.parametrize("dl", [0, 3])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "dropout"])
@pytest.mark.parametrize("B", [1, 3], ids=["paired-kernel", "per-direction"])
def test_a_complex_forward_has_the_float64_forward_as_its_real_part(arch, dl, training, B):
    """Parameters and embeddings nudged by about 1e-30j run the same
    forward: the probabilities' real part is the float64 one to 1e-14,
    with the same seeded dropout, and the nudge reaches their imaginary
    part."""
    cfg = small_config(arch=arch, dl=dl)
    cfg.dropout_embed, cfg.dropout_pool = 0.3, 0.2
    rng = np.random.default_rng(73 + dl)
    model = Model.build(cfg, rng)
    emb = rng.standard_normal((12, cfg.m))
    nudged = Model(cfg, {name: arr + 1e-30j * rng.standard_normal(arr.shape)
                         for name, arr in model.named_params()})
    nudged_emb = emb + 1e-30j * rng.standard_normal(emb.shape)
    batch = _three_sentences(B)
    want, _ = model_forward(model, emb, batch, np.random.default_rng(74), training=training)
    got, _ = model_forward(nudged, nudged_emb, batch, np.random.default_rng(74),
                           training=training)
    assert got.dtype == np.complex128
    assert np.abs(got.real - want).max() <= 1e-14
    assert np.abs(got.imag).min() > 0.0


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("settings", [
    {},
    {"max_norm_s": None},
    {"train_embeddings": False},
    {"forget_bias": 2},
], ids=["all-set", "no-max-norm", "frozen-embeddings", "int-forget-bias"])
def test_checkpoint_round_trip_bitwise(tmp_path, settings):
    rng = np.random.default_rng(8)
    cfg = ModelConfig(m=6, dl=2, dh=3, th=4, num_classes=3, arch="dense",
                      dropout_embed=0.4, dropout_pool=0.3, max_norm_s=2.5,
                      forget_bias=1.0, train_embeddings=True)
    for name, value in settings.items():
        setattr(cfg, name, value)
    model = Model.build(cfg, rng)
    path = tmp_path / "model.ckpt"
    save_with_vocab(path, model, 99)
    loaded, meta = load_checkpoint(path)
    assert meta["seed"] == 99 and meta["vocab"] == {"a": 2, "b": 3, "c": 4}
    assert loaded.config == cfg
    for (na, a), (nb, b) in zip(model.named_params(), loaded.named_params()):
        assert na == nb
        assert np.array_equal(a, b), na
    # a second save of the loaded model reproduces the file byte for byte,
    # except that an int given for a float setting comes back as a float
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, loaded, 99, vocab=meta["vocab"], emb_matrix=meta["emb_matrix"])
    assert path2.read_bytes() == path.read_bytes().replace(b"forget_bias 2\n", b"forget_bias 2.0\n")


def test_checkpoint_from_before_the_parameter_table_round_trips(tmp_path):
    # written by the code that still built models from per-layer parameter
    # objects (commit 15c4a20): dense, dl=2, forget bias, a vocab with a
    # non-ascii token and an embedding matrix
    path = Path(__file__).parent / "data" / "dense_dl2_vocab.ckpt"
    model, meta = load_checkpoint(path)
    assert model.config == ModelConfig(m=4, dl=2, dh=2, th=3, num_classes=2, arch="dense",
                                       dropout_embed=0.5, dropout_pool=0.25, max_norm_s=3.0,
                                       forget_bias=1.0, train_embeddings=True)
    assert meta["seed"] == 17
    assert meta["vocab"] == {"café": 2, "film": 3, "great": 4, "the": 5}
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, model, meta["seed"], vocab=meta["vocab"], emb_matrix=meta["emb_matrix"])
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_vocab_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    cfg = small_config(dl=1)
    model = Model.build(cfg, rng)
    vocab = {"film": 2, "great": 3, "the": 4}
    emb = rng.standard_normal((5, cfg.m))
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, model, seed=1, vocab=vocab, emb_matrix=emb)
    _, meta = load_checkpoint(path)
    assert meta["vocab"] == vocab
    assert np.array_equal(meta["emb_matrix"], emb)
    # a vocab is saved only with the embedding matrix its rows index
    bare = tmp_path / "bare.ckpt"
    with pytest.raises(TypeError, match="emb_matrix"):
        save_checkpoint(bare, model, seed=1, vocab=vocab)
    assert not bare.exists()


@pytest.mark.parametrize("vocab_section", [False, True], ids=["no-vocab", "no-embeddings"])
def test_checkpoint_without_vocab_or_embeddings_is_rejected(tmp_path, vocab_section):
    # a model scores text only through its vocab and the vectors it indexes
    model = Model.build(small_config(dl=1), np.random.default_rng(10))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint_without_embeddings(tmp_path / "good.ckpt", model, vocab_section))
    message = "missing tensor embeddings" if vocab_section else "no vocab section"
    with pytest.raises(CheckpointError, match=f"^{bad}: {message}$"):
        load_checkpoint(bad)


_SHORT = "embeddings are 3x6, not the 6x6 of 4 tokens and m = 6"
_NARROW = "embeddings are 5x3, not the 5x6 of 3 tokens and m = 6"
# per case: the vocab given to save_checkpoint, the tokens of a file's vocab
# section, the embeddings' shape (m = 6), and the save and load errors
_MISFITS = {
    "short": ({"a": 2, "b": 3, "c": 4, "d": 5}, ["a", "b", "c", "d"], (3, 6), _SHORT, _SHORT),
    "narrow": ({"a": 2, "b": 3, "c": 4}, ["a", "b", "c"], (5, 3), _NARROW, _NARROW),
    # a file lists tokens only, so a gapped vocab comes back numbered 2..4
    "gapped": ({"a": 2, "b": 4, "c": 5}, ["a", "b", "c"], (6, 6),
               "vocab ids are not 2..4, one per token",
               "embeddings are 6x6, not the 5x6 of 3 tokens and m = 6"),
    "repeated": ({"a": 2, "b": 2, "c": 4}, ["a", "a", "b"], (5, 6),
                 "vocab ids are not 2..4, one per token",
                 "vocab ids are not 2..3, one per token"),
}


@pytest.mark.parametrize("case", list(_MISFITS))
def test_checkpoint_embeddings_must_fit_the_vocab(tmp_path, case):
    # row i of the embeddings is token id i; ids run 2..n+1 in the written order
    vocab, tokens, shape, save_error, load_error = _MISFITS[case]
    model = Model.build(small_config(dl=1), np.random.default_rng(13))
    emb = np.random.default_rng(14).standard_normal(shape)
    path = tmp_path / "new.ckpt"
    with pytest.raises(CheckpointError, match=f"^{path}: {save_error}$"):
        save_checkpoint(path, model, 0, vocab=vocab, emb_matrix=emb)
    assert not path.exists()
    # such a file, written without the check, does not load either
    old = tmp_path / "old.ckpt"
    old.write_bytes(checkpoint_with_vocab(tmp_path / "good.ckpt", model, tokens, emb))
    with pytest.raises(CheckpointError, match=f"^{old}: {load_error}$"):
        load_checkpoint(old)


def test_checkpoint_truncation_detected(tmp_path):
    model = Model.build(small_config(dl=1), np.random.default_rng(0))
    path = tmp_path / "t.ckpt"
    save_with_vocab(path, model, 0)
    blob = path.read_bytes()
    for cut in (10, len(blob) // 2, len(blob) - 3):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(clipped)
    padded = tmp_path / "pad.ckpt"
    padded.write_bytes(blob + b"x")
    with pytest.raises(CheckpointError):
        load_checkpoint(padded)


def test_checkpoint_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"GGUF nope\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    # unknown manifest key
    weird = tmp_path / "weird.ckpt"
    weird.write_bytes(b"DCBILSTM v1\nbogus 7\ntensors 0\n")
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(weird)
    assert "bogus" in str(info.value) or "missing" in str(info.value)


def _corrupt(blob, old, new):
    assert old in blob
    return blob.replace(old, new, 1)


def _nan_entry(blob):
    """The first value of the softmax bias replaced by NaN."""
    at = blob.index(b"softmax.b 1 3\n") + len(b"softmax.b 1 3\n")
    return blob[:at] + np.array([np.nan], "<f8").tobytes() + blob[at + 8:]


@pytest.mark.parametrize("mangle", [
    lambda blob: _corrupt(blob, b"vocab 3\n", b"vocab three\n"),
    lambda blob: _corrupt(blob, b"vocab 3\n", b"vocab -1\n"),
    lambda blob: _corrupt(blob, b"\ntensors ", b"\ntensors x"),
    lambda blob: _corrupt(blob, b"softmax.b 1 3\n", b"softmax.b 1 3.0\n"),
    lambda blob: _corrupt(blob, b"softmax.b 1 3\n", b"softmax.b -1 -3\n"),
    lambda blob: _corrupt(blob, b"\nm 6\n", b"\nm six\n"),
    _nan_entry,
    lambda blob: blob[:blob.index(b"\n")],
    lambda blob: _corrupt(blob, b"\ndh 3\n", b"\ndh 2\n"),
    lambda blob: _corrupt(blob, b"\ndropout_pool 0.0\n", b"\ndropout_pool 1.5\n"),
    lambda blob: _corrupt(blob, b"\narch dense\n", b"\narch wide\n"),
    lambda blob: _corrupt(blob, b"\nmax_norm_s none\n", b"\nmax_norm_s nan\n"),
    lambda blob: _corrupt(blob, b"\ntrain_embeddings 0\n", b"\ntrain_embeddings 7\n"),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed 3\nbogus 7\n"),
    lambda blob: _corrupt(blob, b"\ngate_order ifog\n", b"\ngate_order iofg\n"),
    lambda blob: _corrupt(blob, b"softmax.b 1 3\n", b"softmax.b 1\n"),
    lambda blob: _corrupt(blob, b"embeddings 5 6\n", b"embedding 5 6\n"),
    lambda blob: _corrupt(blob, b"\ntensors 11\n", b"\ntensors 12\n") + b"extra 1 1\n" + bytes(8),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed \xff\n"),
    lambda blob: _corrupt(blob, b"softmax.b 1 3\n", b"softmax.b 99999999999 99999999999\n"),
    lambda blob: _corrupt(blob, b"softmax.b 1 3\n", b"softmax.b 3000000000 1000\n"),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed -5\n"),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed +5\n"),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed 1_0\n"),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed  7\n"),
    lambda blob: _corrupt(blob, b"\nseed 3\n", "\nseed \u0663\n".encode()),
    lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed 5 \n"),
], ids=["vocab-word", "vocab-negative", "tensor-count", "header-float", "header-negative",
        "manifest-int", "nan-tensor", "no-newline", "dh-vs-tensors", "dropout-range",
        "arch-unknown", "max-norm-nan", "bool-seven", "unknown-key", "gate-order",
        "header-two-fields", "no-embeddings", "extra-tensor", "manifest-not-utf8",
        "header-past-index-size", "header-past-memory", "seed-negative", "seed-plus",
        "seed-underscore", "seed-two-spaces", "seed-arabic-digit", "seed-trailing-space"])
def test_checkpoint_rejects_corrupt_files(tmp_path, mangle):
    rng = np.random.default_rng(12)
    model = Model.build(small_config(dl=1), rng)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, model, seed=3, vocab={"a": 2, "b": 3, "c": 4},
                    emb_matrix=rng.standard_normal((5, 6)))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mangle(good.read_bytes()))
    with pytest.raises(CheckpointError, match="bad.ckpt"):
        load_checkpoint(bad)


def test_a_negative_seed_is_not_saved(tmp_path):
    # load_checkpoint reads the seed as a non-negative integer
    model = Model.build(small_config(dl=1), np.random.default_rng(12))
    path = tmp_path / "neg.ckpt"
    with pytest.raises(CheckpointError, match=f"^{path}: seed '-3' is not a non-negative"):
        save_checkpoint(path, model, seed=-3, vocab={}, emb_matrix=np.zeros((2, 6)))
    assert not path.exists()


@pytest.mark.parametrize("complex_tensor", ["dense0.fwd.W", "embeddings"])
def test_a_complex_tensor_is_not_saved(tmp_path, complex_tensor):
    """Written as "<f8" it would lose its imaginary part, so it is refused
    before the file is opened; a complex model is refused at its first tensor."""
    rng = np.random.default_rng(15)
    model = Model.build(small_config(dl=1), rng)
    emb = rng.standard_normal((5, 6))
    if complex_tensor == "embeddings":
        emb = emb + 1e-30j
    else:
        model = cast_model(model, np.complex128)
    path = tmp_path / "complex.ckpt"
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: tensor {complex_tensor} is complex"):
        save_checkpoint(path, model, seed=3, vocab={"a": 2, "b": 3, "c": 4}, emb_matrix=emb)
    assert not path.exists()


def test_a_float32_model_is_saved_as_exact_float64(tmp_path):
    """Every float32 value is a float64 one, so the file is the float64
    copy's byte for byte and loads back equal."""
    rng = np.random.default_rng(16)
    model64 = Model.build(small_config(dl=1), rng)
    emb = rng.standard_normal((5, 6)).astype(np.float32)
    model, vocab = cast_model(model64, np.float32), {"a": 2, "b": 3, "c": 4}
    path, path64 = tmp_path / "f32.ckpt", tmp_path / "f64.ckpt"
    save_checkpoint(path, model, seed=3, vocab=vocab, emb_matrix=emb)
    save_checkpoint(path64, cast_model(model, np.float64), seed=3, vocab=vocab,
                    emb_matrix=emb.astype(np.float64))
    assert path.read_bytes() == path64.read_bytes()
    loaded, meta = load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_params(), loaded.named_params()):
        assert b.dtype == np.float64 and np.array_equal(a, b), name
    assert np.array_equal(meta["emb_matrix"], emb)


def _second_softmax_bias(blob):
    """The softmax bias block written twice, the second copy all zeros."""
    return (_corrupt(blob, b"\ntensors 11\n", b"\ntensors 12\n")
            + b"softmax.b 1 3\n" + bytes(24))


@pytest.mark.parametrize("mangle, key", [
    (lambda blob: _corrupt(blob, b"\nseed 3\n", b"\nseed 3\nseed 4\n"), "'seed'"),
    (lambda blob: _corrupt(blob, b"\ntensors 11\n", b"\nvocab 1\nz\ntensors 11\n"), "'vocab'"),
    (_second_softmax_bias, "softmax.b"),
], ids=["manifest-key", "vocab-section", "tensor"])
def test_checkpoint_rejects_a_repeated_key(tmp_path, mangle, key):
    """A key, vocab section or tensor given twice is an error naming the
    file and the key, never a silent choice of one copy."""
    rng = np.random.default_rng(12)
    model = Model.build(small_config(dl=1), rng)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, model, seed=3, vocab={"a": 2, "b": 3, "c": 4},
                    emb_matrix=rng.standard_normal((5, 6)))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mangle(good.read_bytes()))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(bad)
    assert str(bad) in str(info.value) and f"{key} appears twice" in str(info.value)
