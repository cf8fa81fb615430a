"""Optimizer pieces, the epoch loop, evaluation, and run-log behavior."""

import json
import math
import types
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from dcbilstm import data
from dcbilstm import train as train_module
from dcbilstm.cli import main
from dcbilstm.data import PAD_IDX, Batch, load_dataset, make_batches, tokenize, vectorize
from dcbilstm.errors import ConfigError, TrainingDiverged
from dcbilstm.model import (
    Model,
    ModelConfig,
    embedding_gradient,
    load_checkpoint,
    model_backward,
    model_forward,
    softmax_rows,
)
from dcbilstm.train import (
    AdamState,
    TrainConfig,
    _build_tables,
    _folds,
    _infer_classes,
    adam_update,
    cross_entropy,
    evaluate,
    max_norm_constrain,
    model_config,
    train,
    train_step,
)
from tests.test_model import small_config

LN2 = 0.69314718055994530942
LN3 = 1.09861228866810969140


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_uniform_gives_log_c():
    loss2, _ = cross_entropy(np.full((1, 2), 0.5), np.array([1]))
    assert abs(loss2 - LN2) < 1e-15
    loss3, _ = cross_entropy(np.full((1, 3), 1 / 3), np.array([0]))
    assert abs(loss3 - LN3) < 1e-15


def test_cross_entropy_confident_prediction():
    probs = np.array([[0.0, 1.0, 0.0]])
    loss, dlogits = cross_entropy(probs, np.array([1]))
    assert loss == 0.0
    assert np.array_equal(dlogits, np.zeros((1, 3)))


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((1, 4))
    label = np.array([2])
    probs = softmax_rows(logits)
    _, dlogits = cross_entropy(probs, label)

    eps = 1e-6
    for k in range(4):
        for sign, store in ((1, "up"), (-1, "down")):
            shifted = logits.copy()
            shifted[0, k] += sign * eps
            p = softmax_rows(shifted)[0, label[0]]
            if sign == 1:
                up = -math.log(p)
            else:
                down = -math.log(p)
        fd = (up - down) / (2 * eps)
        assert abs(dlogits[0, k] - fd) <= 1e-8 * max(1.0, abs(fd))


def test_cross_entropy_batch_mean():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    labels = np.array([0, 1])
    loss, dlogits = cross_entropy(probs, labels)
    assert abs(loss - 0.5 * (LN2 - math.log(0.75))) < 1e-15
    # the 1/B factor sits in the gradient too
    assert np.abs(dlogits - np.array([[-0.25, 0.25], [0.125, -0.125]])).max() < 1e-15


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_a_no_op():
    p = np.array([[1.0, -2.0]])
    state = AdamState.like(p)
    adam_update(p, np.zeros_like(p), state, lr=0.1)
    assert np.array_equal(p, np.array([[1.0, -2.0]]))
    assert state.t == 1


def test_adam_against_scalar_reference():
    """Five steps on one weight, checked against a plain-float transcription
    of the bias-corrected update rule."""
    lr, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    grads = [0.3, -1.2, 0.7, 0.05, 2.0]

    w_ref, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

    p = np.array([[0.5]])
    state = AdamState.like(p)
    for g in grads:
        adam_update(p, np.array([[g]]), state, lr, b1, b2, eps)
    assert abs(p[0, 0] - w_ref) < 1e-15


def test_adam_first_step_size_is_lr():
    # with bias correction, step 1 moves by exactly lr against the gradient
    # sign (up to the eps cushion) regardless of gradient magnitude
    for g in (1e-4, 1.0, 250.0):
        p = np.array([[0.0]])
        adam_update(p, np.array([[g]]), AdamState.like(p), lr=0.005)
        assert abs(p[0, 0] + 0.005) < 1e-6, g


def test_adam_determinism():
    rng = np.random.default_rng(4)
    grads = [rng.standard_normal((3, 2)) for _ in range(4)]

    def run():
        p = np.ones((3, 2))
        st = AdamState.like(p)
        for g in grads:
            adam_update(p, g, st, 0.01)
        return p

    assert np.array_equal(run(), run())


def test_adam_in_place_matches_the_textbook_formula_bitwise():
    """Three steps on a model weight, a column view of ``lstm_W``: the
    in-place update writes the same bits into the weight, m and v as the
    expressions it is documented by, and leaves the gradient as it was."""
    model = Model.build(small_config(), np.random.default_rng(5))
    name = "dense1.bwd.W"
    param = model.params[name]
    assert np.shares_memory(param, model.lstm_W) and not param.flags.c_contiguous
    lr, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    ref, m, v = param.copy(), np.zeros_like(param), np.zeros_like(param)
    state = AdamState.like(param)
    m_id, v_id = id(state.m), id(state.v)
    rng = np.random.default_rng(6)
    for t in range(1, 4):
        grad = rng.standard_normal(param.shape)
        before = grad.copy()
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        adam_update(param, grad, state, lr, b1, b2, eps)
        assert np.array_equal(grad, before)
        for got, want in ((param, ref), (state.m, m), (state.v, v)):
            assert got.tobytes() == want.tobytes(), t
    assert (id(state.m), id(state.v)) == (m_id, v_id)
    assert model.params[name] is param and np.shares_memory(param, model.lstm_W)


# ---------------------------------------------------------------------------
# max-norm


def test_max_norm_leaves_small_columns_untouched():
    W = np.array([[1.0, 0.5], [2.0, 0.5]])
    before = W.copy()
    max_norm_constrain(W, 3.0)
    assert np.array_equal(W, before)
    assert max_norm_constrain(W, None) is W


def test_max_norm_rescales_large_columns():
    W = np.zeros((2, 2))
    W[:, 0] = [6.0, 0.0]  # norm 6 = 2s
    W[:, 1] = [0.0, 1.0]
    max_norm_constrain(W, 3.0)
    assert abs(np.linalg.norm(W[:, 0]) - 3.0) < 1e-12
    assert np.array_equal(W[:, 1], [0.0, 1.0])


def test_max_norm_idempotent_bitwise():
    rng = np.random.default_rng(2)
    W = 4.0 * rng.standard_normal((10, 6))
    once = max_norm_constrain(W.copy(), 3.0)
    twice = max_norm_constrain(once.copy(), 3.0)
    assert np.array_equal(once, twice)
    # and never increases a norm
    assert (np.linalg.norm(once, axis=0) <= np.linalg.norm(W, axis=0) + 1e-12).all()


# ---------------------------------------------------------------------------
# evaluate


def _indexed_toy(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return [([int(rng.integers(2, 8)) for _ in range(int(rng.integers(1, 6)))], k % 2)
            for k in range(n)]


def test_evaluate_uniform_model_ties_to_class_zero():
    cfg = small_config(arch="dense", dl=0, num_classes=2)
    model = Model.build(cfg, np.random.default_rng(1))
    model.softmax_W[...] = 0.0
    model.softmax_b[...] = 0.0
    # uniform probabilities predict class 0 everywhere, so accuracy on a
    # balanced set is exactly the share of zero labels
    emb = np.random.default_rng(2).standard_normal((8, cfg.m))
    acc = evaluate(model, emb, _indexed_toy(20), batch_size=7)
    assert acc == 0.5


def test_evaluate_matches_confusion_matrix_recount():
    cfg = small_config(arch="dense", dl=1, num_classes=3)
    model = Model.build(cfg, np.random.default_rng(3))
    emb = np.random.default_rng(4).standard_normal((8, cfg.m))
    indexed = [(idxs, label % 3) for idxs, label in _indexed_toy(30, seed=5)]
    acc = evaluate(model, emb, indexed, batch_size=4)

    confusion = np.zeros((3, 3), dtype=int)
    for batch in make_batches(indexed, 1):
        probs, _ = model_forward(model, emb, batch, training=False)
        confusion[batch.labels[0], int(probs.argmax())] += 1
    assert confusion.sum() == 30
    assert acc == np.trace(confusion) / 30


def test_evaluate_does_not_depend_on_the_order_of_its_examples():
    cfg = small_config(arch="dense", dl=2, num_classes=3)
    model = Model.build(cfg, np.random.default_rng(6))
    emb = np.random.default_rng(7).standard_normal((8, cfg.m))
    indexed = [(idxs, label % 3) for idxs, label in _indexed_toy(40, seed=8)]
    shuffled = [indexed[i] for i in np.random.default_rng(9).permutation(len(indexed))]
    acc = evaluate(model, emb, indexed, batch_size=6)
    assert 0.0 < acc < 1.0
    assert evaluate(model, emb, shuffled, batch_size=6) == acc
    assert evaluate(model, emb, indexed, batch_size=6) == acc


def test_train_infers_a_class_count_that_covers_every_split(toy_tsv, tmp_path):
    # the training file's labels are 0 and 1; the test split's 3 adds classes 2 and 3
    test_tsv = tmp_path / "test.tsv"
    test_tsv.write_text("1\tthe movie\n3\ta great film\n", encoding="utf-8")
    assert train(_quick_cfg(toy_tsv, tmp_path, epochs=1, test_path=str(test_tsv))).test_acc >= 0
    config = json.loads((tmp_path / "run" / "run.log").read_text(encoding="utf-8").splitlines()[0])
    assert config["resolved_num_classes"] == 4


def test_evaluate_empty_is_an_error():
    model = Model.build(small_config(), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        evaluate(model, np.zeros((4, 6)), [], batch_size=2)


# ---------------------------------------------------------------------------
# train() end to end


def _quick_cfg(toy_tsv, tmp_path, **kw):
    base = dict(
        arch="dense", dl=1, dh=4, th=8, data_format="tsv", train_path=toy_tsv,
        embedding_dim=12, batch_size=8, epochs=3, seed=0,
        out_dir=str(tmp_path / "run"),
    )
    base.update(kw)
    return TrainConfig(**base)


def _epochs(report):
    """The run's epoch records, read from its run.log."""
    with open(report.log_path, encoding="utf-8") as fh:
        return [r for r in map(json.loads, fh) if r["event"] == "epoch"]


def test_train_writes_log_and_checkpoint(toy_tsv, tmp_path):
    report = train(_quick_cfg(toy_tsv, tmp_path))
    lines = [json.loads(l) for l in open(report.log_path, encoding="utf-8")]
    assert lines[0]["event"] == "config"
    assert lines[0]["seed"] == 0 and lines[0]["epochs"] == 3
    assert not {"beta1", "beta2", "eps"} & lines[0].keys()  # constants, not settings
    epochs = [l for l in lines if l["event"] == "epoch"]
    assert len(epochs) == report.epochs_run
    assert "wall_ms" not in epochs[0]  # timing must not break byte determinism
    assert set(epochs[0]["grad_norm_per_layer"]) == {"dense0", "top", "softmax"}
    assert lines[-1]["event"] == "result"

    model, meta = load_checkpoint(report.checkpoint_path)
    assert meta["seed"] == 0 and meta["vocab"] is not None
    assert model.config.dl == 1


def test_train_same_seed_reproduces_bytes(toy_tsv, tmp_path):
    cfg = _quick_cfg(toy_tsv, tmp_path, epochs=2)
    r1 = train(cfg)
    log1 = open(r1.log_path, "rb").read()
    ckpt1 = open(r1.checkpoint_path, "rb").read()
    r2 = train(_quick_cfg(toy_tsv, tmp_path, epochs=2))
    assert open(r2.log_path, "rb").read() == log1
    assert open(r2.checkpoint_path, "rb").read() == ckpt1


def test_train_writes_the_same_bytes_from_a_parsed_and_a_cached_embeddings_file(
        toy_tsv, tmp_path, monkeypatch):
    # the first run parses the file and caches its rows; the second reads
    # the cache and must not parse
    words = sorted({tok for line in Path(toy_tsv).read_text(encoding="utf-8").splitlines()
                    for tok in tokenize(line.split("\t")[1])})
    rng = np.random.default_rng(8)
    emb = tmp_path / "vectors.txt"
    emb.write_text("".join(f"{w} " + " ".join(map(repr, rng.standard_normal(6).tolist())) + "\n"
                           for w in ["unused", *words, words[0].upper()]), encoding="utf-8")
    runs = []
    for warm in (False, True):
        if warm:
            monkeypatch.setattr(data, "_parse_chunk", None)
            monkeypatch.setattr(data, "_parse_lines", None)
        r = train(_quick_cfg(toy_tsv, tmp_path, embeddings_path=str(emb), epochs=2))
        runs.append((Path(r.log_path).read_bytes(), Path(r.checkpoint_path).read_bytes()))
        assert Path(f"{emb}{data.CACHE_SUFFIX}").is_file()
    assert runs[0] == runs[1]


def test_train_seed_changes_results(toy_tsv, tmp_path):
    # both runs write one run.log, so each is read before the next run
    first = _epochs(train(_quick_cfg(toy_tsv, tmp_path, epochs=2)))
    second = _epochs(train(_quick_cfg(toy_tsv, tmp_path, epochs=2, seed=1)))
    assert first[0]["train_loss"] != second[0]["train_loss"]


def test_train_loss_decreases_on_toy_corpus(toy_tsv, tmp_path):
    cfg = _quick_cfg(toy_tsv, tmp_path, dl=2, dh=8, th=16, epochs=10,
                     dropout_embed=0.0, dropout_pool=0.0, dev_fraction=0.0,
                     batch_size=32)
    report = train(cfg)
    losses = [rec["train_loss"] for rec in _epochs(report)]
    assert losses[-1] < losses[0]


def test_train_early_stopping_on_flat_dev(toy_tsv, tmp_path):
    # an lr of ~0 freezes the model, so dev accuracy never improves and the
    # patience counter runs out on schedule
    cfg = _quick_cfg(toy_tsv, tmp_path, epochs=50, lr=1e-12, patience=3,
                     dev_fraction=0.25)
    report = train(cfg)
    assert report.epochs_run == 1 + 3


def test_train_cv_mode(toy_tsv, tmp_path):
    cfg = _quick_cfg(toy_tsv, tmp_path, epochs=2, cv_folds=4, dev_fraction=0.2)
    report = train(cfg)
    assert len(report.fold_accs) == 4
    assert report.mean_acc == pytest.approx(float(np.mean(report.fold_accs)))
    lines = [json.loads(l) for l in open(report.log_path, encoding="utf-8")]
    assert lines[-1]["event"] == "cv_summary"
    tags = {l["tag"] for l in lines if l["event"] == "epoch"}
    assert tags == {f"fold{i}" for i in range(4)}


def test_train_cv_fold_with_one_remaining_example_trains_on_it(tmp_path, capsys):
    # each fold's remainder is a single example; dev must not take it
    two = tmp_path / "two.tsv"
    two.write_text("0\tawful film\n1\tgreat film\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    assert main(["train", "--train-path", str(two), "--cv-folds", "2", "--dl", "1",
                 "--dh", "2", "--th", "3", "--embedding-dim", "4", "--epochs", "1",
                 "--out-dir", str(out_dir)]) == 0
    assert "mean accuracy" in capsys.readouterr().out
    assert (out_dir / "fold0.ckpt").is_file() and (out_dir / "fold1.ckpt").is_file()
    results = [json.loads(l) for l in open(out_dir / "run.log", encoding="utf-8")
               if '"result"' in l]
    assert [r["best_dev_acc"] for r in results] == [None, None]


# 6 epochs, patience 2 and lr 0.05: with a dev split the best dev epoch is
# not the last one, so the checkpoint must hold an earlier epoch's tensors
@pytest.mark.parametrize("dev_fraction, train_embeddings", [
    (0.25, False), (0.0, False), (0.25, True),
], ids=["0.25", "0.0", "0.25-train-embeddings"])
def test_train_result_is_the_best_dev_epochs_record(toy_tsv, tmp_path, dev_fraction,
                                                    train_embeddings):
    def run(epochs, out):
        return train(_quick_cfg(toy_tsv, tmp_path / out, epochs=epochs, patience=2, lr=0.05,
                                dev_fraction=dev_fraction, test_path=toy_tsv,
                                train_embeddings=train_embeddings))

    report = run(6, "full")
    lines = [json.loads(l) for l in open(report.log_path, encoding="utf-8")]
    epochs = [l for l in lines if l["event"] == "epoch"]
    if dev_fraction:
        # the first epoch with the highest dev accuracy
        best = max(epochs, key=lambda rec: (rec["dev_acc"], -rec["epoch"]))
        assert best is not epochs[-1]  # patience ran out after the best epoch
    else:
        best = epochs[-1]
    assert lines[-1] == {"event": "result", "tag": "train", "seed": 0,
                         "best_dev_acc": best["dev_acc"], "test_acc": best["test_acc"],
                         "final_train_acc": best["train_acc"], "epochs_run": len(epochs)}
    # the checkpoint holds that epoch's parameters, and its embeddings
    model, meta = load_checkpoint(report.checkpoint_path)
    indexed = vectorize(load_dataset(toy_tsv, "tsv"), meta["vocab"], drop_unknown=True)
    assert evaluate(model, meta["emb_matrix"], indexed) == best["test_acc"]
    # byte for byte: a run stopped at the best epoch ends where the full run restored to
    cut = run(best["epoch"], "cut")
    assert open(cut.checkpoint_path, "rb").read() == open(report.checkpoint_path, "rb").read()


# ---------------------------------------------------------------------------
# train_step: the step train() runs


@pytest.mark.parametrize("train_embeddings", [False, True], ids=["dense", "train-embeddings"])
def test_train_step_over_the_first_epoch_reproduces_the_checkpoint(toy_tsv, tmp_path,
                                                                   train_embeddings):
    # one epoch with no dev split: the checkpoint holds the tensors after its last step
    cfg = _quick_cfg(toy_tsv, tmp_path, epochs=1, dev_fraction=0.0,
                     train_embeddings=train_embeddings)
    report = train(cfg)
    # train()'s seeds and tables, rebuilt as it builds them
    root = np.random.SeedSequence(cfg.seed)
    split_ss, emb_ss = root.spawn(2)
    splits, folds = _folds(cfg, np.random.default_rng(split_ss))
    vocab, emb_matrix, m = _build_tables(cfg, splits, np.random.default_rng(emb_ss))
    init_ss, batch_ss, drop_ss = root.spawn(1)[0].spawn(3)
    model = Model.build(model_config(cfg, m, _infer_classes(splits)),
                        np.random.default_rng(init_ss))
    params = dict(model.named_params())
    if train_embeddings:
        params["embeddings"] = emb_matrix.copy()
    emb = params.get("embeddings", emb_matrix)
    states = {name: AdamState.like(arr) for name, arr in params.items()}
    drop_rng = np.random.default_rng(drop_ss)
    indexed = vectorize(folds[0][0], vocab, drop_unknown=True)
    for batch in make_batches(indexed, cfg.batch_size, np.random.default_rng(batch_ss),
                              shuffle=True):
        loss, grads = train_step(model, emb, batch, drop_rng, params, states, cfg.lr)
        assert np.isfinite(loss) and grads.keys() == params.keys()
    saved, meta = load_checkpoint(report.checkpoint_path)
    for name, arr in model.named_params():
        assert saved.params[name].tobytes() == arr.tobytes(), name
    assert meta["emb_matrix"].tobytes() == emb.tobytes()
    assert (emb is emb_matrix) != train_embeddings


def _step_inputs(train_embeddings, seed=3):
    cfg = ModelConfig(m=6, dl=2, dh=3, th=4, num_classes=2, max_norm_s=3.0,
                      train_embeddings=train_embeddings)  # both dropouts on by default
    model = Model.build(cfg, np.random.default_rng(seed))
    emb = np.random.default_rng(seed + 1).standard_normal((7, cfg.m))
    emb[PAD_IDX] = 0.0
    params = dict(model.named_params())
    if train_embeddings:
        params["embeddings"] = emb
    states = {name: AdamState.like(arr) for name, arr in params.items()}
    batch = make_batches([([2, 3, 4], 0), ([5, 6], 1), ([3], 1)], 3)[0]
    return model, emb, batch, params, states


@pytest.mark.parametrize("train_embeddings", [False, True])
def test_train_step_forms_the_embedding_gradient_only_when_the_embeddings_train(
        monkeypatch, train_embeddings):
    seen, backward = [], train_module.model_backward

    def spy(*args, **kwargs):
        seen.append(kwargs.get("embedding_grad", True))
        return backward(*args, **kwargs)

    monkeypatch.setattr(train_module, "model_backward", spy)
    model, emb, batch, params, states = _step_inputs(train_embeddings)
    _, grads = train_step(model, emb, batch, np.random.default_rng(0), params, states, 0.01)
    assert seen == [train_embeddings]
    assert ("embeddings" in grads) == train_embeddings


@pytest.mark.parametrize("train_embeddings", [False, True])
def test_train_step_on_a_non_finite_loss_changes_no_tensor_or_state(train_embeddings):
    model, emb, batch, params, states = _step_inputs(train_embeddings)
    rng = np.random.default_rng(0)
    train_step(model, emb, batch, rng, params, states, 0.01)  # Adam states past zero
    emb[3] = np.nan  # a token of the batch
    before = {name: (arr.tobytes(), states[name].m.tobytes(), states[name].v.tobytes(),
                     states[name].t) for name, arr in params.items()}
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
        train_step(model, emb, batch, rng, params, states, 0.01)
    assert {name: (arr.tobytes(), states[name].m.tobytes(), states[name].v.tobytes(),
                   states[name].t) for name, arr in params.items()} == before


def test_train_diverges_on_corrupt_embeddings(toy_tsv, tmp_path):
    # the loader rejects nan and inf, but not a finite vector at the edge of
    # float64, which overflows once embedding dropout scales it by 2
    emb = tmp_path / "broken_vectors.txt"
    words = ["the", "movie", "a", "film", "it", "was", "and", "very",
             "great", "superb", "fun", "lovely", "brilliant", "warm",
             "awful", "dull", "tedious", "grim", "flat", "cold"]
    emb.write_text(
        "\n".join(f"{w} 1e308 -1e308 1e308" if w == "movie" else f"{w} 0.5 0.1 0.2"
                  for w in words) + "\n",
        encoding="utf-8",
    )
    cfg = _quick_cfg(toy_tsv, tmp_path, embeddings_path=str(emb), epochs=2)
    with pytest.raises(TrainingDiverged) as info:
        train(cfg)
    msg = str(info.value)
    assert "batch" in msg and "seed 0" in msg


def _embedding_grad(model, emb, indexed, scale):
    batch = make_batches(indexed, len(indexed))[0]
    probs, trace = model_forward(model, emb, batch)
    _, dlogits = cross_entropy(probs, batch.labels)
    _, dEmb = model_backward(model, trace, dlogits * len(indexed) / scale)
    return embedding_gradient(trace, dEmb, len(emb))


def test_embedding_gradient_is_the_sum_of_sentence_gradients():
    # mixed lengths, tokens repeated within and across sentences
    cfg = small_config(arch="dense", dl=2, num_classes=3)
    model = Model.build(cfg, np.random.default_rng(21))
    emb = np.random.default_rng(22).standard_normal((9, cfg.m))
    emb[PAD_IDX] = 0.0
    indexed = [([2, 3, 2, 5], 0), ([3], 1), ([5, 5, 5, 2, 8, 3], 2), ([8, 2], 1), ([4, 4, 4], 0)]
    full = _embedding_grad(model, emb, indexed, len(indexed))
    summed = sum(_embedding_grad(model, emb, [ex], len(indexed)) for ex in indexed)
    assert np.abs(full - summed).max() < 1e-12
    assert not full[[PAD_IDX, 1, 6, 7]].any() and full[[2, 3, 4, 5, 8]].all()


def test_train_embeddings_moves_rows_but_not_padding(toy_tsv, tmp_path):
    # one full-batch step with and without embedding training
    kw = dict(epochs=1, batch_size=32, dev_fraction=0.0)
    frozen = train(_quick_cfg(toy_tsv, tmp_path / "frozen", **kw))
    tuned = train(_quick_cfg(toy_tsv, tmp_path / "tuned", train_embeddings=True, **kw))
    before = load_checkpoint(frozen.checkpoint_path)[1]["emb_matrix"]
    after = load_checkpoint(tuned.checkpoint_path)[1]["emb_matrix"]
    assert after[PAD_IDX].tobytes() == np.zeros(after.shape[1]).tobytes()
    assert (after[2:] != before[2:]).any(axis=1).all()


def test_train_config_validation(tmp_path):
    # train() requires a train path itself, so a sweep can check its rows' values without one
    TrainConfig(train_path="").validate()
    with pytest.raises(ConfigError, match="train_path is required"):
        train(TrainConfig(train_path="", out_dir=str(tmp_path / "none")))
    assert not (tmp_path / "none").exists()
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(train_path="x", seed=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(train_path="x", cv_folds=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(train_path="x", cv_folds=3, dev_path="y").validate()
    with pytest.raises(ConfigError):
        TrainConfig(train_path="x", epochs=0).validate()
    # phrases held out in a carved dev split or a fold share subtrees with
    # the training phrases
    trees = dict(train_path="x", data_format="sst_trees", phrases=True)
    for held_out in ({}, {"dev_fraction": 0.5}, {"cv_folds": 3, "dev_fraction": 0.0}):
        with pytest.raises(ConfigError,
                           match="^phrases needs a dev file or dev_fraction 0, and no cv_folds$"):
            TrainConfig(**trees, **held_out).validate()
    TrainConfig(**trees, dev_path="y").validate()
    TrainConfig(**trees, dev_fraction=0.0).validate()
    # the data format is load_dataset's to check, before a file is read or written
    out_dir = tmp_path / "run"
    with pytest.raises(ConfigError, match="data format"):
        train(TrainConfig(train_path=str(tmp_path / "x.tsv"), data_format="parquet",
                          out_dir=str(out_dir)))
    assert not (out_dir / "run.log").exists()


def test_default_run_builds_the_default_model():
    """TrainConfig takes its model defaults from ModelConfig, so a run that
    sets no model setting builds the model of ModelConfig's defaults."""
    built = model_config(TrainConfig(train_path="x"), 7, 3)
    assert asdict(built) == asdict(ModelConfig(m=7, dl=1, dh=10, th=100, num_classes=3))


def test_adam_constants_are_not_settings():
    cfg = TrainConfig(train_path="x")
    assert not {"beta1", "beta2", "eps"} & {f.name for f in fields(cfg)}
    # still readable from an instance, as code driving its own Adam step reads them
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)


def test_train_submodule_is_not_shadowed_by_a_root_export():
    import dcbilstm
    import dcbilstm.train

    assert isinstance(dcbilstm.train, types.ModuleType)
    assert dcbilstm.train.cross_entropy is cross_entropy
