"""Training loop: Adam, cross-entropy, max-norm constraint, early stopping.

Runs write two artifacts into the output directory: a JSONL run log
(`run.log`) and the best-dev checkpoint (`model.ckpt`, or `fold<i>.ckpt`
under cross-validation).  The log holds one JSON object per line: a
"config" event echoing the effective configuration, one "epoch" record per
epoch, and a closing "result" (plus "cv_summary" for CV runs); a run whose
loss stops being finite ends with a "diverged" event instead.  Log content
is a pure function of the configuration and seed, so identical runs produce
identical bytes; wall-clock timing goes to stderr only.
"""

import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import data as D
from .errors import ConfigError, TrainingDiverged
from .model import (
    Model,
    ModelConfig,
    embedding_gradient,
    model_backward,
    model_forward,
    save_checkpoint,
)

__all__ = [
    "TrainConfig", "TrainReport", "AdamState", "adam_update", "cross_entropy",
    "max_norm_constrain", "train_step", "train", "model_config", "evaluate", "check_labels",
]


@dataclass
class TrainConfig:
    # architecture; a setting ModelConfig has takes its default from there
    arch: str = ModelConfig.arch
    dl: int = 1
    dh: int = 10
    th: int = 100
    dropout_embed: float = ModelConfig.dropout_embed
    dropout_pool: float = ModelConfig.dropout_pool
    max_norm_s: float | None = ModelConfig.max_norm_s
    forget_bias: float = ModelConfig.forget_bias
    train_embeddings: bool = ModelConfig.train_embeddings
    # optimizer: Adam, with Kingma & Ba's constants, which are not settings
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr: float = 0.005
    batch_size: int = 200
    epochs: int = 100
    patience: int = 10
    # data
    data_format: str = "tsv"  # one of data.DATA_FORMATS
    train_path: str = ""
    dev_path: str | None = None
    test_path: str | None = None
    binary: bool = False  # sst_trees only: 0/1 -> 0, 3/4 -> 1, neutral dropped
    phrases: bool = False  # sst_trees only: train on every labeled node
    cv_folds: int = 0  # 0 = plain train/dev/test split
    dev_fraction: float = 0.1
    embeddings_path: str | None = None
    embedding_dim: int = 50  # used only when embeddings_path is unset
    # run
    seed: int = 0
    out_dir: str = "."

    def validate(self):
        if self.cv_folds < 0 or self.cv_folds == 1:
            raise ConfigError(f"cv_folds must be 0 or >= 2, got {self.cv_folds}")
        if self.cv_folds and (self.dev_path or self.test_path):
            raise ConfigError("cross-validation uses a single input file; drop dev/test paths")
        if self.phrases and (self.cv_folds or not self.dev_path and self.dev_fraction > 0):
            # held-out folds or a dev split carved from the training list would
            # hold phrases, which share their subtrees with the training ones
            raise ConfigError("phrases needs a dev file or dev_fraction 0, and no cv_folds")
        for name in ("batch_size", "epochs", "patience", "embedding_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # every range is written so that NaN falls outside it
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ConfigError(f"dev_fraction must be in [0, 1), got {self.dev_fraction}")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # the model settings too, before any input file is read; the class
        # count is inferred from the data, and 2 is its smallest value
        model_config(self, self.embedding_dim, 2)
        return self


@dataclass
class TrainReport:
    best_dev_acc: float | None
    test_acc: float | None
    final_train_acc: float
    epochs_run: int
    checkpoint_path: str
    log_path: str
    fold_accs: list | None = None
    mean_acc: float | None = None


# ---------------------------------------------------------------------------
# pieces


def cross_entropy(probs, labels):
    """Mean negative log-likelihood and its gradient at the logits.

    probs must be softmax rows; the gradient (probs - onehot) / B is exact
    for that pairing.
    """
    B = probs.shape[0]
    picked = probs[np.arange(B), labels]
    loss = float(-np.log(np.maximum(picked, np.finfo(np.float64).tiny)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    return loss, dlogits / B


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, arr):
        return cls(m=np.zeros_like(arr), v=np.zeros_like(arr))


def adam_update(param, grad, state, lr, beta1=TrainConfig.beta1, beta2=TrainConfig.beta2,
                eps=TrainConfig.eps):
    """One bias-corrected Adam step, in place on param, state.m and state.v.

    The moments are updated through one temporary array, in the operation
    order of ``m = beta1 * m + (1 - beta1) * g``, ``v = beta2 * v +
    (1 - beta2) * g * g`` and ``param -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    state.t += 1
    m, v = state.m, state.v
    tmp = np.multiply(grad, 1.0 - beta1)
    m *= beta1
    m += tmp
    np.multiply(grad, 1.0 - beta2, out=tmp)
    tmp *= grad
    v *= beta2
    v += tmp
    np.divide(v, 1.0 - beta2 ** state.t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    step = m / (1.0 - beta1 ** state.t)
    step *= lr
    step /= tmp
    param -= step
    return param


def max_norm_constrain(W, s):
    """Rescale columns of W whose L2 norm exceeds s, in place.

    The (1 + 1e-12) slack keeps the operation idempotent: a column scaled
    to norm s picks up rounding in the last ulp, and without slack a second
    pass would rescale it again.
    """
    if s is None:
        return W
    norms = np.sqrt((W * W).sum(axis=0))
    over = norms > s * (1.0 + 1e-12)
    if over.any():
        W[:, over] *= s / norms[over]
    return W


def train_step(model, emb, batch, rng, params, states, lr):
    """One optimisation step of ``train``, dropout drawn from rng: (loss, grads).

    Adam updates ``params`` in order, with their ``states``, then the
    max-norm constraint applies.  params are the model's tensors, plus emb
    as "embeddings" when the model's config trains them (only then is that
    gradient formed).  A non-finite loss raises TrainingDiverged before any
    tensor or state changes.
    """
    probs, trace = model_forward(model, emb, batch, rng, training=True)
    loss, dlogits = cross_entropy(probs, batch.labels)
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")
    tune = model.config.train_embeddings
    grads, dEmb = model_backward(model, trace, dlogits, embedding_grad=tune)
    if tune:
        grads["embeddings"] = embedding_gradient(trace, dEmb, len(emb))
    for name, arr in params.items():
        adam_update(arr, grads[name], states[name], lr)
    max_norm_constrain(model.softmax_W, model.config.max_norm_s)
    return loss, grads


def evaluate(model, emb_matrix, indexed, batch_size=200):
    """Accuracy in eval mode (dropout off); argmax ties go to the lowest class.

    The examples are batched in order of length (a stable sort), so each
    batch runs only as many steps as its own longest sentence; accuracy
    does not depend on the order.
    """
    if not indexed:
        raise ConfigError("cannot evaluate on an empty example list")
    correct = 0
    for batch in D.make_batches(sorted(indexed, key=lambda ex: len(ex[0])), batch_size):
        probs, _ = model_forward(model, emb_matrix, batch, training=False)
        correct += int((probs.argmax(axis=1) == batch.labels).sum())
    return correct / len(indexed)


# ---------------------------------------------------------------------------
# data assembly


def _load_split(cfg, path, phrases=False):
    return D.load_dataset(path, cfg.data_format, binary=cfg.binary, phrases=phrases)


def _carve_dev(items, fraction, rng):
    """Shuffle items and hold out a fraction of them as dev: (train, dev).

    With fraction > 0 at least one item is held out, but never the last
    one: a fold always keeps an example to train on.
    """
    n = len(items)
    order = np.arange(n)
    rng.shuffle(order)
    n_dev = min(max(1, int(n * fraction)), n - 1) if fraction > 0 and n > 1 else 0
    return [items[i] for i in order[n_dev:]], [items[i] for i in order[:n_dev]]


def _folds(cfg, rng_split):
    """The run's example splits and its folds of (train, dev, test) lists.

    A plain run is one fold; cross-validation holds out each of
    cfg.cv_folds parts of the training file in turn and carves dev from
    the rest.
    """
    if cfg.cv_folds:
        pool = _load_split(cfg, cfg.train_path)
        folds = []
        for held_out in D.make_folds(len(pool), cfg.cv_folds, seed=cfg.seed):
            held = set(held_out)
            rest = [ex for j, ex in enumerate(pool) if j not in held]
            folds.append((*_carve_dev(rest, cfg.dev_fraction, rng_split),
                          [pool[j] for j in held_out]))
        return [pool], folds
    train = _load_split(cfg, cfg.train_path, phrases=cfg.phrases)
    dev = _load_split(cfg, cfg.dev_path) if cfg.dev_path else []
    test = _load_split(cfg, cfg.test_path) if cfg.test_path else []
    if not cfg.dev_path and cfg.dev_fraction > 0:
        train, dev = _carve_dev(train, cfg.dev_fraction, rng_split)
    return [train, dev, test], [(train, dev, test)]


def _build_tables(cfg, example_sets, rng_emb):
    sets = [s for s in example_sets if s]
    if cfg.embeddings_path:
        keep = {tok for examples in sets for ex in examples for tok in ex.tokens}
        table = D.load_embeddings(cfg.embeddings_path, keep=keep)
        vocab = D.build_vocab(sets, table)
        if not vocab:
            raise ConfigError(f"{cfg.embeddings_path}: covers no word of the corpus")
        emb_matrix = D.build_embedding_matrix(vocab, table)
        m = table.dim
    else:
        vocab = D.build_vocab(sets)
        m = cfg.embedding_dim
        emb_matrix = D.random_embedding_matrix(vocab, m, rng_emb)
    return vocab, emb_matrix, m


def _infer_classes(example_sets):
    """Largest label plus one; the labels must take at least two values."""
    labels = {ex.label for examples in example_sets if examples for ex in examples}
    if len(labels) < 2:
        raise ConfigError("could not infer at least two classes from the data")
    return max(labels) + 1


def check_labels(name, examples, num_classes):
    """ConfigError naming the split when it has a label the model cannot output."""
    top = max((ex.label for ex in examples), default=-1)
    if top >= num_classes:
        raise ConfigError(f"{name} split has label {top}, outside the model's "
                          f"{num_classes} classes (0..{num_classes - 1})")


# ---------------------------------------------------------------------------
# fit loop


def _grad_group_norms(grads):
    """L2 norm of each layer's gradients; the embeddings' is left out."""
    groups = {}
    for name, g in grads.items():
        if name == "embeddings":
            continue
        key = name.split(".")[0]
        groups[key] = groups.get(key, 0.0) + float((g * g).sum())
    return {k: float(np.sqrt(v)) for k, v in sorted(groups.items())}


def _fit(cfg, model_cfg, emb_matrix, train_idx, dev_idx, test_idx, seed_seqs, log_fh, tag):
    init_rng = np.random.default_rng(seed_seqs[0])
    batch_rng = np.random.default_rng(seed_seqs[1])
    drop_rng = np.random.default_rng(seed_seqs[2])

    model = Model.build(model_cfg, init_rng)
    # the tensors Adam updates: the model's, and a copy of the embeddings when they
    # train, whose PAD row stays zero: padding is never packed, so its gradient is 0
    params = dict(model.named_params())
    if cfg.train_embeddings:
        params["embeddings"] = emb_matrix.copy()
    emb = params.get("embeddings", emb_matrix)
    states = {name: AdamState.like(arr) for name, arr in params.items()}

    best = None  # (epoch record, copy of params) of the best-dev epoch
    epochs_since_best = 0
    t_start = time.monotonic()

    for epoch in range(1, cfg.epochs + 1):
        loss_sum = 0.0
        for b_idx, batch in enumerate(D.make_batches(train_idx, cfg.batch_size, batch_rng, shuffle=True)):
            try:
                loss, grads = train_step(model, emb, batch, drop_rng, params, states, cfg.lr)
            except TrainingDiverged:
                log_fh.write(json.dumps({"event": "diverged", "tag": tag, "epoch": epoch,
                                         "batch": b_idx, "seed": cfg.seed}, sort_keys=True) + "\n")
                raise TrainingDiverged(f"non-finite loss at epoch {epoch} batch {b_idx} "
                                       f"(seed {cfg.seed})") from None
            loss_sum += loss * len(batch.labels)

        train_loss = loss_sum / len(train_idx)
        train_acc = evaluate(model, emb, train_idx, cfg.batch_size)
        dev_acc = evaluate(model, emb, dev_idx, cfg.batch_size) if dev_idx else None
        test_acc = evaluate(model, emb, test_idx, cfg.batch_size) if test_idx else None

        record = {
            "event": "epoch",
            "tag": tag,
            "epoch": epoch,
            "train_loss": train_loss,
            "train_acc": train_acc,
            "dev_acc": dev_acc,
            "test_acc": test_acc,
            # norms of the epoch's last batch's gradients, not a mean over the epoch
            "grad_norm_per_layer": _grad_group_norms(grads),
            "seed": cfg.seed,
        }
        # log lines must be a pure function of (config, seed, data); wall time
        # goes to stderr only
        log_fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(
            f"[{tag}] epoch {epoch}: loss {train_loss:.4f} train {train_acc:.4f}"
            + (f" dev {dev_acc:.4f}" if dev_acc is not None else "")
            + f" ({time.monotonic() - t_start:.1f}s)",
            file=sys.stderr,
        )

        if best is None or not dev_idx or dev_acc > best[0]["dev_acc"]:
            best = (record, {name: arr.copy() for name, arr in params.items()})
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break

    record, snapshot = best
    for name, arr in params.items():
        arr[...] = snapshot[name]
    result = {"best_dev_acc": record["dev_acc"], "test_acc": record["test_acc"],
              "final_train_acc": record["train_acc"], "epochs_run": epoch}
    return model, emb, result


# ---------------------------------------------------------------------------
# entry point


def train(cfg):
    """Run the configured training job; returns a TrainReport."""
    if not cfg.train_path:
        raise ConfigError("train_path is required")
    cfg.validate()

    root = np.random.SeedSequence(cfg.seed)
    split_ss, emb_ss = root.spawn(2)
    rng_split = np.random.default_rng(split_ss)
    rng_emb = np.random.default_rng(emb_ss)

    # load everything before touching the filesystem so a bad path or a
    # malformed corpus leaves no half-written artifacts behind
    splits, folds = _folds(cfg, rng_split)
    # one class past the largest label of any split, so every label has a class
    num_classes = _infer_classes(splits)
    vocab, emb_matrix, m = _build_tables(cfg, splits, rng_emb)
    model_cfg = model_config(cfg, m, num_classes)

    os.makedirs(cfg.out_dir, exist_ok=True)
    log_path = os.path.join(cfg.out_dir, "run.log")

    with open(log_path, "w", encoding="utf-8") as log_fh:
        _write_config(log_fh, cfg, m, num_classes)
        results = []
        for i, (fold, seq) in enumerate(zip(folds, root.spawn(len(folds)))):
            tag = f"fold{i}" if cfg.cv_folds else "train"
            # unknown tokens are dropped, as in `dcbilstm eval`; a random-
            # embedding vocabulary covers every split, so none are met here
            train_idx, dev_idx, test_idx = (
                D.vectorize(examples, vocab, drop_unknown=True) if examples else None
                for examples in fold)
            model, emb, result = _fit(
                cfg, model_cfg, emb_matrix, train_idx, dev_idx, test_idx,
                seq.spawn(3), log_fh, tag,
            )
            ckpt_path = os.path.join(cfg.out_dir, f"{tag}.ckpt" if cfg.cv_folds else "model.ckpt")
            save_checkpoint(ckpt_path, model, cfg.seed, vocab=vocab, emb_matrix=emb)
            log_fh.write(json.dumps({"event": "result", "tag": tag, "seed": cfg.seed, **result},
                                    sort_keys=True) + "\n")
            results.append(result)
        fold_accs = mean_acc = None
        if cfg.cv_folds:
            fold_accs = [r["test_acc"] for r in results]
            mean_acc = float(np.mean(fold_accs))
            log_fh.write(json.dumps(
                {"event": "cv_summary", "fold_accs": fold_accs, "mean_acc": mean_acc,
                 "seed": cfg.seed}, sort_keys=True) + "\n")
            result = {"best_dev_acc": None, "test_acc": None,
                      "final_train_acc": float("nan"), "epochs_run": 0}
    return TrainReport(**result, checkpoint_path=ckpt_path, log_path=log_path,
                       fold_accs=fold_accs, mean_acc=mean_acc)


def model_config(cfg, m, num_classes):
    """The validated ModelConfig a run of ``cfg`` builds at width m."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig) if hasattr(cfg, f.name)}
    return ModelConfig(**{**shared, "m": m, "num_classes": num_classes}).validate()


def _write_config(log_fh, cfg, m, num_classes):
    effective = asdict(cfg)
    effective.update({"event": "config", "m": m, "resolved_num_classes": num_classes})
    log_fh.write(json.dumps(effective, sort_keys=True) + "\n")
