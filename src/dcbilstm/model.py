"""Sentence classifiers built from bidirectional LSTM layers.

Two architectures share all plumbing and differ only in what each layer
reads:

  dense    layer l consumes the per-position concatenation of the word
           embeddings and every preceding layer's hidden states, in that
           fixed order (embeddings first, then layer 1, layer 2, ...);
           layer l input width is m + 2*dh*(l-1) and the top layer sees
           m + 2*dh*dl columns.
  stacked  layer l consumes only layer l-1's hidden states.

On top of the last layer: average pooling over true positions, then a
softmax classifier.  Dropout is applied at exactly two sites, the word
embeddings and the pooled vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CheckpointError, ConfigError, EmptySequenceError, ShapeError
from .tensor import glorot_uniform

ARCH_DENSE = "dense"
ARCH_STACKED = "stacked"

CHECKPOINT_MAGIC = "DCBILSTM v1"
GATE_ORDER = "ifog"
CONCAT_ORDER = "embeddings-first"


@dataclass
class ModelConfig:
    m: int
    dl: int
    dh: int
    th: int
    num_classes: int
    arch: str = ARCH_DENSE
    dropout_embed: float = 0.5
    dropout_pool: float = 0.5
    max_norm_s: float | None = 3.0
    forget_bias: float = 0.0
    train_embeddings: bool = False

    def validate(self):
        if self.arch not in (ARCH_DENSE, ARCH_STACKED):
            raise ConfigError(f"arch must be {ARCH_DENSE!r} or {ARCH_STACKED!r}, got {self.arch!r}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.dl < 0:
            raise ConfigError(f"dl must be >= 0, got {self.dl}")
        if self.dl > 0 and self.dh < 1:
            raise ConfigError(f"dh must be >= 1 when dl > 0, got {self.dh}")
        if self.th < 1:
            raise ConfigError(f"th must be >= 1, got {self.th}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        for name in ("dropout_embed", "dropout_pool"):
            r = getattr(self, name)
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {r}")
        if self.max_norm_s is not None and self.max_norm_s <= 0:
            raise ConfigError(f"max_norm_s must be positive or none, got {self.max_norm_s}")
        return self

    def layer_input_dim(self, l):
        """Input width of dense-module layer l (1-based)."""
        if self.arch == ARCH_DENSE:
            return self.m + 2 * self.dh * (l - 1)
        return self.m if l == 1 else 2 * self.dh

    def top_input_dim(self):
        if self.dl == 0:
            return self.m
        if self.arch == ARCH_DENSE:
            return self.m + 2 * self.dh * self.dl
        return 2 * self.dh


def param_shapes(cfg):
    """(name, shape) of every trained tensor, in the fixed order of ``named_params``.

    The one place parameter names and shapes are written down.  Each
    direction of a Bi-LSTM layer of width d that reads w columns has a
    weight W (w + d, 4d), acting on ``[x; h_prev]`` with its columns the
    gates in the order ``[i | f | o | g]``, and a bias b (1, 4d).  Dense
    layers come first, then the top layer, then the softmax head.
    """
    layers = [(f"dense{l - 1}", cfg.layer_input_dim(l), cfg.dh) for l in range(1, cfg.dl + 1)]
    layers.append(("top", cfg.top_input_dim(), cfg.th))
    table = []
    for layer, w, d in layers:
        for tag in ("fwd", "bwd"):
            table += [(f"{layer}.{tag}.W", (w + d, 4 * d)), (f"{layer}.{tag}.b", (1, 4 * d))]
    return table + [("softmax.W", (2 * cfg.th, cfg.num_classes)),
                    ("softmax.b", (1, cfg.num_classes))]


class Model:
    """Parameter set of one classifier; construction enforces ``param_shapes``."""

    def __init__(self, config, params):
        config.validate()
        self.config = config
        shapes = dict(param_shapes(config))
        missing = sorted(shapes.keys() - params.keys())
        extra = sorted(params.keys() - shapes.keys())
        if missing or extra:
            raise ConfigError(f"parameters missing {missing}, unexpected {extra}")
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ConfigError(f"{name} shape {params[name].shape}, expected {shape}")
        self.params = {name: params[name] for name in shapes}

    @classmethod
    def build(cls, config, rng):
        """Glorot weights, zero biases (LSTM forget blocks offset by forget_bias).

        Weights are drawn in table order, so a seed fixes the whole model.
        """
        config.validate()
        params = {}
        for name, shape in param_shapes(config):
            if name.endswith(".W"):
                params[name] = glorot_uniform(*shape, rng)
                continue
            params[name] = np.zeros(shape)
            if config.forget_bias and name != "softmax.b":
                d = shape[1] // 4
                params[name][0, d:2 * d] = config.forget_bias
        return cls(config, params)

    @property
    def softmax_W(self):
        return self.params["softmax.W"]

    @property
    def softmax_b(self):
        return self.params["softmax.b"]

    def named_params(self):
        """(name, array) pairs in a stable order used by Adam, gradcheck and checkpoints."""
        return list(self.params.items())

    def copy_params(self):
        return {name: arr.copy() for name, arr in self.params.items()}

    def load_params(self, snapshot):
        for name, arr in self.params.items():
            arr[...] = snapshot[name]


def count_params(m, dl, dh, th):
    """Trainable values in the recurrent layers of a dense model.

    Counts weights and biases of both directions of every dense layer plus
    the top layer; the embedding table and softmax head are excluded.
    """
    cfg = ModelConfig(m=m, dl=dl, dh=dh, th=th, num_classes=2)
    return sum(math.prod(shape) for name, shape in param_shapes(cfg)
               if not name.startswith("softmax."))


def format_param_count(n):
    """Human form at 0.01M resolution, truncating toward zero.

    Truncation, not round-half: the reference ablation tables print
    1,406,560 as 1.40M, which nearest-rounding would render 1.41M.
    """
    return f"{(n // 10_000) / 100:.2f}M"


# ---------------------------------------------------------------------------
# batched forward / backward
#
# A batch is packed once (``kernels.pack``) and stays packed, ``(N, ·)`` with
# one row per real token, from the embedding gather through pooling.  The
# layer stack lives in a few packed buffers: for the dense architecture one
# concatenation buffer ``M`` of width m + 2*dh*dl (embeddings first, then
# each layer's [fwd | bwd] states), so layer l reads the prefix view
# ``M[:, :w_in]`` without a copy (Pleiss et al. 2017, arXiv 1707.06990);
# for the stacked one a buffer per layer.  The top layer writes its states
# into a last buffer of width 2*th.  The backward pass accumulates into
# zero-filled buffers of the same shapes.


def _stack_buffers(cfg, N):
    """Packed buffers of the layer stack; the embeddings are bufs[0][:, :m]."""
    if cfg.arch == ARCH_DENSE:
        widths = [cfg.top_input_dim()]
    else:
        widths = [cfg.m] + [2 * cfg.dh] * cfg.dl
    return [np.empty((N, w)) for w in widths + [2 * cfg.th]]


def _layer_views(cfg, bufs):
    """(input, output) views of every layer of the stack, the top layer last."""
    if cfg.arch == ARCH_DENSE:
        M, Htop = bufs
        views = []
        for l in range(1, cfg.dl + 1):
            w_in = cfg.layer_input_dim(l)
            views.append((M[:, :w_in], M[:, w_in:w_in + 2 * cfg.dh]))
        return views + [(M, Htop)]
    return list(zip(bufs[:-1], bufs[1:]))


def _layer_names(model):
    """Names of the Bi-LSTM layers in stack order, the top layer last."""
    return [name.removesuffix(".fwd.W") for name in model.params if name.endswith(".fwd.W")]


def arch_forward_batch(model, bufs, packing):
    """Run the layer stack over packed buffers whose embeddings are filled.

    Each layer's two directions write their hidden states into its output
    view.  Returns the per-layer (Cf, Gf, Cb, Gb) the backward pass needs.
    """
    P = model.params
    states = []
    for name, (X, Y) in zip(_layer_names(model), _layer_views(model.config, bufs)):
        d = Y.shape[1] // 2
        Y[:, :d], Cf, Gf = kernels.lstm_layer_forward(
            X, packing, P[f"{name}.fwd.W"], P[f"{name}.fwd.b"][0], False)
        Y[:, d:], Cb, Gb = kernels.lstm_layer_forward(
            X, packing, P[f"{name}.bwd.W"], P[f"{name}.bwd.b"][0], True)
        states.append((Cf, Gf, Cb, Gb))
    return states


def arch_backward_batch(model, trace, dHtop):
    """Backprop through the layer stack.

    dHtop is the packed gradient on the top layer's [fwd | bwd] states.
    Returns (grads by parameter name, packed gradient on the embeddings).
    """
    cfg = model.config
    dbufs = [np.zeros_like(buf) for buf in trace.bufs[:-1]] + [dHtop]
    layers = zip(_layer_names(model), _layer_views(cfg, trace.bufs),
                 _layer_views(cfg, dbufs), trace.states)
    grads = {}
    for name, (X, Y), (dX, dY), (Cf, Gf, Cb, Gb) in reversed(list(layers)):
        d = Y.shape[1] // 2
        for tag, cols, C, G, reverse in (("fwd", slice(None, d), Cf, Gf, False),
                                         ("bwd", slice(d, None), Cb, Gb, True)):
            dW, db = kernels.lstm_layer_backward(
                X, trace.packing, model.params[f"{name}.{tag}.W"], Y[:, cols], C, G,
                dY[:, cols], reverse, dX
            )
            grads[f"{name}.{tag}.W"] = dW
            grads[f"{name}.{tag}.b"] = db.reshape(1, -1)
    return grads, dbufs[0][:, :cfg.m]


def average_pool_batch(H, lengths, packing):
    """Mean of each sentence's packed hidden vectors: a sum over packed steps."""
    if (lengths < 1).any():
        raise EmptySequenceError("average_pool: zero-length sentence")
    if len(H) != len(packing.rows):
        raise ShapeError(f"average_pool: {len(H)} packed rows for {len(packing.rows)} tokens")
    # every sentence is active at step 0, so its rows list them in packed order
    total = np.zeros((len(lengths), H.shape[1]))
    for lo, k in zip(packing.starts, packing.sizes):
        total[:k] += H[lo:lo + k]
    pooled = np.empty_like(total)
    pooled[packing.rows[:len(lengths)]] = total
    return pooled / lengths[:, None]


def pool_backward_batch(dPool, lengths, packing):
    return (dPool / lengths[:, None])[packing.rows]


def softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def classify_batch(h, W, b):
    return softmax_rows(h @ W + b)


def _dropout_mask(draws, rate):
    """Kept-and-scaled multiplier from uniform draws on [0, 1)."""
    return (draws >= rate) / (1.0 - rate)


def dropout(x, rate, rng, training):
    """Inverted dropout; identity when rate == 0 or not training.

    Returns (output, mask) where mask is None on the identity path and the
    kept-and-scaled multiplier otherwise, so the backward pass can reuse it.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    mask = _dropout_mask(rng.random(x.shape), rate)
    return x * mask, mask


# ---------------------------------------------------------------------------
# full model forward / backward


@dataclass
class ModelTrace:
    tokens: np.ndarray  # (N,) packed token ids
    lengths: np.ndarray
    packing: kernels.Packing
    mask_embed: np.ndarray | None  # (N, m)
    bufs: list  # packed stack buffers, the top layer's states last
    states: list  # (Cf, Gf, Cb, Gb) of every layer, the top layer last
    mask_pool: np.ndarray | None
    pooled_dropped: np.ndarray
    probs: np.ndarray


def model_forward(model, emb_matrix, batch, rng=None, training=False):
    """Embed -> dropout -> layer stack -> mean pool -> dropout -> softmax."""
    cfg = model.config
    if training and (cfg.dropout_embed > 0 or cfg.dropout_pool > 0) and rng is None:
        raise ConfigError("training forward with dropout needs an rng")
    if emb_matrix.shape[1] != cfg.m:
        raise ConfigError(f"embedding width {emb_matrix.shape[1]} != configured m {cfg.m}")
    packing = kernels.pack(batch.lengths)
    tokens = batch.indices[packing.rows, packing.ts]
    bufs = _stack_buffers(cfg, len(tokens))
    emb = bufs[0][:, :cfg.m]
    emb[...] = emb_matrix[tokens]
    mask_e = None
    if training and cfg.dropout_embed > 0:
        # drawn over the padded batch, so seeded runs keep their random stream
        draws = rng.random(batch.indices.shape + (cfg.m,))
        mask_e = _dropout_mask(draws[packing.rows, packing.ts], cfg.dropout_embed)
        emb *= mask_e
    states = arch_forward_batch(model, bufs, packing)
    pooled = average_pool_batch(bufs[-1], batch.lengths, packing)
    pooled_d, mask_p = dropout(pooled, cfg.dropout_pool, rng, training)
    probs = classify_batch(pooled_d, model.softmax_W, model.softmax_b)
    trace = ModelTrace(
        tokens=tokens,
        lengths=batch.lengths,
        packing=packing,
        mask_embed=mask_e,
        bufs=bufs,
        states=states,
        mask_pool=mask_p,
        pooled_dropped=pooled_d,
        probs=probs,
    )
    return probs, trace


def model_backward(model, trace, dlogits):
    """Gradients of every model parameter plus the packed embedding gradient.

    dlogits is the loss gradient at the softmax pre-activations (for mean
    cross-entropy over a batch: (probs - onehot) / B).  The embedding
    gradient has one row per token of ``trace.tokens``.
    """
    grads = {
        "softmax.W": trace.pooled_dropped.T @ dlogits,
        "softmax.b": dlogits.sum(axis=0, keepdims=True),
    }
    dpool = dlogits @ model.softmax_W.T
    if trace.mask_pool is not None:
        dpool = dpool * trace.mask_pool
    dHtop = pool_backward_batch(dpool, trace.lengths, trace.packing)
    layer_grads, dEmb = arch_backward_batch(model, trace, dHtop)
    grads.update(layer_grads)
    if trace.mask_embed is not None:
        dEmb = dEmb * trace.mask_embed
    return grads, dEmb


def embedding_gradient(trace, dEmb, vocab_size):
    """Scatter a packed embedding gradient onto the rows of the embedding matrix."""
    full = np.zeros((vocab_size, dEmb.shape[1]))
    np.add.at(full, trace.tokens, dEmb)
    return full


# ---------------------------------------------------------------------------
# checkpoint format
#
# Line 1 is the magic "DCBILSTM v1".  A flat text manifest follows (one
# "key value" pair per line, utf-8), optionally a vocab section, then
# "tensors <k>" and k blocks of "name rows cols" followed by rows*cols
# little-endian float64 values.  Round-trips are bitwise stable.

_MANIFEST_INT = ("m", "dl", "dh", "th", "num_classes")
_MANIFEST_FLOAT = ("dropout_embed", "dropout_pool", "forget_bias")


def save_checkpoint(path, model, seed, vocab=None, emb_matrix=None):
    cfg = model.config
    lines = [CHECKPOINT_MAGIC, f"arch {cfg.arch}"]
    for key in _MANIFEST_INT:
        lines.append(f"{key} {getattr(cfg, key)}")
    for key in _MANIFEST_FLOAT:
        lines.append(f"{key} {getattr(cfg, key)!r}")
    lines.append(f"max_norm_s {'none' if cfg.max_norm_s is None else repr(cfg.max_norm_s)}")
    lines.append(f"train_embeddings {int(cfg.train_embeddings)}")
    lines.append(f"gate_order {GATE_ORDER}")
    lines.append(f"concat_order {CONCAT_ORDER}")
    lines.append(f"seed {int(seed)}")

    tensors = list(model.named_params())
    if vocab is not None:
        tokens = [tok for tok, _ in sorted(vocab.items(), key=lambda kv: kv[1])]
        lines.append(f"vocab {len(tokens)}")
        lines.extend(tokens)
        if emb_matrix is None:
            raise CheckpointError("vocab given without an embedding matrix")
        tensors.append(("embeddings", emb_matrix))
    lines.append(f"tensors {len(tensors)}")

    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name, arr in tensors:
            if arr.ndim != 2:
                raise CheckpointError(f"tensor {name} is not 2-D")
            fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n".encode("utf-8"))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_line(fh, what):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    try:
        return line[:-1].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not utf-8 text")


def _read_count(text, what):
    """A non-negative decimal integer from the checkpoint's text part."""
    if not (text.isascii() and text.isdigit()):
        raise CheckpointError(f"{what} {text!r} is not a non-negative integer")
    return int(text)


def load_checkpoint(path):
    """Returns (model, meta) with meta carrying seed, vocab and embeddings."""
    with open(path, "rb") as fh:
        if _read_line(fh, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        manifest = {}
        vocab_tokens = None
        n_tensors = None
        while n_tensors is None:
            line = _read_line(fh, "manifest")
            key, _, value = line.partition(" ")
            if key == "vocab":
                n_vocab = _read_count(value, "vocab size")
                vocab_tokens = [_read_line(fh, "vocab token") for _ in range(n_vocab)]
            elif key == "tensors":
                n_tensors = _read_count(value, "tensor count")
            else:
                manifest[key] = value

        required = {"arch", "seed", "gate_order", "concat_order", "train_embeddings",
                    "max_norm_s", *_MANIFEST_INT, *_MANIFEST_FLOAT}
        missing = required - set(manifest)
        if missing:
            raise CheckpointError(f"{path}: manifest missing keys {sorted(missing)}")
        unknown = set(manifest) - required
        if unknown:
            raise CheckpointError(f"{path}: unknown manifest keys {sorted(unknown)}")
        if manifest["gate_order"] != GATE_ORDER or manifest["concat_order"] != CONCAT_ORDER:
            raise CheckpointError(f"{path}: incompatible gate/concat order")

        tensors = {}
        for _ in range(n_tensors):
            header = _read_line(fh, "tensor header").split(" ")
            if len(header) != 3:
                raise CheckpointError(f"{path}: malformed tensor header {header!r}")
            name = header[0]
            rows = _read_count(header[1], f"{path}: tensor {name} rows")
            cols = _read_count(header[2], f"{path}: tensor {name} cols")
            nbytes = rows * cols * 8
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise CheckpointError(f"{path}: truncated tensor {name}")
            arr = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(rows, cols)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
            tensors[name] = arr
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    try:
        cfg = ModelConfig(
            m=int(manifest["m"]),
            dl=int(manifest["dl"]),
            dh=int(manifest["dh"]),
            th=int(manifest["th"]),
            num_classes=int(manifest["num_classes"]),
            arch=manifest["arch"],
            dropout_embed=float(manifest["dropout_embed"]),
            dropout_pool=float(manifest["dropout_pool"]),
            max_norm_s=None if manifest["max_norm_s"] == "none" else float(manifest["max_norm_s"]),
            forget_bias=float(manifest["forget_bias"]),
            train_embeddings=bool(int(manifest["train_embeddings"])),
        )
        seed = int(manifest["seed"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed manifest value ({exc})")

    def grab(name):
        try:
            return tensors.pop(name)
        except KeyError:
            raise CheckpointError(f"{path}: missing tensor {name}")

    model = Model(cfg, {name: grab(name) for name, _ in param_shapes(cfg)})

    meta = {"seed": seed, "vocab": None, "emb_matrix": None}
    if vocab_tokens is not None:
        meta["vocab"] = {tok: idx + 2 for idx, tok in enumerate(vocab_tokens)}
        meta["emb_matrix"] = grab("embeddings")
    if tensors:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(tensors)}")
    return model, meta
