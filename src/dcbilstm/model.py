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

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CheckpointError, ConfigError, EmptySequenceError, ShapeError
from .tensor import glorot_uniform, matmul

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


@dataclass
class LstmParams:
    """Affine transform of one direction: W (input_dim + d, 4d), b (1, 4d).

    W acts on ``[x; h_prev]`` and its columns are the gates in the order
    ``[i | f | o | g]``.
    """

    W: np.ndarray
    b: np.ndarray

    @property
    def d(self):
        return self.W.shape[1] // 4

    @property
    def input_dim(self):
        return self.W.shape[0] - self.d

    @classmethod
    def init(cls, input_dim, d, rng, forget_bias=0.0):
        """Glorot-uniform weights, zero bias (optionally offset the f block)."""
        W = glorot_uniform(input_dim + d, 4 * d, rng)
        b = np.zeros((1, 4 * d))
        if forget_bias:
            b[0, d:2 * d] = forget_bias
        return cls(W=W, b=b)


@dataclass
class BiLayerParams:
    """Forward and backward direction parameters of one Bi-LSTM layer."""

    fwd: LstmParams
    bwd: LstmParams

    @property
    def d(self):
        return self.fwd.d

    @property
    def input_dim(self):
        return self.fwd.input_dim

    @classmethod
    def init(cls, input_dim, d, rng, forget_bias=0.0):
        return cls(
            fwd=LstmParams.init(input_dim, d, rng, forget_bias),
            bwd=LstmParams.init(input_dim, d, rng, forget_bias),
        )


class Model:
    """Parameter set of one classifier; construction enforces the width chain."""

    def __init__(self, config, dense_layers, top_layer, softmax_W, softmax_b):
        config.validate()
        self.config = config
        self.dense_layers = dense_layers
        self.top_layer = top_layer
        self.softmax_W = softmax_W
        self.softmax_b = softmax_b
        self._validate_shapes()

    def _validate_shapes(self):
        cfg = self.config
        if len(self.dense_layers) != cfg.dl:
            raise ConfigError(f"expected {cfg.dl} dense layers, got {len(self.dense_layers)}")
        for l, layer in enumerate(self.dense_layers, start=1):
            want_in = cfg.layer_input_dim(l)
            for tag, p in (("fwd", layer.fwd), ("bwd", layer.bwd)):
                if p.W.shape != (want_in + cfg.dh, 4 * cfg.dh) or p.b.shape != (1, 4 * cfg.dh):
                    raise ConfigError(
                        f"dense layer {l} {tag}: W {p.W.shape}, b {p.b.shape}, "
                        f"expected W ({want_in + cfg.dh}, {4 * cfg.dh})"
                    )
        want_in = cfg.top_input_dim()
        for tag, p in (("fwd", self.top_layer.fwd), ("bwd", self.top_layer.bwd)):
            if p.W.shape != (want_in + cfg.th, 4 * cfg.th) or p.b.shape != (1, 4 * cfg.th):
                raise ConfigError(
                    f"top layer {tag}: W {p.W.shape}, expected ({want_in + cfg.th}, {4 * cfg.th})"
                )
        if self.softmax_W.shape != (2 * cfg.th, cfg.num_classes):
            raise ConfigError(
                f"softmax W shape {self.softmax_W.shape}, expected ({2 * cfg.th}, {cfg.num_classes})"
            )
        if self.softmax_b.shape != (1, cfg.num_classes):
            raise ConfigError(f"softmax b shape {self.softmax_b.shape}, expected (1, {cfg.num_classes})")

    @classmethod
    def build(cls, config, rng):
        """Fresh Glorot-initialized model; draw order is fixed for reproducibility."""
        config.validate()
        dense = [
            BiLayerParams.init(config.layer_input_dim(l), config.dh, rng, config.forget_bias)
            for l in range(1, config.dl + 1)
        ]
        top = BiLayerParams.init(config.top_input_dim(), config.th, rng, config.forget_bias)
        softmax_W = glorot_uniform(2 * config.th, config.num_classes, rng)
        softmax_b = np.zeros((1, config.num_classes))
        return cls(config, dense, top, softmax_W, softmax_b)

    def named_params(self):
        """(name, array) pairs in a stable order used by Adam, gradcheck and checkpoints."""
        out = []
        for l, layer in enumerate(self.dense_layers):
            out.append((f"dense{l}.fwd.W", layer.fwd.W))
            out.append((f"dense{l}.fwd.b", layer.fwd.b))
            out.append((f"dense{l}.bwd.W", layer.bwd.W))
            out.append((f"dense{l}.bwd.b", layer.bwd.b))
        out.append(("top.fwd.W", self.top_layer.fwd.W))
        out.append(("top.fwd.b", self.top_layer.fwd.b))
        out.append(("top.bwd.W", self.top_layer.bwd.W))
        out.append(("top.bwd.b", self.top_layer.bwd.b))
        out.append(("softmax.W", self.softmax_W))
        out.append(("softmax.b", self.softmax_b))
        return out

    def copy_params(self):
        return {name: arr.copy() for name, arr in self.named_params()}

    def load_params(self, snapshot):
        for name, arr in self.named_params():
            arr[...] = snapshot[name]


def count_params(m, dl, dh, th):
    """Trainable values in the recurrent layers.

    Counts weights and biases of both directions of every dense layer plus
    the top layer; the embedding table and softmax head are excluded.
    """
    total = 0
    for l in range(1, dl + 1):
        in_dim = m + 2 * dh * (l - 1)
        total += 2 * (4 * dh * (in_dim + dh) + 4 * dh)
    top_in = m + 2 * dh * dl
    total += 2 * (4 * th * (top_in + th) + 4 * th)
    return total


def format_param_count(n):
    """Human form at 0.01M resolution, truncating toward zero.

    Truncation, not round-half: the reference ablation tables print
    1,406,560 as 1.40M, which nearest-rounding would render 1.41M.
    """
    return f"{(n // 10_000) / 100:.2f}M"


# ---------------------------------------------------------------------------
# batched forward / backward


@dataclass
class LayerTrace:
    X: np.ndarray  # (B, T, w_in) contiguous input consumed by both directions
    Hf: np.ndarray
    Cf: np.ndarray
    Gf: np.ndarray
    Hb: np.ndarray
    Cb: np.ndarray
    Gb: np.ndarray


@dataclass
class ArchTrace:
    lengths: np.ndarray
    layers: list
    top: LayerTrace


def _run_bilayer(layer, X, lengths):
    Hf, Cf, Gf = kernels.lstm_layer_forward(X, lengths, layer.fwd.W, layer.fwd.b[0], False)
    Hb, Cb, Gb = kernels.lstm_layer_forward(X, lengths, layer.bwd.W, layer.bwd.b[0], True)
    return LayerTrace(X=X, Hf=Hf, Cf=Cf, Gf=Gf, Hb=Hb, Cb=Cb, Gb=Gb)


def _bilayer_backward(layer, tr, dHcat, lengths):
    d = layer.d
    dHf = np.ascontiguousarray(dHcat[:, :, :d])
    dHb = np.ascontiguousarray(dHcat[:, :, d:])
    dWf, dbf, dXf = kernels.lstm_layer_backward(
        tr.X, lengths, layer.fwd.W, tr.Hf, tr.Cf, tr.Gf, dHf, False
    )
    dWb, dbb, dXb = kernels.lstm_layer_backward(
        tr.X, lengths, layer.bwd.W, tr.Hb, tr.Cb, tr.Gb, dHb, True
    )
    return (dWf, dbf, dWb, dbb), dXf + dXb


def dense_forward_batch(model, emb, lengths):
    """Dense module over a padded batch (B, T, m); returns (Htop, trace)."""
    cfg = model.config
    B, T, m = emb.shape
    if m != cfg.m:
        raise ConfigError(f"embedding width {m} != configured m {cfg.m}")
    M = np.zeros((B, T, cfg.top_input_dim()))
    M[:, :, :cfg.m] = emb
    layer_traces = []
    for l, layer in enumerate(model.dense_layers):
        w_in = cfg.layer_input_dim(l + 1)
        X = np.ascontiguousarray(M[:, :, :w_in])
        tr = _run_bilayer(layer, X, lengths)
        M[:, :, w_in:w_in + cfg.dh] = tr.Hf
        M[:, :, w_in + cfg.dh:w_in + 2 * cfg.dh] = tr.Hb
        layer_traces.append(tr)
    top_tr = _run_bilayer(model.top_layer, M, lengths)
    Htop = np.concatenate([top_tr.Hf, top_tr.Hb], axis=2)
    return Htop, ArchTrace(lengths=lengths, layers=layer_traces, top=top_tr)


def stacked_forward_batch(model, emb, lengths):
    """Plain stacked module: each layer reads only its predecessor's output."""
    cfg = model.config
    if emb.shape[2] != cfg.m:
        raise ConfigError(f"embedding width {emb.shape[2]} != configured m {cfg.m}")
    X = np.ascontiguousarray(emb)
    layer_traces = []
    for layer in model.dense_layers:
        tr = _run_bilayer(layer, X, lengths)
        X = np.concatenate([tr.Hf, tr.Hb], axis=2)
        layer_traces.append(tr)
    top_tr = _run_bilayer(model.top_layer, X, lengths)
    Htop = np.concatenate([top_tr.Hf, top_tr.Hb], axis=2)
    return Htop, ArchTrace(lengths=lengths, layers=layer_traces, top=top_tr)


def arch_forward_batch(model, emb, lengths):
    if model.config.arch == ARCH_DENSE:
        return dense_forward_batch(model, emb, lengths)
    return stacked_forward_batch(model, emb, lengths)


def arch_backward_batch(model, trace, dHtop):
    """Backprop through the layer stack.

    dHtop is the gradient on the top layer's concatenated hidden states.
    Returns (grads by parameter name, gradient on the embedded inputs).
    """
    cfg = model.config
    lengths = trace.lengths
    grads = {}
    (dWf, dbf, dWb, dbb), dXtop = _bilayer_backward(model.top_layer, trace.top, dHtop, lengths)
    grads["top.fwd.W"] = dWf
    grads["top.fwd.b"] = dbf.reshape(1, -1)
    grads["top.bwd.W"] = dWb
    grads["top.bwd.b"] = dbb.reshape(1, -1)

    if cfg.arch == ARCH_DENSE:
        dM = dXtop.copy()
        for l in range(cfg.dl - 1, -1, -1):
            w_in = cfg.layer_input_dim(l + 1)
            dHcat = np.ascontiguousarray(dM[:, :, w_in:w_in + 2 * cfg.dh])
            (dWf, dbf, dWb, dbb), dX = _bilayer_backward(
                model.dense_layers[l], trace.layers[l], dHcat, lengths
            )
            grads[f"dense{l}.fwd.W"] = dWf
            grads[f"dense{l}.fwd.b"] = dbf.reshape(1, -1)
            grads[f"dense{l}.bwd.W"] = dWb
            grads[f"dense{l}.bwd.b"] = dbb.reshape(1, -1)
            dM[:, :, :w_in] += dX
        dEmb = np.ascontiguousarray(dM[:, :, :cfg.m])
    else:
        dX = dXtop
        for l in range(cfg.dl - 1, -1, -1):
            (dWf, dbf, dWb, dbb), dX = _bilayer_backward(
                model.dense_layers[l], trace.layers[l], dX, lengths
            )
            grads[f"dense{l}.fwd.W"] = dWf
            grads[f"dense{l}.fwd.b"] = dbf.reshape(1, -1)
            grads[f"dense{l}.bwd.W"] = dWb
            grads[f"dense{l}.bwd.b"] = dbb.reshape(1, -1)
        dEmb = dX
    return grads, dEmb


def _real_positions(lengths, T):
    """(B, T, 1) mask of the positions inside each sentence."""
    return (np.arange(T) < lengths[:, None])[:, :, None]


def average_pool_batch(H, lengths):
    """Mean of each sentence's hidden vectors over true positions only."""
    if (lengths < 1).any():
        raise EmptySequenceError("average_pool: zero-length sentence")
    T = H.shape[1]
    if lengths.max() > T:
        raise ShapeError(f"average_pool: length {lengths.max()} exceeds {T} positions")
    total = np.where(_real_positions(lengths, T), H, 0.0).sum(axis=1)
    return total / lengths[:, None]


def pool_backward_batch(dPool, lengths, T):
    share = (dPool / lengths[:, None])[:, None, :]
    return np.where(_real_positions(lengths, T), share, 0.0)


def softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def classify_batch(h, W, b):
    return softmax_rows(matmul(h, W) + b)


def dropout(x, rate, rng, training):
    """Inverted dropout; identity when rate == 0 or not training.

    Returns (output, mask) where mask is None on the identity path and the
    kept-and-scaled multiplier otherwise, so the backward pass can reuse it.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(np.float64)
    mask = keep / (1.0 - rate)
    return x * mask, mask


# ---------------------------------------------------------------------------
# full model forward / backward


@dataclass
class ModelTrace:
    indices: np.ndarray
    lengths: np.ndarray
    mask_embed: np.ndarray | None
    arch: ArchTrace
    Htop: np.ndarray
    mask_pool: np.ndarray | None
    pooled_dropped: np.ndarray
    probs: np.ndarray


def model_forward(model, emb_matrix, batch, rng=None, training=False):
    """Embed -> dropout -> layer stack -> mean pool -> dropout -> softmax."""
    cfg = model.config
    if training and (cfg.dropout_embed > 0 or cfg.dropout_pool > 0) and rng is None:
        raise ConfigError("training forward with dropout needs an rng")
    emb = emb_matrix[batch.indices]
    emb_d, mask_e = dropout(emb, cfg.dropout_embed, rng, training)
    Htop, atrace = arch_forward_batch(model, np.ascontiguousarray(emb_d), batch.lengths)
    pooled = average_pool_batch(Htop, batch.lengths)
    pooled_d, mask_p = dropout(pooled, cfg.dropout_pool, rng, training)
    probs = classify_batch(pooled_d, model.softmax_W, model.softmax_b)
    trace = ModelTrace(
        indices=batch.indices,
        lengths=batch.lengths,
        mask_embed=mask_e,
        arch=atrace,
        Htop=Htop,
        mask_pool=mask_p,
        pooled_dropped=pooled_d,
        probs=probs,
    )
    return probs, trace


def model_backward(model, trace, dlogits):
    """Gradients of every model parameter plus the embedded-input gradient.

    dlogits is the loss gradient at the softmax pre-activations (for mean
    cross-entropy over a batch: (probs - onehot) / B).
    """
    grads = {
        "softmax.W": trace.pooled_dropped.T @ dlogits,
        "softmax.b": dlogits.sum(axis=0, keepdims=True),
    }
    dpool = dlogits @ model.softmax_W.T
    if trace.mask_pool is not None:
        dpool = dpool * trace.mask_pool
    dHtop = pool_backward_batch(dpool, trace.lengths, trace.Htop.shape[1])
    layer_grads, dEmb = arch_backward_batch(model, trace.arch, dHtop)
    grads.update(layer_grads)
    if trace.mask_embed is not None:
        dEmb = dEmb * trace.mask_embed
    return grads, dEmb


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

    dense = [
        BiLayerParams(
            fwd=LstmParams(W=grab(f"dense{l}.fwd.W"), b=grab(f"dense{l}.fwd.b")),
            bwd=LstmParams(W=grab(f"dense{l}.bwd.W"), b=grab(f"dense{l}.bwd.b")),
        )
        for l in range(cfg.dl)
    ]
    top = BiLayerParams(
        fwd=LstmParams(W=grab("top.fwd.W"), b=grab("top.fwd.b")),
        bwd=LstmParams(W=grab("top.bwd.W"), b=grab("top.bwd.b")),
    )
    model = Model(cfg, dense, top, grab("softmax.W"), grab("softmax.b"))

    meta = {"seed": seed, "vocab": None, "emb_matrix": None}
    if vocab_tokens is not None:
        meta["vocab"] = {tok: idx + 2 for idx, tok in enumerate(vocab_tokens)}
        meta["emb_matrix"] = grab("embeddings")
    if tensors:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(tensors)}")
    return model, meta
