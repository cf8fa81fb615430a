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
import typing
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import data, kernels
from .errors import CheckpointError, ConfigError

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
    forget_bias: float = 0.0
    max_norm_s: float | None = 3.0
    train_embeddings: bool = False

    def validate(self):
        if self.arch not in (ARCH_DENSE, ARCH_STACKED):
            raise ConfigError(f"arch must be {ARCH_DENSE!r} or {ARCH_STACKED!r}, got {self.arch!r}")
        for name, low in (("m", 1), ("dl", 0), ("dh", 0), ("th", 1), ("num_classes", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.dl > 0 and self.dh < 1:
            raise ConfigError(f"dh must be >= 1 when dl > 0, got {self.dh}")
        # every range is written so that NaN falls outside it
        for name in ("dropout_embed", "dropout_pool"):
            r = getattr(self, name)
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {r}")
        if self.max_norm_s is not None and not 0.0 < self.max_norm_s < math.inf:
            raise ConfigError(f"max_norm_s must be positive and finite or none, "
                              f"got {self.max_norm_s}")
        if not math.isfinite(self.forget_bias):
            raise ConfigError(f"forget_bias must be finite, got {self.forget_bias}")
        return self


def parse_setting(kind, text):
    """Text -> a value of the annotated type ``kind``; raises ValueError.

    An ``X | None`` type reads ``none`` (any case) as None; a bool is
    spelt true/false, yes/no or 1/0.  Config files, flags and checkpoint
    manifests all read settings this way.
    """
    if typing.get_args(kind):  # X | None
        if text.lower() == "none":
            return None
        kind = typing.get_args(kind)[0]
    if kind is not bool:
        return kind(text)
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def format_setting(value):
    """The text ``parse_setting`` reads back as ``value``."""
    return "none" if value is None else str(int(value) if isinstance(value, bool) else value)


class _Layer(NamedTuple):
    """Where one Bi-LSTM layer of the stack lives.

    Its two directions, fwd then bwd, own the 8d columns ``cols`` of the
    model's weight and bias storage; a direction's weight is the first
    w + d rows of its 4d columns.  In the packed state buffer of a forward
    pass (every layer's [fwd | bwd] hidden states in stack order) the layer
    writes the columns ``out`` and reads the columns ``rest``, on which its
    weight rows ``rest_rows`` act; when ``embedded`` it also reads the
    embeddings, through its first m weight rows.
    """

    name: str
    d: int
    w: int
    cols: slice
    out: slice
    rest: slice
    rest_rows: slice
    embedded: bool


def _stack_layout(cfg):
    """The ``_Layer`` of every Bi-LSTM layer in stack order, the top layer last.

    The layers are dense0 .. dense{dl-1}, each dh wide, then the top layer,
    th wide.  Dense layers read the embeddings and every earlier layer's
    states; a stacked layer reads the embeddings when it is first, and
    otherwise only the previous layer's states.
    """
    dense = cfg.arch == ARCH_DENSE
    layers, col, out = [], 0, 0
    for name, d in [(f"dense{l}", cfg.dh) for l in range(cfg.dl)] + [("top", cfg.th)]:
        embedded = dense or not layers
        n_rest = out if dense or not layers else 2 * layers[-1].d
        w = (cfg.m if embedded else 0) + n_rest
        layers.append(_Layer(name, d, w, slice(col, col + 8 * d), slice(out, out + 2 * d),
                             slice(out - n_rest, out), slice(w - n_rest, w), embedded))
        col, out = col + 8 * d, out + 2 * d
    return layers


def param_shapes(cfg):
    """(name, shape) of every trained tensor, in the fixed order of ``named_params``.

    The one place parameter names and shapes are written down.  Each
    direction of a Bi-LSTM layer of width d that reads w columns has a
    weight W (w + d, 4d), acting on ``[x; h_prev]`` with its columns the
    gates in the order ``[i | f | o | g]``, and a bias b (1, 4d).  Layers
    come in ``_stack_layout`` order, then the softmax head; every weight
    comes right before its bias.
    """
    table = []
    for L in _stack_layout(cfg):
        for tag in ("fwd", "bwd"):
            table += [(f"{L.name}.{tag}.W", (L.w + L.d, 4 * L.d)),
                      (f"{L.name}.{tag}.b", (1, 4 * L.d))]
    return table + [("softmax.W", (2 * cfg.th, cfg.num_classes)),
                    ("softmax.b", (1, cfg.num_classes))]


class Model:
    """Parameter set of one classifier; construction enforces ``param_shapes``.

    The LSTM weights live in one array ``lstm_W`` of shape (max(w + d), sum
    of 8d) and the LSTM biases in one ``lstm_b`` of shape (1, sum of 8d),
    laid out by ``_stack_layout``: a direction's W is the top rows of a 4d
    column block, its b the same columns of ``lstm_b``, blocks in table
    order.  Every LSTM entry of ``params`` is a view of that storage, so the
    forward pass can apply the embedding rows of every layer in one product.
    The softmax head keeps arrays of its own.  Construction copies the
    given arrays; it never aliases them.

    The storage is the one owner of the model's dtype: it takes the result
    type of the given arrays (float32, float64 or complex; integer arrays
    give float64), and every buffer of the forward and backward passes
    follows it.  ``build`` draws float64.
    """

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
        self.layers = _stack_layout(config)
        self.embedded_cols = slice(0, max(L.cols.stop for L in self.layers if L.embedded))
        dtype = np.result_type(*params.values())
        if dtype.kind not in "fc":  # integer or bool arrays
            dtype = np.dtype(np.float64)
        self.lstm_W = np.zeros((max(L.w + L.d for L in self.layers), self.layers[-1].cols.stop),
                               dtype)
        self.lstm_b = np.zeros((1, self.lstm_W.shape[1]), dtype)
        self.params = self.lstm_views(self.lstm_W, self.lstm_b)
        self.params.update((name, np.empty(shapes[name], dtype))
                           for name in ("softmax.W", "softmax.b"))
        for name, arr in self.params.items():
            arr[...] = params[name]

    @classmethod
    def build(cls, config, rng):
        """Glorot weights, zero biases (LSTM forget blocks offset by forget_bias).

        A (rows, cols) weight is uniform on [-limit, limit), limit =
        sqrt(6 / (rows + cols)).  Weights are drawn in table order, so a
        seed fixes the whole model.
        """
        config.validate()
        table = param_shapes(config)
        params = {name: np.zeros(shape) for name, shape in table}
        for name, (rows, cols) in table[::2]:  # the weights
            limit = np.sqrt(6.0 / (rows + cols))
            params[name] = rng.uniform(-limit, limit, size=(rows, cols))
        model = cls(config, params)
        for L in model.layers:  # gate blocks [i | f | o | g] of fwd, then of bwd
            model.lstm_b[0, L.cols].reshape(2, 4, L.d)[:, 1] = config.forget_bias
        return model

    @property
    def softmax_W(self):
        return self.params["softmax.W"]

    @property
    def softmax_b(self):
        return self.params["softmax.b"]

    def lstm_views(self, W, b):
        """{name: view} of every LSTM weight and bias, in table order, for
        arrays W and b laid out like ``lstm_W`` and ``lstm_b``."""
        views = {}
        for L in self.layers:
            for k, tag in enumerate(("fwd", "bwd")):
                cols = slice(L.cols.start + 4 * L.d * k, L.cols.start + 4 * L.d * (k + 1))
                views[f"{L.name}.{tag}.W"] = W[:L.w + L.d, cols]
                views[f"{L.name}.{tag}.b"] = b[:, cols]
        return views

    def named_params(self):
        """(name, array) pairs in a stable order used by Adam, gradcheck and checkpoints."""
        return list(self.params.items())


def run_depth(dl, dh):
    """The depth a (dl, dh) stack runs at: a zero-width stack adds nothing,
    so it runs at depth 0; any other depth is left for ``validate``."""
    return 0 if dl > 0 and dh == 0 else dl


def count_params(cfg):
    """Trainable values in the recurrent layers of the model ``cfg`` builds:
    the ``param_shapes`` of every layer, without the softmax head."""
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
# A batch is packed once, by ``data.pad_batch``, and stays packed, ``(N, ·)``
# with one row per real token, from the embedding gather through pooling.  The
# layers' hidden states share one packed buffer, each layer's [fwd | bwd]
# states in stack order, so a dense layer reads the earlier layers' states
# as one prefix without a copy (Pleiss et al. 2017, arXiv 1707.06990).  The
# gate values of every layer live in one buffer laid out like the weight
# storage, so the embedding rows of all layers that read the embeddings are
# applied with one wide product (Appleyard et al. 2016, arXiv 1604.01946,
# §3).  Without an embedding-dropout mask that product depends only on the
# token id, so it is formed once per distinct token of the batch and its
# rows are gathered: a batch of SST-like sentences repeats about half of its
# tokens.  The batch holds its distinct tokens, since a pass-wide table over
# a large split would hold every distinct token's gate row at once.
# The backward pass overwrites the gate buffer with the gate gradients and
# forms every layer's embedding-row weight gradient, and the embedding
# gradient, with one product each.


def _embedding_gates(model, x):
    """The embedding part of every layer's gate pre-activations, biases added.

    x holds rows of embeddings, (n, m); the result is (n, sum of 8d) in
    weight-column order, ``x @ lstm_W[:m, E] + lstm_b`` on the columns E of
    the layers that read the embeddings and the bias alone on the rest, in
    the result type of x and the weights.
    """
    m, W, E = model.config.m, model.lstm_W, model.embedded_cols
    gates = np.empty((len(x), W.shape[1]), np.result_type(x, W))
    np.matmul(x, W[:m, E], out=gates[:, E])
    gates[:, E.stop:] = 0.0
    gates += model.lstm_b
    return gates


def average_pool_batch(H, batch):
    """Mean of each sentence's packed hidden vectors: a sum over packed steps."""
    rows, lengths = batch.packing.rows, batch.lengths
    if len(H) != len(rows):
        raise ConfigError(f"average_pool: {len(H)} packed rows for {len(rows)} tokens")
    # every sentence is active at step 0, so its rows list them in packed order
    total = np.zeros((len(lengths), H.shape[1]), H.dtype)
    for lo, hi, _, _ in batch.packing.steps[False]:
        total[:hi - lo] += H[lo:hi]
    pooled = np.empty_like(total)
    pooled[rows[:len(lengths)]] = total
    pooled /= lengths[:, None]  # in place: an integer divisor would promote float32
    return pooled


def softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _dropout_mask(draws, rate):
    """Kept-and-scaled multiplier from uniform draws on [0, 1)."""
    return (draws >= rate) / (1.0 - rate)


# ---------------------------------------------------------------------------
# full model forward / backward


@dataclass
class ModelTrace:
    """What a forward pass keeps for its backward pass.

    Every trace holds the embedding matrix its forward was given, and the
    embedding-dropout mask when there is one, but never a per-token copy of
    the embeddings: the backward pass gathers the batch's rows from that
    matrix and masks them itself.  So change the matrix (an Adam step on
    tuned embeddings) only after the backward pass.
    """

    batch: data.Batch  # the batch run, whose packed layout the backward pass reads
    emb_matrix: np.ndarray  # the forward's embedding matrix, read again by the backward pass
    mask_embed: np.ndarray | None  # (N, m)
    states: np.ndarray  # (N, sum of 2d) every layer's [fwd | bwd] hidden states
    gates: np.ndarray  # (N, sum of 8d) gate values; their gradients after backward
    cells: list  # (Cf, Cb) of every layer, the top layer last
    mask_pool: np.ndarray | None
    pooled_dropped: np.ndarray
    consumed: bool = False  # set by model_backward, which overwrites gates


def _embedded_rows(emb_matrix, batch, mask):
    """The batch's embeddings in packed order, (N, m), times the
    embedding-dropout mask when there is one."""
    rows = emb_matrix[batch.tokens]
    if mask is not None:
        rows *= mask
    return rows


def _embedding_draws(rng, batch, m):
    """The uniform draws ``rng.random((B, T, m))`` at the batch's real tokens,
    in packed order, without drawing the padding; T is the batch's longest
    sentence, so however far a batch is padded it draws the same stream.

    In that padded draw sentence b's real values are the first L_b * m of
    its T * m block.  They are drawn in place and the rest of the block is
    skipped: a PCG64-family generator, which spends one 64-bit output per
    double, jumps over it with ``advance``; any other generator, or one
    holding a buffered 32-bit value that ``advance`` would drop, draws and
    discards it.  Either way the values and the generator's next draw are
    those of the padded draw, bit for bit.
    """
    bg, lengths, T = rng.bit_generator, batch.lengths, int(batch.lengths.max())
    jump = isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM)) and not bg.state["has_uint32"]
    starts = np.cumsum(lengths) - lengths
    draws = np.empty((int(lengths.sum()), m), np.float64)
    for lo, L in zip(starts.tolist(), lengths.tolist()):
        rng.random(out=draws[lo:lo + L])
        if L < T and jump:
            bg.advance((T - L) * m)
        elif L < T:
            rng.random((T - L) * m)
    return draws.take(starts[batch.packing.rows] + batch.packing.ts, axis=0)


def model_forward(model, emb_matrix, batch, rng=None, training=False):
    """Embed -> dropout -> layer stack -> mean pool -> dropout -> softmax.

    With an embedding-dropout mask (training with dropout_embed > 0) the
    embedding part of the gates is one product over the masked tokens.
    Without one it depends only on the token id, so it is formed once per
    distinct token and gathered; the probabilities then agree with the
    per-token product to rounding, not necessarily bit for bit, since a
    row of a matrix product may depend on the other rows of its batch.
    """
    cfg, P, W = model.config, model.params, model.lstm_W
    if training and (cfg.dropout_embed > 0 or cfg.dropout_pool > 0) and rng is None:
        raise ConfigError("training forward with dropout needs an rng")
    if emb_matrix.shape[1] != cfg.m:
        raise ConfigError(f"embedding width {emb_matrix.shape[1]} != configured m {cfg.m}")
    mask_e = None
    if training and cfg.dropout_embed > 0:
        # the padded batch's draws, so seeded runs keep their random stream
        mask_e = _dropout_mask(_embedding_draws(rng, batch, cfg.m), cfg.dropout_embed)
        gates = _embedding_gates(model, _embedded_rows(emb_matrix, batch, mask_e))
    else:
        gates = _embedding_gates(model, emb_matrix[batch.uniq]).take(batch.inv, axis=0, mode="clip")
    # each layer adds in place one product over the states it reads past the
    # embeddings, shared by its two directions, before its kernels run.  A
    # batch of one sentence runs both directions in one loop, which gives the
    # two kernel calls' results bit for bit in half the numpy calls
    states = np.empty((len(gates), model.layers[-1].out.stop), gates.dtype)
    cells = []
    for L in model.layers:
        Z, Y, d = gates[:, L.cols], states[:, L.out], L.d
        if L.rest.start < L.rest.stop:
            Z += states[:, L.rest] @ W[L.rest_rows, L.cols]
        Wf, Wb = P[f"{L.name}.fwd.W"], P[f"{L.name}.bwd.W"]
        if len(batch.lengths) == 1:
            (Y[:, :d], Cf), (Y[:, d:], Cb) = kernels.lstm_pair_forward(Z, Wf, Wb)
        else:
            Y[:, :d], Cf = kernels.lstm_layer_forward(Z[:, :4 * d], batch.packing, Wf, False)
            Y[:, d:], Cb = kernels.lstm_layer_forward(Z[:, 4 * d:], batch.packing, Wb, True)
        cells.append((Cf, Cb))
    pooled = average_pool_batch(states[:, model.layers[-1].out], batch)
    pooled_d, mask_p = pooled, None
    if training and cfg.dropout_pool > 0:
        mask_p = _dropout_mask(rng.random(pooled.shape), cfg.dropout_pool)
        pooled_d = pooled * mask_p
    probs = softmax_rows(pooled_d @ model.softmax_W + model.softmax_b)
    trace = ModelTrace(
        batch=batch,
        emb_matrix=emb_matrix,
        mask_embed=mask_e,
        states=states,
        gates=gates,
        cells=cells,
        mask_pool=mask_p,
        pooled_dropped=pooled_d,
    )
    return probs, trace


def model_backward(model, trace, dlogits, embedding_grad=True):
    """Gradients of every model parameter plus the packed embedding gradient.

    dlogits is the loss gradient at the softmax pre-activations (for mean
    cross-entropy over a batch: (probs - onehot) / B).  The embedding
    gradient has one row per token of ``trace.batch.tokens``; with
    ``embedding_grad`` false it is not formed and None stands in its place,
    the parameter gradients being the same.  The pass overwrites the
    trace's gate values with their gradients, so a trace takes one backward
    pass; a second one raises ``ConfigError``.  The pass gathers the
    batch's embeddings from the matrix the forward was given, and masks
    them, for the embedding-row weight gradients.
    """
    if trace.consumed:
        raise ConfigError("trace already used by a backward pass; run model_forward again")
    trace.consumed = True
    m, P, W = model.config.m, model.params, model.lstm_W
    states, dZ_all, E = trace.states, trace.gates, model.embedded_cols
    packing, lengths = trace.batch.packing, trace.batch.lengths
    grads = {
        "softmax.W": trace.pooled_dropped.T @ dlogits,
        "softmax.b": dlogits.sum(axis=0, keepdims=True),
    }
    dpool = dlogits @ model.softmax_W.T
    if trace.mask_pool is not None:
        dpool = dpool * trace.mask_pool
    dpool /= lengths[:, None]
    # zero but for the top layer's columns; each layer adds its gradient on
    # the states it reads
    dstates = np.zeros_like(states)
    dstates[:, model.layers[-1].out] = dpool[packing.rows]
    dW = np.empty_like(W)  # every row a weight view covers is written below
    for L, (Cf, Cb) in zip(reversed(model.layers), reversed(trace.cells)):
        Y, dY, dZ, d = states[:, L.out], dstates[:, L.out], dZ_all[:, L.cols], L.d
        Wf, Wb, dWh = P[f"{L.name}.fwd.W"], P[f"{L.name}.bwd.W"], dW[L.w:L.w + d, L.cols]
        dWh[:, :4 * d] = kernels.lstm_layer_backward(
            packing, Wf, Y[:, :d], Cf, dZ[:, :4 * d], dY[:, :d], False)
        dWh[:, 4 * d:] = kernels.lstm_layer_backward(
            packing, Wb, Y[:, d:], Cb, dZ[:, 4 * d:], dY[:, d:], True)
        if L.rest.start < L.rest.stop:
            np.matmul(states[:, L.rest].T, dZ, out=dW[L.rest_rows, L.cols])
            dstates[:, L.rest] += dZ @ W[L.rest_rows, L.cols].T
    np.matmul(_embedded_rows(trace.emb_matrix, trace.batch, trace.mask_embed).T,
              dZ_all[:, E], out=dW[:m, E])
    grads.update(model.lstm_views(dW, dZ_all.sum(axis=0, keepdims=True)))
    if not embedding_grad:
        return grads, None
    dEmb = dZ_all[:, E] @ W[:m, E].T
    if trace.mask_embed is not None:
        dEmb *= trace.mask_embed
    return grads, dEmb


def embedding_gradient(trace, dEmb, vocab_size):
    """Scatter a packed embedding gradient onto the rows of the embedding matrix."""
    full = np.zeros((vocab_size, dEmb.shape[1]), dEmb.dtype)
    np.add.at(full, trace.batch.tokens, dEmb)
    return full


# ---------------------------------------------------------------------------
# checkpoint format
#
# Line 1 is the magic "DCBILSTM v1".  A flat text manifest follows (one
# "key value" pair per line, utf-8, keys in ``_MANIFEST_KEYS`` order): every
# ModelConfig field, arch first and the rest in declaration order, written by
# ``format_setting`` and read by ``parse_setting``, then the gate order,
# concat order and seed.  The vocab section follows ("vocab <n>" and n
# tokens, one a line, in id order from 2, as ``data.index_tokens`` numbers
# them), then "tensors <k>" and k blocks of "name rows cols" followed by
# rows*cols little-endian float64 values: the model's tensors in
# ``param_shapes`` order, then "embeddings", n + 2 rows (padding, unknown,
# then the tokens) of m columns.  The reader reads this one sequence and
# nothing else.  Round-trips are bitwise stable.

_SETTINGS = sorted(fields(ModelConfig), key=lambda f: f.name != "arch")
_MANIFEST_KEYS = [*(f.name for f in _SETTINGS), "gate_order", "concat_order", "seed"]


def save_checkpoint(path, model, seed, vocab, emb_matrix):
    """Write model, seed, vocab and emb_matrix to path, in the format above.

    vocab maps each token to its row of emb_matrix, ids 2 and up as
    ``data.build_vocab`` numbers them; a model scores text only through both.
    Ids that are not 2..n+1, an emb_matrix that is not (n + 2, m), a
    negative seed or a complex tensor raise ``CheckpointError`` naming path,
    and nothing is written.  Every tensor is written as float64, which
    holds a float32 value exactly.
    """
    cfg = model.config
    tensors = [*model.named_params(), ("embeddings", emb_matrix)]
    try:
        tokens = _vocab_tokens(vocab, emb_matrix, cfg.m)
        seed = _read_count(str(int(seed)), "seed")  # as load_checkpoint reads it
        for name, arr in tensors:
            if np.iscomplexobj(arr):  # "<f8" would drop the imaginary parts
                raise CheckpointError(f"tensor {name} is complex; a checkpoint holds real values")
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    values = [*(format_setting(getattr(cfg, f.name)) for f in _SETTINGS),
              GATE_ORDER, CONCAT_ORDER, seed]
    lines = [CHECKPOINT_MAGIC,
             *(f"{key} {value}" for key, value in zip(_MANIFEST_KEYS, values, strict=True)),
             f"vocab {len(tokens)}", *tokens, f"tensors {len(tensors)}"]

    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name, arr in tensors:
            fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n".encode("utf-8"))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _vocab_tokens(vocab, emb_matrix, m):
    """vocab's tokens in id order, if the ids are 2..n+1 and emb_matrix has
    a row for each id and m columns; else CheckpointError."""
    tokens = sorted(vocab, key=vocab.get)
    if data.index_tokens(tokens) != vocab:
        raise CheckpointError(f"vocab ids are not 2..{len(tokens) + 1}, one per token")
    if emb_matrix.shape != (len(tokens) + 2, m):
        raise CheckpointError(f"embeddings are {'x'.join(map(str, emb_matrix.shape))}, not the "
                              f"{len(tokens) + 2}x{m} of {len(tokens)} tokens and m = {m}")
    return tokens


def _read_line(fh, what):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    try:
        return line[:-1].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not utf-8 text")


def _read_value(fh, key):
    """The value of the next line, which must be "key value"."""
    found, _, value = _read_line(fh, key).partition(" ")
    if found != key:
        raise CheckpointError(f"expected key {key!r}, got {found!r}")
    return value


def _read_count(text, what):
    """A count from the checkpoint's text part, by ``data.parse_count``'s rule."""
    count = data.parse_count(text)
    if count is None:
        raise CheckpointError(f"{what} {text!r} is not a non-negative integer")
    return count


def load_checkpoint(path):
    """Returns (model, meta), meta holding "seed", "vocab" and "emb_matrix".

    Any defect of the file, a bad setting or a tensor that does not fit the
    settings included, raises ``CheckpointError`` naming the file.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _read_checkpoint(fh):
    if _read_line(fh, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a {CHECKPOINT_MAGIC} checkpoint")
    *setting_texts, gate_order, concat_order, seed_text = [_read_value(fh, key)
                                                           for key in _MANIFEST_KEYS]
    settings = {}
    for f, text in zip(_SETTINGS, setting_texts):
        try:
            settings[f.name] = parse_setting(f.type, text)
        except ValueError as exc:
            raise CheckpointError(f"bad value for {f.name}: {exc}")
    cfg = ModelConfig(**settings).validate()
    if (gate_order, concat_order) != (GATE_ORDER, CONCAT_ORDER):
        raise CheckpointError("incompatible gate/concat order")
    seed = _read_count(seed_text, "seed")
    tokens = [_read_line(fh, "vocab token")
              for _ in range(_read_count(_read_value(fh, "vocab"), "vocab size"))]
    vocab = data.index_tokens(tokens)
    if len(vocab) < len(tokens):
        raise CheckpointError(f"vocab ids are not 2..{len(vocab) + 1}, one per token")
    # four tensors a layer, dl + 1 layers, the softmax head's two and the
    # embeddings: checked before param_shapes builds a layout of that depth
    k = 4 * (cfg.dl + 1) + 3
    if (count := _read_value(fh, "tensors")) != str(k):
        raise CheckpointError(f"expected {k} tensors for dl = {cfg.dl}, got {count!r}")
    params = {}
    for name, (rows, cols) in [*param_shapes(cfg), ("embeddings", (len(tokens) + 2, cfg.m))]:
        header = _read_line(fh, "tensor header")
        if header != f"{name} {rows} {cols}":
            raise CheckpointError(f"expected tensor header '{name} {rows} {cols}', got {header!r}")
        # read in 16 MiB pieces: the settings may give any size, and a pipe has no size to check
        nbytes, buf = rows * cols * 8, bytearray()
        while len(buf) < nbytes and (chunk := fh.read(min(nbytes - len(buf), 1 << 24))):
            buf += chunk
        if len(buf) < nbytes:
            raise CheckpointError(f"truncated tensor {name}: {rows}x{cols} needs {nbytes} "
                                  f"bytes, {len(buf)} are left")
        params[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(rows, cols)
        if not np.isfinite(params[name]).all():
            raise CheckpointError(f"tensor {name} holds non-finite values")
    if fh.read(1):
        raise CheckpointError("trailing bytes after last tensor")
    emb_matrix = params.pop("embeddings")
    return Model(cfg, params), {"seed": seed, "vocab": vocab, "emb_matrix": emb_matrix}
