"""Hot sequence kernels: full forward / backward recurrences of one LSTM
direction over a packed batch, and the forward of both directions over one
sentence.

These are the inner loops of the whole package.  ``data.pad_batch`` packs a
batch once, time-major (Appleyard et al. 2016, §3): rows are ordered by
decreasing length, so the sentences still running at position ``t`` are a
prefix of that order, and the real tokens of step ``t`` sit in one contiguous
block of ``(N, ·)`` arrays, ``N`` being the batch's token count.  The kernels
cover the recurrence only: the caller projects the inputs of every token
(``model.model_forward`` does it for all layers at once) and hands over
the pre-activations; each step then advances every active sentence with
one ``(k_t, d) @ (d, 4d)`` product.  The reverse direction runs the
same loop from the last step down: a sentence joins at ``t = L-1`` with a
zero state, which is simply the absence of a predecessor row.

Conventions shared with the rest of the package:
  - weights ``W`` of shape ``(input_dim + d, 4d)`` act on ``[x; h_prev]``;
    the kernels read only the recurrent rows ``W[input_dim:]``;
  - the ``4d`` axis is sliced in the fixed gate order ``[i | f | o | g]``;
  - initial hidden and cell states are exactly zero;
  - padding is never packed, so a sentence's outputs do not depend on how
    far its batch is padded, bit for bit;
  - every buffer a kernel allocates takes the dtype of the arrays it is
    handed, so a float32 or complex model runs the same loops as a float64
    one.

The gate-value array ``G`` stores the activated gates.  Sigmoids are
``0.5 * (tanh(z/2) + 1)``, which saturates without overflow.  The forward
kernel halves the i/f/o pre-activations once for all tokens before its
loop, and the same columns of a copy of the recurrent rows, so a step runs
one ``tanh`` over all 4d columns.  Halving is exact in binary floating point
(barring subnormals), so ``x/2 + h @ (W/2)`` is ``(x + h @ W)/2`` bit for bit.

The backward kernel first turns the gate values into the derivatives that
do not depend on the carried gradients dh and dc, about twenty elementwise
passes.  The gates are a column view of the model's whole gate buffer (640
columns at the paper's SST-2 cell), so each row of them is a short stretch
of a long stride.  ``_gate_derivatives`` runs those passes over blocks of
``BLOCK // d`` rows, which stay in cache from one pass to the next, and
writes every result with ``out=`` through two block-sized scratch arrays
instead of allocating a temporary per pass.  Every value goes through the
same operations in the same order as in the whole-array expressions, so
the results are theirs bit for bit.

A batch of one sentence, as finite differences score, takes
``lstm_pair_forward`` instead of two ``lstm_layer_forward`` calls.  There
each direction has exactly one row per step, and a step costs about ten
numpy calls of under a microsecond of work each, so the time is dispatch.
The paired kernel runs step t of the forward direction and step T-1-t of
the reverse one as one ``(2, 4d)`` block: one batched ``(2, 1, d) @ (2, d,
4d)`` product and one call per elementwise op.  The result is bit for bit
that of the two calls: numpy computes each of the two products as it
computes a lone ``(1, d) @ (d, 4d)`` one, and every other op is elementwise,
in the same order.  Larger batches keep the per-direction kernel, whose
steps already have many rows: there the two directions' steps differ in
size and would have to be gathered.
"""

from typing import NamedTuple

import numpy as np


class Packing(NamedTuple):
    """Packed time-major layout of a batch, which ``data.pad_batch`` stores.

    Packed entry ``e`` is position ``ts[e]`` of sentence ``rows[e]``; the
    entries of a step are consecutive, sentences in decreasing length.
    ``steps[reverse]`` is the schedule of one direction: a ``(lo, hi, plo,
    kp)`` per step in the order its forward pass visits them, the step's
    rows being ``lo:hi``, the first ``kp`` of which are fed by the rows
    ``plo:plo + kp`` of the step visited before.
    """

    rows: np.ndarray
    ts: np.ndarray
    steps: tuple


def pack(lengths):
    """The packed layout of a batch with the given (B,) true lengths."""
    order = np.argsort(-lengths, kind="stable")
    positions = np.arange(int(lengths.max(initial=0)))
    active = lengths[order][None, :] > positions[:, None]
    ts, slots = np.nonzero(active)
    sizes = active.sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    s, k = starts.tolist() + [0], sizes.tolist() + [0]  # steps -1 and L: empty
    fwd = [(s[t], s[t] + k[t], s[t - 1], min(k[t], k[t - 1])) for t in range(len(sizes))]
    bwd = [(s[t], s[t] + k[t], s[t + 1], min(k[t], k[t + 1]))
           for t in range(len(sizes) - 1, -1, -1)]
    return Packing(order[slots], ts, (fwd, bwd))


def lstm_layer_forward(Z, packing, W, reverse):
    """Run one direction of an LSTM layer over every sentence of a batch.

    Z:       (N, 4d), each packed token's input pre-activations
             ``x @ W[:Din] + b``; a column view of a wider buffer is fine.
             The recurrent terms are added in place, and Z ends holding
             the activated gate values the backward pass reads.
    packing: the batch's ``Packing``
    W:       (Din + d, 4d); only the recurrent rows ``W[Din:]`` are read
    reverse: False processes positions 0..L-1, True processes L-1..0

    Returns packed (H, C): hidden states (N, d) and cell states (N, d).
    """
    d = W.shape[1] // 4
    Wh = W[-d:].copy()
    Wh[:, :3 * d] *= 0.5
    Z[:, :3 * d] *= 0.5
    H = np.empty((len(Z), d), Z.dtype)
    C = np.empty((len(Z), d), Z.dtype)
    Zs, Zi, Zf, Zo, Zg = Z[:, :3 * d], Z[:, :d], Z[:, d:2 * d], Z[:, 2 * d:3 * d], Z[:, 3 * d:]
    for lo, hi, plo, kp in packing.steps[reverse]:
        z = Z[lo:hi]
        z[:kp] += H[plo:plo + kp] @ Wh
        np.tanh(z, out=z)
        s = Zs[lo:hi]
        s += 1.0
        s *= 0.5
        c = C[lo:hi]
        np.multiply(Zi[lo:hi], Zg[lo:hi], out=c)
        c[:kp] += Zf[lo:lo + kp] * C[plo:plo + kp]
        h = H[lo:hi]
        np.tanh(c, out=h)
        h *= Zo[lo:hi]
    return H, C


def lstm_pair_forward(Z, Wf, Wb):
    """Run both directions of an LSTM layer over one sentence, in lockstep.

    Z:      (T, 8d), the sentence's [fwd | bwd] input pre-activations
            in token order; a column view of a wider buffer is fine.  It
            ends holding the activated gate values, as two
            ``lstm_layer_forward`` calls leave them.
    Wf, Wb: (Din + d, 4d) weights of the two directions; only the
            recurrent rows are read

    Returns ((Hf, Cf), (Hb, Cb)), each (T, d): what the forward and the
    reverse ``lstm_layer_forward`` call return, bit for bit.
    """
    T, d = len(Z), Wf.shape[1] // 4
    # step t holds the fwd gates of token t and the bwd gates of token T-1-t
    G = np.empty((T, 2, 1, 4 * d), Z.dtype)
    G[:, 0, 0] = Z[:, :4 * d]
    G[:, 1, 0] = Z[::-1, 4 * d:]
    G[..., :3 * d] *= 0.5
    Wh = np.stack((Wf[-d:], Wb[-d:]))
    Wh[..., :3 * d] *= 0.5
    H = np.empty((T, 2, 1, d), Z.dtype)
    C = np.empty((T, 2, 1, d), Z.dtype)
    Gs, Gi, Gf, Go, Gg = (G[..., :3 * d], G[..., :d], G[..., d:2 * d], G[..., 2 * d:3 * d],
                          G[..., 3 * d:])
    for t in range(T):
        g = G[t]
        if t:
            g += H[t - 1] @ Wh
        np.tanh(g, out=g)
        s = Gs[t]
        s += 1.0
        s *= 0.5
        c = C[t]
        np.multiply(Gi[t], Gg[t], out=c)
        if t:
            c += Gf[t] * C[t - 1]
        h = H[t]
        np.tanh(c, out=h)
        h *= Go[t]
    Z[:, :4 * d] = G[:, 0, 0]
    Z[::-1, 4 * d:] = G[:, 1, 0]
    return ((H[:, 0, 0], C[:, 0, 0].copy()),
            (H[::-1, 1, 0], C[::-1, 1, 0].copy()))


def lstm_layer_backward(packing, W, H, C, G, dH, reverse):
    """Reverse-mode pass matching ``lstm_layer_forward``; backpropagation
    through time in the packed layout.

    G holds the gate values the forward pass left in its Z.  They are
    overwritten with the loss gradient w.r.t. every token's gate
    pre-activations, dZ (N, 4d), from which the caller forms the bias,
    input-row weight and input gradients.  dH, the loss gradient w.r.t.
    every packed hidden state, is read, not written.  Returns the gradient
    of the recurrent rows ``W[Din:]`` (d, 4d), accumulated over all tokens.

    Steps are visited opposite to the forward consumption order while
    carrying the recurrent gradients dh and dc.  Everything that does not
    depend on them is computed before the loop by ``_gate_derivatives``,
    in row blocks that stay in cache.
    """
    steps = packing.steps[reverse]
    N, d = len(G), W.shape[1] // 4
    WhT = np.ascontiguousarray(W[-d:].T)
    # (h, c) of each token's predecessor, zero where a sentence starts
    Hprev = np.zeros((N, d), H.dtype)
    Cprev = np.zeros((N, d), C.dtype)
    for lo, _, plo, kp in steps:
        Hprev[lo:lo + kp] = H[plo:plo + kp]
        Cprev[lo:lo + kp] = C[plo:plo + kp]
    f_gate, dc_dh = _gate_derivatives(G, C, Cprev)
    del Cprev
    dZ = G.reshape(N, 4, d)  # splitting the gate axis is a view, never a copy
    # gradients carried to the first rows of the next step visited
    dh_rec = dc_rec = np.zeros((0, d), G.dtype)
    for lo, hi, _, kp in reversed(steps):
        dh = dH[lo:hi].copy()
        dh[:len(dh_rec)] += dh_rec
        dc = dh * dc_dh[lo:hi]
        dc[:len(dc_rec)] += dc_rec
        dz = dZ[lo:hi]
        dz[:, :2] *= dc[:, None, :]
        dz[:, 2] *= dh
        dz[:, 3] *= dc
        dh_rec = dz[:kp].reshape(kp, 4 * d) @ WhT
        dc_rec = dc[:kp] * f_gate[lo:lo + kp]
    return Hprev.T @ G


# values per scratch array of ``_gate_derivatives`` (128 KiB), so a block of
# rows of every operand it reads and writes stays in a core's cache; sized
# with benchmarks/kernels.py on both perfbench workloads
BLOCK = 1 << 14


def _gate_derivatives(G, C, Cprev):
    """Write the gate derivatives that do not depend on dh and dc over G.

    G:     (N, 4d) gate values ``[i | f | o | g]``, a column view of a
           wider buffer as the model passes it.  It becomes
           ``[g i (1-i) | c' f (1-f) | tanh(c) o (1-o) | i (1-g^2)]``;
           the backward loop scales the o block by dh and the rest
           by dc.
    C:     (N, d) cell states; Cprev (N, d) each token's predecessor's,
           zero where a sentence starts.

    Returns (f_gate, dc_dh), each (N, d): the forget gates, which the loop
    still reads, and ``o (1 - tanh(c)^2)``.  Rows are taken ``BLOCK // d``
    at a time (see the module docstring).  Each value goes through the
    operations its formula above spells, in the order a whole-array numpy
    expression of it runs them, so the results are that expression's bit
    for bit.
    """
    N, d = C.shape
    rows = max(1, BLOCK // d)
    f_gate, dc_dh = np.empty((N, d), G.dtype), np.empty((N, d), G.dtype)
    s_buf, u_buf = np.empty((min(rows, N), d), G.dtype), np.empty((min(rows, N), d), G.dtype)
    for a in range(0, N, rows):
        b = min(a + rows, N)
        i, f, o, g = (G[a:b, k * d:(k + 1) * d] for k in range(4))
        s, u = s_buf[:b - a], u_buf[:b - a]
        np.tanh(C[a:b], out=s)  # tanh(c)
        np.multiply(s, s, out=u)
        np.subtract(1.0, u, out=u)
        np.multiply(o, u, out=dc_dh[a:b])  # o (1 - tanh(c)^2)
        np.subtract(1.0, o, out=u)
        np.multiply(s, o, out=s)
        np.multiply(s, u, out=o)  # tanh(c) o (1 - o)
        f_gate[a:b] = f
        np.subtract(1.0, f, out=u)
        np.multiply(Cprev[a:b], f, out=s)
        np.multiply(s, u, out=f)  # c' f (1 - f)
        np.multiply(g, i, out=s)
        np.subtract(1.0, i, out=u)
        np.multiply(s, u, out=s)  # g i (1 - i)
        np.multiply(g, g, out=u)
        np.subtract(1.0, u, out=u)
        np.multiply(i, u, out=g)  # i (1 - g^2)
        i[...] = s
    return f_gate, dc_dh
