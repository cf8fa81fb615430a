"""Cell-level contracts: the step oracle against hand-computed values and
finite differences, then the layer kernels against the oracle."""

import numpy as np
import pytest

from dcbilstm import kernels
from dcbilstm.model import Model, ModelConfig
from lstm_oracle import CellParams, lstm_step, lstm_step_backward

# Scalar hand case, d = 1, input_dim = 1, every weight 0.5, bias 0, x = 1,
# zero initial state.  All four pre-activations equal 0.5, so with
# sigm(0.5) and tanh(0.5) from a 30-digit evaluation:
#   i = f = o = 0.62245933120185456464
#   g =         0.46211715726000975850
#   c = i*g =   0.28764913664496792492
#   h = o*tanh(c) = 0.17426971865610505882
HAND = {
    "gate": 0.62245933120185456464,
    "g": 0.46211715726000975850,
    "c": 0.28764913664496792492,
    "h": 0.17426971865610505882,
}


def _scalar_params():
    return CellParams(W=np.full((2, 4), 0.5), b=np.zeros((1, 4)))


def test_step_scalar_hand_case():
    p = _scalar_params()
    h, c, cache = lstm_step(p, np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert abs(cache.i[0, 0] - HAND["gate"]) < 1e-15
    assert abs(cache.f[0, 0] - HAND["gate"]) < 1e-15
    assert abs(cache.o[0, 0] - HAND["gate"]) < 1e-15
    assert abs(cache.g[0, 0] - HAND["g"]) < 1e-15
    assert abs(c[0, 0] - HAND["c"]) < 1e-15
    assert abs(h[0, 0] - HAND["h"]) < 1e-15


def test_step_zero_input_zero_state():
    # all pre-activations 0: gates 0.5, candidate 0, so c = 0 and h = 0
    p = CellParams(W=np.zeros((5, 8)), b=np.zeros((1, 8)))
    h, c, cache = lstm_step(p, np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)))
    assert np.array_equal(h, np.zeros((1, 2)))
    assert np.array_equal(c, np.zeros((1, 2)))
    assert np.array_equal(cache.i, np.full((1, 2), 0.5))


def test_step_shape_validation():
    p = CellParams(W=np.zeros((5, 8)), b=np.zeros((1, 8)))
    with pytest.raises(ValueError):
        lstm_step(p, np.zeros((1, 4)), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        lstm_step(p, np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 2)))


def test_init_forget_bias_block():
    cfg = ModelConfig(m=3, dl=0, dh=0, th=4, num_classes=2, forget_bias=1.5)
    model = Model.build(cfg, np.random.default_rng(0))
    p = CellParams(W=model.params["top.fwd.W"], b=model.params["top.fwd.b"])
    assert np.array_equal(p.b[0, 4:8], np.full(4, 1.5))
    assert np.array_equal(p.b[0, :4], np.zeros(4))
    assert np.array_equal(p.b[0, 8:], np.zeros(8))
    assert p.d == 4 and p.input_dim == 3


def _fd_step_grads(p, x, h_prev, c_prev, alpha, beta, eps=1e-6):
    """Central differences of loss = sum(alpha*h) + sum(beta*c)."""

    def loss():
        h, c, _ = lstm_step(p, x, h_prev, c_prev)
        return float((alpha * h).sum() + (beta * c).sum())

    grads = {}
    for name, arr in (("W", p.W), ("b", p.b), ("x", x), ("h_prev", h_prev), ("c_prev", c_prev)):
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            up = loss()
            flat[k] = keep - eps
            down = loss()
            flat[k] = keep
            gflat[k] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


def _assert_close(analytic, numeric, tol_rel, tol_abs, ctx):
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    bad = ~((diff / denom <= tol_rel) | (diff <= tol_abs))
    assert not bad.any(), f"{ctx}: worst rel {(diff / denom).max():.3e}"


def test_step_backward_matches_finite_differences():
    # every returned gradient within 1e-6 relative (1e-10 absolute floor for
    # elements where the central difference itself is below noise)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        input_dim = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        p = CellParams.init(input_dim, d, rng)
        x = rng.standard_normal((1, input_dim))
        h_prev = 0.5 * rng.standard_normal((1, d))
        c_prev = 0.5 * rng.standard_normal((1, d))
        alpha = rng.standard_normal((1, d))
        beta = rng.standard_normal((1, d))

        _, _, cache = lstm_step(p, x, h_prev, c_prev)
        dW, db, dx, dh_prev, dc_prev = lstm_step_backward(p, cache, alpha, beta)
        fd = _fd_step_grads(p, x, h_prev, c_prev, alpha, beta)
        for got, name in ((dW, "W"), (db, "b"), (dx, "x"), (dh_prev, "h_prev"), (dc_prev, "c_prev")):
            _assert_close(got, fd[name], 1e-6, 1e-10, f"seed {seed} {name}")


def test_step_backward_rejects_bad_grad_shape():
    p = CellParams.init(2, 3, np.random.default_rng(1))
    _, _, cache = lstm_step(p, np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        lstm_step_backward(p, cache, np.zeros((1, 2)), np.zeros((1, 3)))


def project(X, W, b):
    """The input pre-activations the model hands the forward kernel."""
    return X @ W[:X.shape[1]] + b


def forward_padded(X, lengths, W, b, reverse):
    """The forward kernel on a padded (B, T, Din) batch, packed with the
    package's own packing; returns padded (H, C, G), zero at padding."""
    P = kernels.pack(lengths)
    G = project(X[P.rows, P.ts], W, b)
    H, C = kernels.lstm_layer_forward(G, P, W, reverse)
    return tuple(unpack(a, P, X.shape[:2]) for a in (H, C, G))


def backward_padded(X, lengths, W, H, C, G, dH, reverse):
    """The backward kernel on padded arrays, completed with the input-side
    products the model forms from its dZ; returns (dW, db, padded dX)."""
    P = kernels.pack(lengths)
    Xp = X[P.rows, P.ts]
    Din = Xp.shape[1]
    dZ = G[P.rows, P.ts]
    dW = np.empty_like(W)
    dW[Din:] = kernels.lstm_layer_backward(P, W, H[P.rows, P.ts], C[P.rows, P.ts], dZ,
                                           dH[P.rows, P.ts], reverse)
    dW[:Din] = Xp.T @ dZ
    return dW, dZ.sum(axis=0), unpack(dZ @ W[:Din].T, P, X.shape[:2])


def unpack(a, P, shape):
    out = np.zeros(shape + a.shape[1:])
    out[P.rows, P.ts] = a
    return out


def run_sentence(p, X, length, reverse):
    """Hidden states (T, d) of one direction over one (T, input_dim) sentence."""
    H, _, _ = forward_padded(X[None], np.array([length], dtype=np.int64), p.W, p.b[0], reverse)
    return H[0]


def test_run_direction_matches_composed_steps():
    """The layer kernel must agree with a plain chain of lstm_step calls.

    Not bitwise: the kernel folds the input transform into one matrix
    product, which reorders the summation, so compare at 1e-12.
    """
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        input_dim, d, T = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        p = CellParams.init(input_dim, d, rng)
        X = rng.standard_normal((T, input_dim))

        out = run_sentence(p, X, T, reverse=False)
        h = np.zeros((1, d))
        c = np.zeros((1, d))
        for t in range(T):
            h, c, _ = lstm_step(p, X[t:t + 1], h, c)
            assert np.abs(out[t] - h[0]).max() < 1e-12, f"seed {seed} position {t}"

        out_b = run_sentence(p, X, T, reverse=True)
        h = np.zeros((1, d))
        c = np.zeros((1, d))
        for t in range(T - 1, -1, -1):
            h, c, _ = lstm_step(p, X[t:t + 1], h, c)
            assert np.abs(out_b[t] - h[0]).max() < 1e-12


def test_reversal_duality_bitwise():
    # backward run == forward run on the reversed sequence, read backwards
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        input_dim, d, T = int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(1, 12))
        p = CellParams.init(input_dim, d, rng)
        X = rng.standard_normal((T, input_dim))
        bwd = run_sentence(p, X, T, reverse=True)
        fwd_rev = run_sentence(p, X[::-1], T, reverse=False)
        for t in range(T):
            assert np.array_equal(bwd[t], fwd_rev[T - 1 - t]), f"seed {seed} t={t}"


def test_run_direction_padding_left_untouched():
    rng = np.random.default_rng(9)
    p = CellParams.init(3, 2, rng)
    X = rng.standard_normal((6, 3))
    for reverse in (False, True):
        out = run_sentence(p, X, 4, reverse)
        assert np.array_equal(out[4:], np.zeros((2, 2)))
        # and the first 4 equal the unpadded run exactly
        assert np.array_equal(out[:4], run_sentence(p, X[:4], 4, reverse))

    # the same holds row by row in a mixed-length batch padded further
    lengths = np.array([4, 2, 6], dtype=np.int64)
    Xb = rng.standard_normal((3, 6, 3))
    Xpad = np.concatenate([Xb, rng.standard_normal((3, 3, 3))], axis=1)
    for reverse in (False, True):
        tight = forward_padded(Xb, lengths, p.W, p.b[0], reverse)
        loose = forward_padded(Xpad, lengths, p.W, p.b[0], reverse)
        for a, b in zip(tight, loose):
            assert np.array_equal(b[:, :6], a)
            assert not b[:, 6:].any()


def test_kernel_rows_do_not_interact():
    """The kernels reorder rows by length internally; a batch must still
    equal its sentences run one at a time, with padding exactly zero."""
    rng = np.random.default_rng(31)
    lengths = np.array([1, 7, 3, 7, 1, 5], dtype=np.int64)
    B, T, Din, d = len(lengths), int(lengths.max()), 5, 4
    real = (np.arange(T) < lengths[:, None])[:, :, None]
    X = rng.standard_normal((B, T, Din)) * real
    dH = rng.standard_normal((B, T, d)) * real
    W = 0.4 * rng.standard_normal((Din + d, 4 * d))
    b = 0.1 * rng.standard_normal(4 * d)
    for reverse in (False, True):
        H, C, G = forward_padded(X, lengths, W, b, reverse)
        dW, db, dX = backward_padded(X, lengths, W, H, C, G, dH, reverse)
        for out in (H, C, G, dX):
            assert not (out * ~real).any()
        dW_sum, db_sum = np.zeros_like(dW), np.zeros_like(db)
        for n, L in enumerate(lengths):
            one = lengths[n:n + 1]
            Hn, Cn, Gn = forward_padded(X[n:n + 1, :L], one, W, b, reverse)
            for got, want in ((H, Hn), (C, Cn), (G, Gn)):
                assert np.abs(got[n, :L] - want[0]).max() < 1e-12, (reverse, n)
            dWn, dbn, dXn = backward_padded(
                X[n:n + 1, :L], one, W, Hn, Cn, Gn, dH[n:n + 1, :L], reverse
            )
            assert np.abs(dX[n, :L] - dXn[0]).max() < 1e-12, (reverse, n)
            dW_sum += dWn
            db_sum += dbn
        assert np.abs(dW - dW_sum).max() < 1e-12
        assert np.abs(db - db_sum).max() < 1e-12


def test_kernels_work_in_place_on_strided_views():
    """Both kernels run on column views of wider buffers, as the model
    calls them: the forward kernel turns a view of pre-activations into
    gate values in place, the backward kernel overwrites that view with dZ
    and reads H and dH from views, leaving dH untouched.  Columns beside
    the views are never written, the weights (a view of wider storage, as
    the model's are) are never written at all, and every result equals the
    one computed on contiguous copies, bit for bit."""
    rng = np.random.default_rng(32)
    lengths = np.array([4, 1, 6, 3], dtype=np.int64)
    P = kernels.pack(lengths)
    N, Din, d = len(P.rows), 5, 3
    M = rng.standard_normal((N, Din + 7))
    W = 0.4 * rng.standard_normal((Din + d, 4 * d))
    b = 0.1 * rng.standard_normal(4 * d)
    gate_cols = slice(2, 2 + 4 * d)
    storage = np.full((Din + d + 1, 4 * d + 5), 7.0)
    storage[:Din + d, gate_cols] = W
    storage_before = storage.copy()
    for reverse in (False, True):
        wide = rng.standard_normal((N, 4 * d + 5))
        wide[:, gate_cols] = project(M[:, :Din], W, b)
        before = wide.copy()
        G = project(M[:, :Din].copy(), W, b)
        H, C = kernels.lstm_layer_forward(wide[:, gate_cols], P, storage[:Din + d, gate_cols],
                                          reverse)
        assert storage.tobytes() == storage_before.tobytes()
        H2, C2 = kernels.lstm_layer_forward(G, P, W, reverse)
        assert np.array_equal(H, H2) and np.array_equal(C, C2)
        assert np.array_equal(wide[:, gate_cols], G)
        outside = np.ones(wide.shape[1], dtype=bool)
        outside[gate_cols] = False
        assert np.array_equal(wide[:, outside], before[:, outside])

        Hwide = rng.standard_normal((N, d + 2))
        Hwide[:, 1:1 + d] = H
        dM = rng.standard_normal((N, Din + 2 * d))
        before_dM = dM.copy()
        dWh = kernels.lstm_layer_backward(P, W, Hwide[:, 1:1 + d], C, wide[:, gate_cols],
                                          dM[:, Din:Din + d], reverse)
        dWh2 = kernels.lstm_layer_backward(P, W, H, C, G, dM[:, Din:Din + d].copy(), reverse)
        assert np.array_equal(dM, before_dM)
        assert np.array_equal(wide[:, gate_cols], G)
        assert np.array_equal(wide[:, outside], before[:, outside])
        assert np.array_equal(dWh, dWh2)


@pytest.mark.parametrize("d", [1, 4, 13, 50])
@pytest.mark.parametrize("T", [1, 2, 5, 19])
def test_pair_kernel_equals_two_direction_calls_bitwise(d, T):
    """One sentence's two directions run in lockstep give what the two
    per-direction calls give, bit for bit: the states and cells, and the
    gate values left in the layer's column view, whose neighbours and the
    weights are never written."""
    rng = np.random.default_rng(34 + d + T)
    Din, cols = 7, slice(3, 3 + 8 * d)
    wide = rng.standard_normal((T, 8 * d + 5))
    storage = 0.5 * rng.standard_normal((Din + d + 2, 8 * d + 4))
    W = storage[:Din + d, 2:2 + 8 * d]
    Wf, Wb = W[:, :4 * d], W[:, 4 * d:]
    storage_before = storage.copy()
    P = kernels.pack(np.array([T], dtype=np.int64))
    want = wide.copy()
    fwd = kernels.lstm_layer_forward(want[:, 3:3 + 4 * d], P, Wf, False)
    bwd = kernels.lstm_layer_forward(want[:, 3 + 4 * d:3 + 8 * d], P, Wb, True)
    got = kernels.lstm_pair_forward(wide[:, cols], Wf, Wb)
    for (h, c), (h2, c2) in zip(got, (fwd, bwd)):
        assert h.shape == c.shape == (T, d)
        assert np.array_equal(h, h2) and np.array_equal(c, c2)
    assert wide.tobytes() == want.tobytes()
    assert storage.tobytes() == storage_before.tobytes()


def _brute_force_schedule(P, sizes, reverse):
    """Each step's rows and the rows that feed them, found entry by entry:
    the predecessor of (sentence r, position t) is (r, t - 1) going
    forward and (r, t + 1) in reverse.  A step without one reads (0, 0).
    Step t holds sizes[t] entries, after those of the steps before it."""
    where = {(int(r), int(t)): e for e, (r, t) in enumerate(zip(P.rows, P.ts))}
    starts = np.cumsum([0] + sizes).tolist()
    out = []
    for t in (range(len(sizes) - 1, -1, -1) if reverse else range(len(sizes))):
        lo, hi = starts[t], starts[t + 1]
        fed = [where.get((int(P.rows[e]), t + (1 if reverse else -1))) for e in range(lo, hi)]
        kp = sum(e is not None for e in fed)
        plo = fed[0] if kp else 0
        # the fed rows are a prefix, read from consecutive rows of one step
        assert fed == list(range(plo, plo + kp)) + [None] * (hi - lo - kp)
        out.append((lo, hi, plo, kp))
    return out


def test_pack_steps_match_the_brute_force_predecessor():
    rng = np.random.default_rng(33)
    cases = [[5, 3, 3, 1, 5, 2, 3], [19], [1], [1, 4, 1, 4]]
    cases += [rng.integers(1, 9, size=int(rng.integers(1, 12))) for _ in range(20)]
    for lengths in cases:
        lengths = np.array(lengths, dtype=np.int64)
        P = kernels.pack(lengths)
        # the sentences still running at each position
        sizes = [int((lengths > t).sum()) for t in range(lengths.max())]
        for reverse in (False, True):
            assert P.steps[reverse] == _brute_force_schedule(P, sizes, reverse), (lengths, reverse)
            # step t-1 feeds the first sizes[t] rows of step t; in reverse,
            # step t+1 feeds the first sizes[t+1]; the end steps have none
            fed = [0] + (sizes[:0:-1] if reverse else sizes[1:])
            assert [kp for *_, kp in P.steps[reverse]] == fed

