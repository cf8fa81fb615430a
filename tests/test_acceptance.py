"""Release gate: one test per acceptance criterion, run in order.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion.  Each test also prints the measured quantity it gates on, so
`-s` turns the run into a small release report.  The last two criteria
need corpora that cannot ship with the repository; they skip with
instructions unless environment variables point at local copies:

    DCBILSTM_DATA_DIR      directory holding the raw corpora, laid out as
                           sst/{train,dev,test}.txt   (PTB-style trees)
                           mr/rt-polarity.pos, mr/rt-polarity.neg
                           subj/quote.tok.gt9.5000, subj/plot.tok.gt9.5000
    DCBILSTM_GLOVE         path to a 300-dim embedding text file
    DCBILSTM_RUN_EXTENDED  set to 1 to enable the long accuracy run
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from dcbilstm import kernels
from dcbilstm.cli import main
from dcbilstm.data import load_dataset, pad_batch
from dcbilstm.gradcheck import check_model
from dcbilstm.model import (
    Model,
    ModelConfig,
    count_params,
    format_param_count,
    model_forward,
)
from dcbilstm.train import TrainConfig, train

from conftest import _toy_corpus_lines
from lstm_oracle import CellParams

# Every published (dl, dh, th) cell at m=300, with its exact parameter
# count and the 0.01M string the count must print as.
PARAM_TABLE = [
    (0, 10, 300, 1_442_400, "1.44M"),
    (5, 40, 100, 1_442_400, "1.44M"),
    (10, 20, 100, 1_442_400, "1.44M"),
    (15, 13, 100, 1_406_560, "1.40M"),
    (20, 10, 100, 1_442_400, "1.44M"),
    (0, 10, 100, 320_800, "0.32M"),
    (5, 10, 100, 541_200, "0.54M"),
    (10, 10, 100, 801_600, "0.80M"),
    (15, 10, 100, 1_102_000, "1.10M"),
    (10, 5, 100, 541_200, "0.54M"),
    (10, 15, 100, 1_102_000, "1.10M"),
]


def test_01_param_counts_match_published_cells():
    t0 = time.perf_counter()
    for dl, dh, th, exact, label in PARAM_TABLE:
        n = count_params(ModelConfig(m=300, dl=dl, dh=dh, th=th, num_classes=2))
        assert n == exact, f"(dl={dl}, dh={dh}, th={th}): {n} != {exact}"
        assert format_param_count(n) == label
    elapsed = time.perf_counter() - t0
    print(f"\n11 cells verified in {elapsed * 1e3:.1f} ms")
    assert elapsed < 1.0


def test_02_gradient_certification_both_architectures():
    t0 = time.perf_counter()
    groups = 0
    for arch in ("dense", "stacked"):
        for dl in (0, 1, 2, 3):
            for seed in range(5):
                report = check_model(arch=arch, dl=dl, seed=seed)
                assert report.passed, "\n" + report.format()
                groups += len(report.groups)
    elapsed = time.perf_counter() - t0
    print(f"\n40 configurations, {groups} parameter groups within "
          f"rel 1e-4 / abs 1e-7, {elapsed:.1f} s (budget 600 s)")
    assert elapsed < 600.0


def test_03_degenerate_equivalence_is_bitwise():
    cfg = ModelConfig(m=12, dl=0, dh=0, th=5, num_classes=3, arch="dense",
                      dropout_embed=0.0, dropout_pool=0.0, max_norm_s=None)
    dense = Model.build(cfg, np.random.default_rng(314))
    stacked = Model(replace(cfg, arch="stacked"), dense.params)
    rng = np.random.default_rng(2718)
    emb = rng.standard_normal((40, cfg.m))
    for trial in range(100):
        B = int(rng.integers(1, 5))
        T = int(rng.integers(1, 9))
        lengths = rng.integers(1, T + 1, size=B).astype(np.int64)
        idx = rng.integers(0, 40, size=(B, T)).astype(np.int64)
        batch = pad_batch([(row[:L].tolist(), 0) for row, L in zip(idx, lengths)])
        pd, _ = model_forward(dense, emb, batch)
        ps, _ = model_forward(stacked, emb, batch)
        assert pd.tobytes() == ps.tobytes(), f"trial {trial}: outputs differ"
    print("\n100 random inputs, dense(dl=0) == stacked(dl=0) bitwise")


def test_04_reversal_duality_is_bitwise():
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        d = int(rng.integers(1, 7))
        din = int(rng.integers(1, 9))
        T = int(rng.integers(1, 13))
        p = CellParams.init(din, d, rng)
        X = rng.standard_normal((1, T, din))
        P = kernels.pack(np.array([T], dtype=np.int64))
        # one sentence packs in position order: packed row t is position t;
        # the kernels take the input pre-activations, as the model hands them over
        Z = X[P.rows, P.ts] @ p.W[:din] + p.b
        Z_rev = X[:, ::-1][P.rows, P.ts] @ p.W[:din] + p.b
        bwd, _ = kernels.lstm_layer_forward(Z, P, p.W, True)
        fwd_rev, _ = kernels.lstm_layer_forward(Z_rev, P, p.W, False)
        for t in range(T):
            assert bwd[t].tobytes() == fwd_rev[T - 1 - t].tobytes(), (
                f"seed {seed}, position {t}"
            )
    print("\n100 instances, backward == reversed(forward(reversed input)) bitwise")


def test_05_padding_neutrality_mixed_lengths():
    cfg = ModelConfig(m=10, dl=2, dh=3, th=4, num_classes=4, arch="dense",
                      dropout_embed=0.0, dropout_pool=0.0, max_norm_s=None)
    model = Model.build(cfg, np.random.default_rng(55))
    rng = np.random.default_rng(56)
    emb = rng.standard_normal((60, cfg.m))
    lengths = np.array([1, 20, 7, 3, 20, 1, 12, 5], dtype=np.int64)
    T = int(lengths.max())
    idx = rng.integers(0, 60, size=(len(lengths), T)).astype(np.int64)
    for n, L in enumerate(lengths):
        idx[n, L:] = 0
    batch = pad_batch([(row[:L].tolist(), 0) for row, L in zip(idx, lengths)])
    batched, _ = model_forward(model, emb, batch)
    worst = 0.0
    for n, L in enumerate(lengths):
        alone, _ = model_forward(model, emb, pad_batch([(idx[n, :L].tolist(), 0)]))
        worst = max(worst, float(np.abs(batched[n] - alone[0]).max()))
    print(f"\nlengths {lengths.tolist()}, worst |batched - single| = {worst:.2e}")
    assert worst <= 1e-12


def test_06_overfit_smoke(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("\n".join(_toy_corpus_lines(n=32, seed=7)) + "\n",
                    encoding="utf-8")
    # full batch at a gentle lr: the default 0.005 memorizes the corpus
    # just as surely but with a transient loss bump around epoch 40 that
    # would defeat the monotone-trend check below
    cfg = TrainConfig(
        arch="dense", dl=2, dh=8, th=16,
        dropout_embed=0.0, dropout_pool=0.0, lr=0.001,
        train_path=str(path), dev_fraction=0.0,
        batch_size=32, epochs=200, embedding_dim=16,
        seed=0, out_dir=str(tmp_path / "run"),
    )
    t0 = time.perf_counter()
    report = train(cfg)
    elapsed = time.perf_counter() - t0

    with open(report.log_path, encoding="utf-8") as fh:
        epochs = [r for r in map(json.loads, fh) if r["event"] == "epoch"]
    accs = [r["train_acc"] for r in epochs]
    assert 1.0 in accs, f"never reached 100% train accuracy (best {max(accs):.4f})"
    first = accs.index(1.0) + 1
    losses = [r["train_loss"] for r in epochs]
    # loss trend: non-increasing over every 20-epoch window past epoch 10
    for i in range(9, len(losses) - 19):
        assert losses[i + 19] <= losses[i] + 1e-3, (
            f"loss rose over epochs {i + 1}..{i + 20}: "
            f"{losses[i]:.6f} -> {losses[i + 19]:.6f}"
        )
    print(f"\n100% train accuracy at epoch {first}, "
          f"{len(losses)} epochs in {elapsed:.1f} s")
    assert elapsed < 120.0


def test_07_determinism_byte_identical_artifacts(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("\n".join(_toy_corpus_lines(n=32, seed=7)) + "\n",
                    encoding="utf-8")
    out = tmp_path / "run"
    cfg = TrainConfig(dl=1, dh=4, th=8, train_path=str(path), epochs=3,
                      batch_size=8, embedding_dim=12, seed=11, out_dir=str(out))
    train(cfg)
    log1 = (out / "run.log").read_bytes()
    ckpt1 = (out / "model.ckpt").read_bytes()
    train(cfg)
    assert (out / "run.log").read_bytes() == log1
    assert (out / "model.ckpt").read_bytes() == ckpt1
    print(f"\nrun.log ({len(log1)} bytes) and model.ckpt ({len(ckpt1)} bytes) "
          "identical across reruns")


def _data_dir():
    root = os.environ.get("DCBILSTM_DATA_DIR")
    if not root or not os.path.isdir(root):
        pytest.skip("set DCBILSTM_DATA_DIR to the corpus directory "
                    "(see module docstring for the expected layout)")
    return root


def test_08_dataset_fidelity(tmp_path, capsys):
    root = _data_dir()
    sst = {s: os.path.join(root, "sst", f"{s}.txt") for s in ("train", "dev", "test")}
    mr = [os.path.join(root, "mr", f"rt-polarity.{s}") for s in ("pos", "neg")]
    subj = [os.path.join(root, "subj", "quote.tok.gt9.5000"),
            os.path.join(root, "subj", "plot.tok.gt9.5000")]
    for p in list(sst.values()) + mr + subj:
        if not os.path.exists(p):
            pytest.skip(f"corpus file missing: {p}")

    def lines(out):
        return len(out.read_text(encoding="utf-8").splitlines())

    sizes = {}
    for split, src in sst.items():
        sizes[f"sst1_{split}"] = len(load_dataset(src, "sst_trees"))
        sizes[f"sst2_{split}"] = len(load_dataset(src, "sst_trees", binary=True))
    out = tmp_path / "mr.tsv"
    assert main(["prepare-data", "--out", str(out),
                 "--raw", f"{mr[0]}:1", "--raw", f"{mr[1]}:0",
                 "--encoding", "latin-1"]) == 0
    sizes["mr"] = lines(out)
    out = tmp_path / "subj.tsv"
    assert main(["prepare-data", "--out", str(out),
                 "--raw", f"{subj[0]}:1", "--raw", f"{subj[1]}:0",
                 "--encoding", "latin-1"]) == 0
    sizes["subj"] = lines(out)
    capsys.readouterr()

    expected = {
        "sst1_train": 8544, "sst1_dev": 1101, "sst1_test": 2210,
        "sst2_train": 6920, "sst2_dev": 872, "sst2_test": 1821,
        "mr": 10662, "subj": 10000,
    }
    print(f"\nsplit sizes: {sizes}")
    assert sizes == expected


def test_09_extended_sst2_accuracy(tmp_path):
    if os.environ.get("DCBILSTM_RUN_EXTENDED") != "1":
        pytest.skip("long run; set DCBILSTM_RUN_EXTENDED=1 (plus "
                    "DCBILSTM_DATA_DIR and DCBILSTM_GLOVE) to enable")
    root = _data_dir()
    glove = os.environ.get("DCBILSTM_GLOVE")
    if not glove or not os.path.exists(glove):
        pytest.skip("set DCBILSTM_GLOVE to a 300-dim embedding text file")
    cfg = TrainConfig(
        arch="dense", dl=3, dh=10, th=50,
        data_format="sst_trees", binary=True,
        train_path=os.path.join(root, "sst", "train.txt"),
        dev_path=os.path.join(root, "sst", "dev.txt"),
        test_path=os.path.join(root, "sst", "test.txt"),
        embeddings_path=glove,
        seed=0, out_dir=str(tmp_path / "sst2"),
    )
    report = train(cfg)
    # reported, not asserted: the bar to compare against is 0.80
    print(f"\nSST-2 test accuracy {report.test_acc:.4f} "
          f"(dev {report.best_dev_acc:.4f}, {report.epochs_run} epochs)")
