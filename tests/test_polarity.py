"""The paper's central claim in miniature, on the synthetic polarity corpus.

A dense stack passes the embeddings' gradient to its first layer; a stacked
Bi-LSTM of the same depth and at least as many parameters loses most of it.
"""

import json
import math

import pytest

from dcbilstm.model import ModelConfig, count_params, param_shapes
from dcbilstm.train import TrainConfig, train
from polarity_corpus import SPLITS, WORDS, polarity, write_splits

# (arch, dh) at dl = 6, th = 16, m = 16
DENSE, STACKED = ("dense", 4), ("stacked", 10)


def test_polarity_follows_the_negators():
    assert polarity(["pos1", "w3", "neg2", "neg4"]) == -1
    assert polarity(["not0", "w3", "neg2", "pos1"]) == 2  # the flip skips neutral words
    assert polarity(["not0", "not2", "neg2"]) == -1  # two negators cancel
    assert polarity(["pos0", "not1"]) == 1  # a trailing negator flips nothing
    assert polarity(["not0", "pos0", "pos1"]) == 0  # and only the next polar word


def test_polarity_corpus_is_seeded_and_to_spec(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, again = write_splits(tmp_path / "a"), write_splits(tmp_path / "b")
    for name, n in SPLITS:
        text = first[name].read_bytes()
        assert text == again[name].read_bytes(), name
        lines = text.decode("utf-8").splitlines()
        assert len(lines) == n, name
        for line in lines:
            label, sentence = line.split("\t")
            words = sentence.split()
            assert 4 <= len(words) <= 40 and set(words) <= set(WORDS)
            assert polarity(words) != 0 and int(label) == int(polarity(words) > 0)
    assert len(WORDS) == 15 + 15 + 3 + 150


def _epoch1_dense0_grad_norm(paths, out_dir, arch, dh, seed):
    cfg = TrainConfig(arch=arch, dl=6, dh=dh, th=16, embedding_dim=16, dropout_embed=0.0,
                      dropout_pool=0.0, lr=0.01, batch_size=50, epochs=1, seed=seed,
                      train_path=str(paths["train"]), dev_path=str(paths["dev"]),
                      test_path=str(paths["test"]), out_dir=str(out_dir))
    with open(train(cfg).log_path, encoding="utf-8") as fh:
        [epoch] = [r for r in map(json.loads, fh) if r["event"] == "epoch"]
    return epoch["grad_norm_per_layer"]["dense0"]


def _sizes(arch, dh):
    """(recurrent parameters, all parameters) of the model the config builds."""
    cfg = ModelConfig(m=16, dl=6, dh=dh, th=16, num_classes=2, arch=arch)
    return count_params(cfg), sum(math.prod(shape) for _, shape in param_shapes(cfg))


def test_stacked_baseline_has_at_least_the_dense_models_parameters():
    assert _sizes(*DENSE)[0] == 18240 and _sizes(*STACKED)[0] == 19296
    assert _sizes(*STACKED)[1] >= _sizes(*DENSE)[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_layers_get_a_gradient_that_stacked_ones_lose(tmp_path, seed):
    # one epoch each; on this corpus seeds 0-8 gave ratios of 44x to 18,000x
    # (three below 100x), so the bar is 10x
    paths = write_splits(tmp_path)
    dense = _epoch1_dense0_grad_norm(paths, tmp_path / "dense", *DENSE, seed)
    stacked = _epoch1_dense0_grad_norm(paths, tmp_path / "stacked", *STACKED, seed)
    assert dense >= 10 * stacked, (dense, stacked)
