"""Seeded synthetic inputs for the benchmark workloads.

A corpus is three TSV splits (``label<TAB>sentence``) plus a GloVe-style
embeddings text file, generated from the workload seed alone: the same seed
gives byte-identical files.  Files are written once per (corpus, seed) under
the cache directory, outside any timed region, and reused by later runs.

Shape of the data:
  - sentence lengths are drawn from N(mean, sd), rounded and clipped, and
    the longest one of each split is set to the clip maximum;
  - tokens are drawn from a Zipf-Mandelbrot distribution over a synthetic
    lexicon of lowercase letter strings and a few punctuation marks, so the
    package tokenizer sees punctuation to split off;
  - labels are balanced binary;
  - the embeddings file covers most of the lexicon plus words that never
    occur in the corpus, so out-of-vocabulary words exist in both
    directions: corpus words without a vector, vectors without a corpus word.

Every embeddings line is well-formed ``word v1 .. vd`` with single spaces.
Real GloVe files contain a few tokens with spaces inside them, on which the
package's loader raises ParseError today; that case belongs to the loader's
own regression test and is deliberately not generated here, so this file
neither hides nor exercises that defect.
"""

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PUNCTUATION = (",", ".", "!", "?", ";", ":")
_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    n_train: int
    n_dev: int
    n_test: int
    len_mean: float
    len_sd: float
    len_min: int
    len_max: int
    lexicon: int  # distinct words the sentences draw from
    zipf_s: float
    zipf_q: float
    dim: int  # embedding width m
    emb_coverage: float  # share of the lexicon that has a vector
    emb_extra: float  # vector-only words, as a multiple of the lexicon


@dataclass(frozen=True)
class CorpusFiles:
    train: str
    dev: str
    test: str
    embeddings: str


def _lexicon(rng, n):
    """n distinct lowercase words of 3-10 letters (punctuation excluded)."""
    words = set()
    while len(words) < n:
        lengths = rng.integers(3, 11, size=2 * n)
        letters = _LETTERS[rng.integers(0, 26, size=int(lengths.sum()))]
        pos = 0
        for L in lengths:
            words.add(letters[pos:pos + L].tobytes().decode("ascii"))
            pos += L
    return sorted(words)[:n]


def _write_split(path, rng, spec, vocab, probs, n):
    lengths = np.clip(np.rint(rng.normal(spec.len_mean, spec.len_sd, size=n)),
                      spec.len_min, spec.len_max).astype(np.int64)
    # the longest sentence has exactly len_max tokens, as SST-2's has 56
    lengths[np.argmax(lengths)] = spec.len_max
    tokens = rng.choice(len(vocab), size=int(lengths.sum()), p=probs)
    labels = rng.integers(0, 2, size=n)
    lines = []
    pos = 0
    for L, label in zip(lengths, labels):
        lines.append(f"{label}\t{' '.join(vocab[t] for t in tokens[pos:pos + L])}\n")
        pos += L
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _format_rows(values):
    """float rows with |v| < 10 -> fixed 5-decimal text, one bytes per row."""
    q = np.rint(values * 1e5).astype(np.int64)
    a = np.abs(q)
    rows, d = q.shape
    out = np.zeros((rows, d, 9), dtype=np.uint8)  # 0 bytes are dropped below
    out[:, :, 0] = np.where(q < 0, ord("-"), 0)
    out[:, :, 1] = ord("0") + a // 100000
    out[:, :, 2] = ord(".")
    for k in range(5):
        out[:, :, 3 + k] = ord("0") + (a // 10 ** (4 - k)) % 10
    out[:, :, 8] = ord(" ")
    flat = out.reshape(rows, -1)
    return [row[row != 0].tobytes()[:-1] for row in flat]


def _write_embeddings(path, rng, spec, vocab):
    covered = [w for w in vocab if rng.random() < spec.emb_coverage]
    existing = set(vocab)
    extra = [w for w in _lexicon(rng, int(spec.emb_extra * len(vocab)) + len(vocab))
             if w not in existing][:int(spec.emb_extra * len(vocab))]
    words = covered + extra
    order = rng.permutation(len(words))
    with open(path, "wb") as fh:
        for start in range(0, len(words), 2048):
            idx = order[start:start + 2048]
            values = np.clip(rng.normal(0.0, 0.4, size=(len(idx), spec.dim)), -9.9, 9.9)
            for i, row in zip(idx, _format_rows(values)):
                fh.write(words[i].encode("ascii") + b" " + row + b"\n")


def generate(spec, seed, out_dir):
    """Write train/dev/test TSVs and embeddings.txt for (spec, seed) into out_dir."""
    ss = np.random.SeedSequence([int(seed), sum(spec.name.encode("ascii"))])
    lex_ss, split_ss, emb_ss = ss.spawn(3)
    lex_rng = np.random.default_rng(lex_ss)
    vocab = list(PUNCTUATION) + _lexicon(lex_rng, spec.lexicon - len(PUNCTUATION))
    lex_rng.shuffle(vocab)
    ranks = np.arange(len(vocab), dtype=np.float64)
    probs = 1.0 / (ranks + spec.zipf_q) ** spec.zipf_s
    probs /= probs.sum()
    split_rng = np.random.default_rng(split_ss)
    out = Path(out_dir)
    for split, n in (("train", spec.n_train), ("dev", spec.n_dev), ("test", spec.n_test)):
        _write_split(out / f"{split}.tsv", split_rng, spec, vocab, probs, n)
    _write_embeddings(out / "embeddings.txt", np.random.default_rng(emb_ss), spec, vocab)


def ensure(spec, seed, cache_root):
    """Paths of the cached corpus for (spec, seed), generating it if absent."""
    final = Path(cache_root) / f"{spec.name}-seed{int(seed)}"
    if not (final / "embeddings.txt").exists():
        tmp = final.with_name(final.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        generate(spec, seed, tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    return CorpusFiles(*(str(final / name) for name in
                         ("train.tsv", "dev.tsv", "test.tsv", "embeddings.txt")))
