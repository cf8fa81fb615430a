import numpy as np
import pytest


def _toy_corpus_lines(n=32, seed=7):
    """Deterministic separable 2-class corpus: one signal word per sentence."""
    rng = np.random.default_rng(seed)
    pos = ["great", "superb", "fun", "lovely", "brilliant", "warm"]
    neg = ["awful", "dull", "tedious", "grim", "flat", "cold"]
    filler = ["the", "movie", "a", "film", "it", "was", "and", "very"]
    lines = []
    for k in range(n):
        label = k % 2
        words = list(rng.choice(filler, size=rng.integers(2, 6)))
        words.insert(int(rng.integers(len(words) + 1)),
                     str(rng.choice(pos if label else neg)))
        lines.append(f"{label}\t{' '.join(words)}")
    return lines


@pytest.fixture
def toy_tsv(tmp_path):
    """Path to a 32-example two-class TSV corpus, fixed content."""
    path = tmp_path / "toy.tsv"
    path.write_text("\n".join(_toy_corpus_lines()) + "\n", encoding="utf-8")
    return str(path)
