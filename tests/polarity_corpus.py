"""A seeded synthetic sentiment corpus whose labels need word order.

The vocabulary has 15 positive words (``pos0`` ..), 15 negative words
(``neg0`` ..), 3 negators (``not0`` ..) and 150 neutral words (``w0`` ..).
A sentence draws its length from N(16, 6), rounded and clipped to 4-40,
and its words uniformly from the whole vocabulary.  Its polarity is the sum
of +1 per positive and -1 per negative word, where a negator flips the sign
of the next polar word after it (two negators cancel).  The label is 1 for
a positive sum and 0 for a negative one; a sentence whose sum is 0 is drawn
again.  The same seed gives the same bytes.
"""

import numpy as np

POSITIVE = [f"pos{i}" for i in range(15)]
NEGATIVE = [f"neg{i}" for i in range(15)]
NEGATORS = [f"not{i}" for i in range(3)]
NEUTRAL = [f"w{i}" for i in range(150)]
WORDS = POSITIVE + NEGATIVE + NEGATORS + NEUTRAL

SPLITS = (("train", 800), ("dev", 400), ("test", 400))


def polarity(words):
    """Summed polarity of a word list, each negator flipping the next polar word."""
    total, sign = 0, 1
    for word in words:
        if word in NEGATORS:
            sign = -sign
        elif word in POSITIVE or word in NEGATIVE:
            total += sign * (1 if word in POSITIVE else -1)
            sign = 1
    return total


def sentences(n, rng):
    """n (words, label) pairs drawn from rng."""
    out = []
    while len(out) < n:
        length = int(np.clip(np.rint(rng.normal(16.0, 6.0)), 4, 40))
        words = [WORDS[i] for i in rng.integers(len(WORDS), size=length)]
        total = polarity(words)
        if total != 0:
            out.append((words, int(total > 0)))
    return out


def write_splits(directory, seed=12345):
    """Write train.tsv, dev.tsv and test.tsv (800/400/400 sentences) under
    directory, one ``label<TAB>sentence`` a line; returns {split: path}."""
    rng = np.random.default_rng(seed)
    paths = {}
    for name, n in SPLITS:
        paths[name] = directory / f"{name}.tsv"
        paths[name].write_text("".join(f"{label}\t{' '.join(words)}\n"
                                       for words, label in sentences(n, rng)),
                               encoding="utf-8")
    return paths
