"""Time ``data.load_embeddings`` on perfbench's embeddings file.

Usage, from the root of a checkout:

    python3 benchmarks/embeddings.py                                  # this checkout
    python3 benchmarks/embeddings.py --src parent=../old --src change=.   # two, interleaved
    python3 benchmarks/embeddings.py --reps 1 --out /tmp/e.json       # smoke run

The input is the embeddings file that perfbench's set-up parses: 300-d
GloVe-style lines, generated by ``corpus.ensure`` for the sst2 corpus from a
fixed seed into a temporary directory, about 81 MB and 32k lines.  Each
``--src LABEL=CHECKOUT`` is imported into one process under its own name
(default ``current=`` this checkout), and the checkouts load the file in
turn, ``--reps`` times each, so a comparison shares the machine's state and
page cache.  The median seconds of every label are written to the JSON file
``--out``, replacing it, with a SHA-1 of the sorted words and vector bytes
of the table it loaded (equal digests mean bit-identical tables), the
process's peak RSS, the numpy and BLAS builds and ``nproc``.
"""

import argparse
import hashlib
import json
import resource
import tempfile
from pathlib import Path

from kernels import ROOT, interleaved_ms, load_module, parse_checkouts, provenance

import corpus  # perfbench's, on the path that kernels sets
import numpy as np
from workloads import SST2

SEED = 0  # of the generated file; perfbench's default seed


def digest(table):
    """SHA-1 over the sorted words, each followed by its vector's bytes."""
    h = hashlib.sha1()
    for word in sorted(table.vectors):
        h.update(word.encode("utf-8") + b"\0")
        h.update(np.ascontiguousarray(table.vectors[word], dtype=np.float64).tobytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=CHECKOUT",
                    help="a checkout to time, under LABEL (repeatable)")
    ap.add_argument("--reps", type=int, default=5, help="timed loads per checkout")
    ap.add_argument("--out", type=Path,
                    default=ROOT / "benchmarks" / "BENCH_embeddings.json")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    checkouts = parse_checkouts(ap, args.src)
    mods = {label: load_module(f"_timed{j}", path, "data")
            for j, (label, path) in enumerate(checkouts.items())}
    with tempfile.TemporaryDirectory() as tmp:
        path = corpus.ensure(SST2, SEED, tmp).embeddings
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        size = Path(path).stat().st_size
        digests = {label: digest(D.load_embeddings(path)) for label, D in mods.items()}
        seconds = [ms / 1e3 for ms in interleaved_ms(
            [(lambda: (path,), D.load_embeddings) for D in mods.values()], args.reps)]
    for label, s in zip(mods, seconds):
        print(f"{label:<8s} load_embeddings {s:.3f} s  sha1 {digests[label]}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {"reps": args.reps, "peak_rss_mb": peak,
           "file": {"corpus": SST2.name, "seed": SEED, "lines": lines, "bytes": size,
                    "dim": SST2.dim},
           "runs": {label: {**provenance(checkouts[label]), "load_embeddings_s": s,
                            "sha1": digests[label]}
                    for label, s in zip(mods, seconds)}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(checkouts)} to {args.out}")


if __name__ == "__main__":
    main()
