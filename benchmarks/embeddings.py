"""Time cold and warm ``data.load_embeddings`` calls on perfbench's embeddings file.

Usage, from the root of a checkout:

    python3 benchmarks/embeddings.py                                  # this checkout
    python3 benchmarks/embeddings.py --src parent=../old --src change=.   # two, interleaved
    python3 benchmarks/embeddings.py --reps 1 --out /tmp/e.json       # smoke run

The input is the embeddings file that perfbench's set-up parses: 300-d
GloVe-style lines, generated by ``corpus.ensure`` for the sst2 corpus from a
fixed seed into a temporary directory, about 81 MB and 32k lines.  Each
``--src LABEL=CHECKOUT`` is imported into one process under its own name
(default ``current=`` this checkout), and the checkouts take turns, ``--reps``
times each, so a comparison shares the machine's state and page cache.  A
turn is a cold load, with every file beside the input whose name starts
with the input's removed first (a parse cache among them), then a warm load
that may read what the cold one left.  The median seconds of each are
written to the JSON file ``--out``, replacing it, with a SHA-1 of the sorted
words and vector bytes of the table each loaded (equal digests mean
bit-identical tables), the process's peak RSS, the numpy and BLAS builds and
``nproc``.  The script exits 1 if a checkout's cold and warm tables differ,
and says whether the checkouts' tables are equal.
"""

import argparse
import hashlib
import json
import resource
import sys
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
        path = Path(corpus.ensure(SST2, SEED, tmp).embeddings)
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        size = path.stat().st_size

        def cold():
            """Remove what earlier loads left beside the input."""
            for p in path.parent.glob(path.name + ".*"):
                p.unlink()
            return (path,)

        digests = {}
        for label, D in mods.items():
            cold()
            digests[label] = [digest(D.load_embeddings(path)) for _ in ("cold", "warm")]
        seconds = [ms / 1e3 for ms in interleaved_ms(
            [(prepare, D.load_embeddings) for D in mods.values()
             for prepare in (cold, lambda: (path,))], args.reps)]
    runs = {}
    for j, label in enumerate(mods):
        (cold_s, warm_s), (cold_sha, warm_sha) = seconds[2 * j:2 * j + 2], digests[label]
        print(f"{label:<8s} load_embeddings cold {cold_s:.3f} s  warm {warm_s:.3f} s  "
              f"sha1 {cold_sha}" + ("" if warm_sha == cold_sha else f" (warm {warm_sha})"))
        runs[label] = {**provenance(checkouts[label]), "load_embeddings_cold_s": cold_s,
                       "load_embeddings_warm_s": warm_s, "sha1": cold_sha,
                       "sha1_warm": warm_sha}
    equal = len({sha for pair in digests.values() for sha in pair}) == 1
    print(f"tables {'equal' if equal else 'DIFFER'} across {', '.join(mods)}, cold and warm")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {"reps": args.reps, "peak_rss_mb": peak,
           "file": {"corpus": SST2.name, "seed": SEED, "lines": lines, "bytes": size,
                    "dim": SST2.dim},
           "tables_equal": equal, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(checkouts)} to {args.out}")
    if any(cold_sha != warm_sha for cold_sha, warm_sha in digests.values()):
        sys.exit("a warm load's table differs from its cold load's")


if __name__ == "__main__":
    main()
