"""Time the LSTM recurrence kernels, each direction, at perfbench's shapes.

Usage, from the root of a checkout:

    python3 benchmarks/kernels.py                                  # this checkout
    python3 benchmarks/kernels.py --src parent=../old --src change=.   # two, interleaved
    python3 benchmarks/kernels.py --reps 1 --out /tmp/k.json       # smoke run

Each ``--src LABEL=CHECKOUT`` names a checkout whose ``src/dcbilstm`` is
timed (default ``current=`` this checkout).  All of them are imported into
one process under separate names and timed in turn, call after call, so a
comparison shares the machine's state instead of running at different
times.  The shapes are read from this checkout's perfbench: the dense and
top layers of each workload at its batch size, and at B = 1 on a sentence
of the mean length, as the finite-difference units run.  Batch lengths are
drawn as perfbench's corpus draws them, from a fixed seed.  Each shape runs
``lstm_layer_forward`` and then ``lstm_layer_backward`` on fresh copies of
the same inputs ``--reps`` times per direction.  At B = 1, where the model
runs both directions of a layer with ``lstm_pair_forward``, that call
(``pair.forward_ms``) is timed in turn with the two ``lstm_layer_forward``
calls it replaces, back to back (``fwd+bwd.forward_ms``); a checkout without
the paired kernel has the second figure only.  The median milliseconds of
every label are written to the JSON file ``--out``, replacing it, next to
the process's peak RSS, the numpy and BLAS builds and ``nproc``.  The
kernels are called as the model calls them: the gates are the layer's
column view of one (N, sum of 8d) buffer as wide as its workload's (640
columns at sst2-dl3, 2360 at sst2-dl15), the dense layer's at the first
dense layer's columns and the top layer's at the last, and the weights a
column view of one (Din + d, 8d) array.  The row stride of that buffer is
what the backward kernel's derivative passes read across.  BLAS runs on
one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import SST2, WORKLOADS  # noqa: E402

SEED = 0  # of the synthetic lengths, gates and weights


def shapes():
    """(name, B, d, width, col) of every timed shape, from perfbench's
    workloads: the layer's gates are the 8d columns from ``col`` of a
    ``width``-column buffer laid out as the model lays out its gates."""
    out = []
    for w in WORKLOADS.values():
        width = 8 * (w.dl * w.dh + w.th)
        for layer, d, col in (("dense", w.dh, 0), ("top", w.th, width - 8 * w.th)):
            out += [(f"{w.name}-{layer}", w.batch, d, width, col),
                    (f"{w.name}-{layer}-B1", 1, d, width, col)]
    return out


def load_module(alias, checkout, name):
    """Module ``name`` of a checkout's package, the package imported as ``alias``."""
    init = checkout / "src" / "dcbilstm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{alias}.{name}")


def parse_checkouts(ap, srcs):
    """{label: checkout} from ``--src LABEL=CHECKOUT`` values; default this checkout."""
    srcs = [s.split("=", 1) for s in srcs or [f"current={ROOT}"]]
    if any(len(s) != 2 for s in srcs) or len(dict(srcs)) != len(srcs):
        ap.error("--src takes LABEL=CHECKOUT, each LABEL once")
    checkouts = {label: Path(path).resolve() for label, path in srcs}
    for path in checkouts.values():
        if not (path / "src" / "dcbilstm" / "__init__.py").is_file():
            ap.error(f"{path} has no src/dcbilstm package")
    return checkouts


def _lengths(B, rng):
    """Sentence lengths as perfbench's corpus draws them; one has the mean."""
    if B == 1:
        return np.array([round(SST2.len_mean)], dtype=np.int64)
    lengths = np.clip(np.rint(rng.normal(SST2.len_mean, SST2.len_sd, size=B)),
                      SST2.len_min, SST2.len_max).astype(np.int64)
    lengths[np.argmax(lengths)] = SST2.len_max
    return lengths


def interleaved_ms(calls, reps):
    """Median ms of each (prepare, fn) pair, the pairs called in turn."""
    times = [[] for _ in calls]
    for _ in range(reps):
        for out, (prepare, fn) in zip(times, calls):
            args = prepare()
            t0 = time.perf_counter()
            fn(*args)
            out.append(time.perf_counter() - t0)
    return [1e3 * float(np.median(t)) for t in times]


def time_shape(mods, B, d, width, col, reps, rng):
    """{label: timings} of one shape, every module on the same inputs."""
    lengths = _lengths(B, rng)
    N = int(lengths.sum())
    Z0 = 0.5 * rng.standard_normal((N, width))
    W = 0.3 * rng.standard_normal((SST2.dim + d, 8 * d))
    dH = rng.standard_normal((N, d))
    out = {label: {"B": B, "d": d, "tokens": N, "steps": int(lengths.max()),
                   "gate_cols": width} for label in mods}
    for reverse, wcols in ((False, slice(0, 4 * d)), (True, slice(4 * d, 8 * d))):
        cols = slice(col + wcols.start, col + wcols.stop)
        name = "bwd" if reverse else "fwd"
        fwd, bwd = [], []
        for k in mods.values():
            P, buf = k.pack(lengths), np.empty_like(Z0)

            def fresh_gates(P=P, buf=buf):
                buf[...] = Z0
                return buf[:, cols], P, W[:, wcols], reverse

            H, C = k.lstm_layer_forward(*fresh_gates())
            G = buf[:, cols].copy()

            def fresh_grads(P=P, buf=buf, H=H, C=C, G=G):
                buf[:, cols] = G
                return P, W[:, wcols], H, C, buf[:, cols], dH, reverse

            fwd.append((fresh_gates, k.lstm_layer_forward))
            bwd.append((fresh_grads, k.lstm_layer_backward))
        for kind, calls in (("forward", fwd), ("backward", bwd)):
            for label, ms in zip(mods, interleaved_ms(calls, reps)):
                out[label][f"{name}.{kind}_ms"] = ms
    if B == 1:
        keys, calls = [], []
        for label, k in mods.items():
            P, buf = k.pack(lengths), np.empty_like(Z0)

            def fresh(buf=buf):
                buf[...] = Z0
                return (buf,)

            def two(Z, k=k, P=P):
                k.lstm_layer_forward(Z[:, col:col + 4 * d], P, W[:, :4 * d], False)
                k.lstm_layer_forward(Z[:, col + 4 * d:col + 8 * d], P, W[:, 4 * d:], True)

            def pair(Z, k=k):
                k.lstm_pair_forward(Z[:, col:col + 8 * d], W[:, :4 * d], W[:, 4 * d:])

            keys.append((label, "fwd+bwd.forward_ms"))
            calls.append((fresh, two))
            if hasattr(k, "lstm_pair_forward"):
                keys.append((label, "pair.forward_ms"))
                calls.append((fresh, pair))
        for (label, key), ms in zip(keys, interleaved_ms(calls, reps)):
            out[label][key] = ms
    return out


def provenance(checkout):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"numpy": np.__version__, "blas": blas, "blas_threads": 1,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=CHECKOUT",
                    help="a checkout to time, under LABEL (repeatable)")
    ap.add_argument("--reps", type=int, default=200, help="timed calls per kernel and shape")
    ap.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "BENCH_kernels.json")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    checkouts = parse_checkouts(ap, args.src)
    mods = {label: load_module(f"_timed{j}", path, "kernels")
            for j, (label, path) in enumerate(checkouts.items())}
    rng = np.random.default_rng(SEED)
    timings = {label: {} for label in mods}
    for name, B, d, width, col in shapes():
        for label, row in time_shape(mods, B, d, width, col, args.reps, rng).items():
            timings[label][name] = row
            print(f"{label:<8s} {name:<19s} B={B:<3d} d={d:<3d} " + "  ".join(
                f"{k} {v:.3f}" for k, v in row.items() if k.endswith("_ms")))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {"reps": args.reps, "peak_rss_mb": peak,
           "runs": {label: {**provenance(path), "shapes": timings[label]}
                    for label, path in checkouts.items()}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(checkouts)} to {args.out}")


if __name__ == "__main__":
    main()
