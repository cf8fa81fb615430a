"""Per-layer metrics from the traced run's spans, and run provenance."""

import os
import platform
import statistics
import subprocess

import numpy as np

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "kernels.dense.forward_ms": "ms",
    "kernels.dense.backward_ms": "ms",
    "kernels.top.forward_ms": "ms",
    "kernels.top.backward_ms": "ms",
    "kernels.dense.infer_ms": "ms",
    "kernels.top.infer_ms": "ms",
    "kernels.calls": "count",
    "kernels.gflops": "GFLOP/s",
    "model.forward_self_ms": "ms",
    "model.backward_self_ms": "ms",
    "model.trace_mb": "MiB",
    "data.load_embeddings_s": "s",
    "data.load_dataset_s": "s",
    "data.vocab_matrix_s": "s",
    "data.vectorize_s": "s",
    "data.setup_rss_mb": "MiB",
    "data.pad_efficiency": "ratio",
    "train.adam_ms": "ms",
    "train.loss_ms": "ms",
    "train.max_norm_ms": "ms",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "cli.eval_s": "s",
    "gradcheck.loss_evals": "count",
    "gradcheck.forward_us": "us",
    "gradcheck.kernel_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.ref_kernel_ms": "ms",
}


def _dur(span):
    return span["t1"] - span["t0"]


def _median_or_none(xs):
    return statistics.median(xs) if xs else None


class _Steps:
    """Spans grouped under the root spans of one name."""

    def __init__(self, spans, root_name):
        self.roots = [s for s in spans if s["parent"] is None and s["name"] == root_name]
        ids = {r["step"] for r in self.roots}
        self.children = {step: [] for step in ids}
        for s in spans:
            if s["parent"] is not None and s["step"] in ids:
                self.children[s["step"]].append(s)

    def per_step(self, fn):
        """fn(children of one step) for every step, dropping None results."""
        out = [fn(self.children[r["step"]]) for r in self.roots]
        return [x for x in out if x is not None]


def _kernel_sum(kind, direction):
    """Per-step sum of kernel spans of one kind (dense/top) and direction."""
    def fn(children):
        picked = [c for c in children if c["name"] == f"kernels.{direction}"
                  and c.get("label", "").startswith(kind)]
        return sum(_dur(c) for c in picked) if picked else None
    return fn


def _sum_of(*names):
    def fn(children):
        picked = [c for c in children if c["name"] in names]
        return sum(_dur(c) for c in picked) if picked else None
    return fn


def _self_time(name, spans_by_parent):
    def fn(children):
        own = [c for c in children if c["name"] == name]
        if not own:
            return None
        return sum(_dur(c) - sum(_dur(k) for k in spans_by_parent.get(c["id"], ()))
                   for c in own)
    return fn


def layer_metrics(tracer, model, extra, samples):
    """{name: value or None}; None marks a metric whose spans are absent."""
    spans = tracer.spans
    by_parent = {}
    for s in spans:
        if s["parent"] is not None:
            by_parent.setdefault(s["parent"], []).append(s)
    train = _Steps(spans, "train.step")
    evals = _Steps(spans, "eval.batch")
    setup = _Steps(spans, "setup")
    grad = _Steps(spans, "gradcheck.unit")
    gates = {s["name"]: s for s in spans if s["parent"] is None and s["name"].startswith("gate.")}

    def med(steps, fn, scale=1.0):
        v = _median_or_none(steps.per_step(fn))
        return None if v is None else v * scale

    out = {}
    for kind in ("dense", "top"):
        for direction in ("forward", "backward"):
            out[f"kernels.{kind}.{direction}_ms"] = med(train, _kernel_sum(kind, direction), 1e3)
        out[f"kernels.{kind}.infer_ms"] = med(evals, _kernel_sum(kind, "forward"), 1e3)
    out["kernels.calls"] = med(train, lambda ch: sum(c["name"].startswith("kernels.")
                                                     for c in ch) or None)

    # computed op count: 2*(Din+d)*4d flops per token forward (the gate
    # matmuls), twice that backward (weight and input gradients)
    shapes = {name[:-2]: arr.shape for name, arr in model.named_params() if name.endswith(".W")}
    flops = busy = 0.0
    for steps in (train, evals):
        for root in steps.roots:
            for c in steps.children[root["step"]]:
                if c["name"].startswith("kernels.") and c.get("label") in shapes:
                    rows, cols = shapes[c["label"]]
                    factor = 2.0 if c["name"] == "kernels.forward" else 4.0
                    flops += factor * rows * cols * root["tokens"]
                    busy += _dur(c)
    out["kernels.gflops"] = flops / busy / 1e9 if busy else None

    out["model.forward_self_ms"] = med(train, _self_time("model.forward", by_parent), 1e3)
    out["model.backward_self_ms"] = med(train, _self_time("model.backward", by_parent), 1e3)
    held = [c["held_bytes"] for r in train.roots for c in train.children[r["step"]]
            if "held_bytes" in c]
    out["model.trace_mb"] = _median_or_none(held) / 2**20 if held else None

    out["data.load_embeddings_s"] = med(setup, _sum_of("data.load_embeddings"))
    out["data.load_dataset_s"] = med(setup, _sum_of("data.load_dataset"))
    out["data.vocab_matrix_s"] = med(setup, _sum_of("data.build_vocab",
                                                    "data.build_embedding_matrix"))
    out["data.vectorize_s"] = med(setup, _sum_of("data.vectorize"))
    out["data.setup_rss_mb"] = extra.get("setup_rss_mb")
    out["data.pad_efficiency"] = extra.get("pad_efficiency")

    out["train.adam_ms"] = med(train, _sum_of("train.adam"), 1e3)
    out["train.loss_ms"] = med(train, _sum_of("train.loss"), 1e3)
    out["train.max_norm_ms"] = med(train, _sum_of("train.max_norm"), 1e3)

    def gate_child(gate, name):
        root = gates.get(gate)
        if root is None:
            return None
        found = [_dur(c) for c in by_parent.get(root["id"], ()) if c["name"] == name]
        return _median_or_none(found)

    out["checkpoint.save_s"] = gate_child("gate.checkpoint", "checkpoint.save")
    out["checkpoint.load_s"] = gate_child("gate.checkpoint", "checkpoint.load")
    out["cli.eval_s"] = gate_child("gate.cli", "cli.main")

    fd_ids = {s["id"] for s in spans if s["name"] == "gradcheck.finite_diff"}
    fd_forwards = [_dur(s) for s in spans if s["name"] == "model.forward" and s["parent"] in fd_ids]
    units = len(samples.get("gradcheck_unit_s", ()))
    out["gradcheck.loss_evals"] = len(fd_forwards) / units if fd_forwards and units else None
    out["gradcheck.forward_us"] = _median_or_none(fd_forwards) * 1e6 if fd_forwards else None
    kernel_time = sum(sum(_dur(c) for c in ch if c["name"].startswith("kernels."))
                      for ch in grad.children.values())
    grad_time = sum(_dur(r) for r in grad.roots)
    out["gradcheck.kernel_share"] = kernel_time / grad_time if kernel_time else None

    untraced = _median_or_none(samples.get("train_step_s", []))
    traced = _median_or_none(samples.get("train_step_traced_s", []))
    out["trace.overhead_ratio"] = traced / untraced if traced and untraced else None
    out["host.ref_kernel_ms"] = extra.get("ref_kernel_ms")
    return out


# ---------------------------------------------------------------------------
# provenance


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(pkg, root, seed, blas_threads):
    active = getattr(pkg.root, "active_backend", None)
    return {
        "backend": active() if active else "absent",
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
        "seed": seed,
    }
