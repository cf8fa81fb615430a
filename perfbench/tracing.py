"""Spans around the package's public functions, installed from outside.

The traced run wraps module attributes such as ``dcbilstm.kernels.
lstm_layer_forward`` or ``dcbilstm.train.model_forward`` with a timer; the
package itself is not edited.  A target that no longer exists is recorded as
missing and the metrics that need it are reported absent, so the benchmark
keeps running across refactors of the package.

A span records name, start, end, parent span and the id of the step (one
training step, eval batch, gradcheck unit or set-up) it belongs to.  Spans
stay in memory and are written out once, at exit.
"""

import contextlib
import json
import time

import numpy as np

# (module, attribute, span name).  The same function reached through two
# modules' namespaces gets two wrappers with one span name.
TARGETS = (
    ("kernels", "lstm_layer_forward", "kernels.forward"),
    ("kernels", "lstm_layer_backward", "kernels.backward"),
    ("model", "model_forward", "model.forward"),
    ("model", "model_backward", "model.backward"),
    ("model", "save_checkpoint", "checkpoint.save"),
    ("model", "load_checkpoint", "checkpoint.load"),
    ("train", "model_forward", "model.forward"),
    ("train", "evaluate", "train.evaluate"),
    ("train", "cross_entropy", "train.loss"),
    ("train", "adam_update", "train.adam"),
    ("train", "max_norm_constrain", "train.max_norm"),
    ("gradcheck", "model_forward", "model.forward"),
    ("gradcheck", "finite_diff", "gradcheck.finite_diff"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "load_embeddings", "data.load_embeddings"),
    ("data", "build_vocab", "data.build_vocab"),
    ("data", "build_embedding_matrix", "data.build_embedding_matrix"),
    ("data", "vectorize", "data.vectorize"),
    ("data", "make_batches", "data.make_batches"),
    ("cli", "main", "cli.main"),
)


def held_nbytes(obj):
    """Bytes of the distinct numpy buffers reachable from obj (views counted once)."""
    seen = {}
    stack = [obj]
    visited = set()
    while stack:
        x = stack.pop()
        if id(x) in visited:
            continue
        visited.add(id(x))
        if isinstance(x, np.ndarray):
            base = x
            while isinstance(base.base, np.ndarray):
                base = base.base
            seen[id(base)] = base.nbytes
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return sum(seen.values())


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self.weight_labels = {}  # id(weight array) -> "dense0.fwd", "top.bwd", ...
        self._stack = []
        self._step = -1
        self._installed = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, attrs):
        span = {"id": len(self.spans), "name": name, "step": self._step,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "t0": time.perf_counter(), "t1": None, **attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["t1"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def step(self, name, **attrs):
        """A root span that starts a new step id."""
        self._step += 1
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = {}
            if name.startswith("kernels."):
                for a in args:
                    label = tracer.weight_labels.get(id(a))
                    if label:
                        attrs["label"] = label
                        break
            span = tracer._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "model.forward" and tracer._root_name() == "train.step":
                span["held_bytes"] = held_nbytes(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _root_name(self):
        return self._stack[0]["name"] if self._stack else None

    def install(self, pkg):
        """Wrap every target present on the package namespace ``pkg``."""
        self.uninstall()
        for module_name, attr, span_name in TARGETS:
            module = getattr(pkg, module_name, None)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def enable(self, pkg, on):
        """Install the wrappers on pkg or remove them, whichever ``on`` asks."""
        if on and not self._installed:
            self.install(pkg)
        elif not on:
            self.uninstall()

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def label_weights(self, model):
        self.weight_labels = {
            id(arr): name[:-2] for name, arr in model.named_params() if name.endswith(".W")
        }

    def write(self, path):
        t_zero = self.spans[0]["t0"] if self.spans else 0.0
        rows = [{**s, "t0": round((s["t0"] - t_zero) * 1e6, 1),
                 "t1": round((s["t1"] - t_zero) * 1e6, 1)} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"time_unit": "us", "spans": rows}, fh)
