"""Workload definitions and the closed-loop pipeline that measures them.

One process runs one workload.  It drives the package only through its
public module functions, one batch at a time, the next call only after the
previous one returns.  The phases of a run:

  set-up     three times: import the package, load the TSV splits and the
             embeddings file, build vocab and matrix, vectorize, build the
             model; the last one is kept
  reference  one training step on fixed inputs at the workload's shape,
             compared with perfbench/reference.json
  measure    for --seconds, units of three activities interleaved in
             proportion to SHARES:
               train      one training step as in ``train._fit`` (dropout
                          forward, cross-entropy, backward, Adam on every
                          parameter, max-norm)
               eval       ``train.evaluate`` on one batch
               gradcheck  ``finite_diff`` over four elements of the
                          model's first bias, on one sentence (B=1)
               reference  the benchmark's own fixed kernel (refkernel.py),
                          whose median gives the CPU speed the run saw
  gates      checkpoint round trip; ``dcbilstm eval`` through ``cli.main``
             against in-process ``evaluate`` on the test split

Every check counts as one attempted operation; a failed one makes the run
fail.  Throughputs are reported both as measured and scaled to the
reference kernel's nominal speed; see refkernel.py for why.
"""

import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import corpus
from refkernel import NOMINAL_S, RefKernel
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
PACKAGE_MODULES = ("data", "kernels", "model", "train", "gradcheck", "cli")
REQUIRED_MODULES = ("data", "model", "train", "gradcheck", "cli")

SETUP_REPS = 3
MIN_TRAIN_STEPS = 4  # timed steps after the excluded first one
MIN_EVAL_BATCHES = 5
REF_SEED = 20180203
REF_BATCH = 8
REF_RTOL = 1e-12  # relative to each gradient tensor's norm
FD_TOL_REL, FD_TOL_ABS = 1e-4, 1e-7  # check_model's defaults
FD_WINDOW = 4  # bias elements certified per finite-difference unit
CKPT_GATE_SENTENCES = 16

# SST-2 sizes and lengths, except the test split: the gates evaluate it
# twice per run, so it is kept small.  The embeddings file holds about twice
# the corpus vocabulary.
SST2 = corpus.CorpusSpec(
    name="sst2", n_train=6920, n_dev=872, n_test=200, len_mean=19.0, len_sd=9.0,
    len_min=1, len_max=56, lexicon=22000, zipf_s=1.0, zipf_q=2.7, dim=300,
    emb_coverage=0.9, emb_extra=0.55,
)
# of the measured time
SHARES = {"train": 0.57, "eval": 0.28, "gradcheck": 0.1, "reference": 0.05}


@dataclass(frozen=True)
class Workload:
    name: str
    dl: int
    dh: int
    th: int
    batch: int


# Why each workload exists is stated in BENCHMARK.json.  sst2-dl15 runs
# B=50, not the paper's 200: with the numpy kernels a B=200 step takes about
# 9 s on a 2-vCPU Xeon, too long for several steps per run within the
# benchmark's time budget; memory per step scales with B, so the kept traces
# still set the training peak.
WORKLOADS = {w.name: w for w in (
    Workload("sst2-dl3", dl=3, dh=10, th=50, batch=200),
    Workload("sst2-dl15", dl=15, dh=13, th=100, batch=50),
)}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the package is missing)."""


def import_package():
    """Fresh import of dcbilstm from the checkout's src/, as a namespace."""
    for name in [n for n in sys.modules if n == "dcbilstm" or n.startswith("dcbilstm.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        root = importlib.import_module("dcbilstm")
    except ImportError as exc:
        raise BenchError(f"cannot import dcbilstm from {SRC}: {exc}") from exc
    if not Path(root.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"dcbilstm imported from {root.__file__}, not from {SRC}")
    mods = {}
    for name in PACKAGE_MODULES:
        try:
            mods[name] = importlib.import_module(f"dcbilstm.{name}")
        except ModuleNotFoundError:
            if name in REQUIRED_MODULES:
                raise
            mods[name] = None
    return SimpleNamespace(root=root, **mods)


def median(xs):
    return statistics.median(xs) if xs else None


def high_percentile(xs):
    """(p, value): the highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 20:
        return None
    p = 100.0 * (1.0 - 10.0 / n)
    return round(p, 2), float(np.percentile(xs, p))


def spread_order(keys):
    """Indices of keys, visited so that every prefix spans their range.

    The indices are ranked by key, then taken at the bit-reversed (van der
    Corput) fractions 1/2, 1/4, 3/4, 1/8, ... of the ranking.  A run that
    times the first n batches in this order sees their padded lengths at
    evenly spaced quantiles, so its median step depends on the length
    distribution of the whole epoch, not on which batches the seed happens
    to put first.
    """
    n = len(keys)
    if n == 0:
        return []
    ranked = sorted(range(n), key=lambda i: (keys[i], i))
    bits = (n - 1).bit_length()
    order, seen = [], set()
    for j in range(1 << bits):
        r = int(((int(f"{j:0{bits}b}"[::-1], 2) + 0.5) * n) // (1 << bits))
        if r not in seen:
            seen.add(r)
            order.append(ranked[r])
    return order


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reference step


def reference_step(pkg, wl):
    """Loss and gradients of one training step on fixed inputs at wl's shape."""
    D, Mo, Tr = pkg.data, pkg.model, pkg.train
    c = SST2
    rng = np.random.default_rng(REF_SEED)
    emb = 0.4 * rng.standard_normal((64, c.dim))
    emb[:2] = 0.0
    lengths = np.clip(np.rint(rng.normal(c.len_mean, c.len_sd, REF_BATCH)), c.len_min, c.len_max)
    indexed = [(rng.integers(2, 64, int(L)).tolist(), int(rng.integers(0, 2))) for L in lengths]
    batch = D.make_batches(indexed, REF_BATCH)[0]
    cfg = Mo.ModelConfig(m=c.dim, dl=wl.dl, dh=wl.dh, th=wl.th, num_classes=2).validate()
    model = Mo.Model.build(cfg, np.random.default_rng(REF_SEED + 1))
    probs, trace = Mo.model_forward(model, emb, batch, np.random.default_rng(REF_SEED + 2),
                                    training=True)
    loss, dlogits = Tr.cross_entropy(probs, batch.labels)
    grads, d_emb = Mo.model_backward(model, trace, dlogits)
    return loss, grads, d_emb


def _summary(g, layout_free=False):
    """Norm, a fixed random projection and eight fixed entries of a gradient."""
    flat = np.asarray(g, dtype=np.float64).ravel()
    if layout_free:
        return {"norm": float(np.linalg.norm(flat)), "sum": float(flat.sum())}
    out = {"size": int(flat.size), "norm": float(np.linalg.norm(flat))}
    rng = np.random.default_rng(flat.size)
    probe = rng.standard_normal(flat.size)
    out["probe"] = float(flat @ (probe / np.linalg.norm(probe)))
    picks = np.sort(rng.choice(flat.size, size=min(8, flat.size), replace=False))
    out["picks"] = picks.tolist()
    out["values"] = flat[picks].tolist()
    return out


def summarize_reference(pkg, wl):
    loss, grads, d_emb = reference_step(pkg, wl)
    # the input gradient is compared by layout-free statistics only, so a
    # change of the batch layout does not trip the gate
    return {"loss": float(loss),
            "grads": {**{k: _summary(v) for k, v in sorted(grads.items())},
                      "input": _summary(d_emb, layout_free=True)}}


def compare_reference(got, ref):
    """List of mismatches between two summaries (empty when they agree)."""
    bad = []
    if abs(got["loss"] - ref["loss"]) > REF_RTOL * abs(ref["loss"]):
        bad.append(f"loss {got['loss']!r} != {ref['loss']!r}")
    if set(got["grads"]) != set(ref["grads"]):
        bad.append(f"gradient names {sorted(got['grads'])} != {sorted(ref['grads'])}")
        return bad
    for name, r in ref["grads"].items():
        g = got["grads"][name]
        scale = max(r["norm"], 1e-300)
        if g.get("size") != r.get("size") or g.get("picks") != r.get("picks"):
            bad.append(f"{name}: size {g.get('size')} != {r.get('size')}")
            continue
        pairs = [("norm", g["norm"], r["norm"])]
        pairs += [(k, g[k], r[k]) for k in ("probe", "sum") if k in r]
        pairs += [(f"[{i}]", a, b) for i, a, b in zip(r.get("picks", []), g.get("values", []),
                                                      r.get("values", []))]
        for what, a, b in pairs:
            if abs(a - b) > REF_RTOL * scale:
                bad.append(f"{name} {what}: {a!r} != {b!r} (|d|/norm {abs(a - b) / scale:.2e})")
    return bad


def write_reference():
    pkg = import_package()
    ref = {"rtol_vs_norm": REF_RTOL,
           "workloads": {name: summarize_reference(pkg, wl) for name, wl in WORKLOADS.items()}}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return REFERENCE_PATH


# ---------------------------------------------------------------------------
# the run


class Run:
    """State and measurements of one workload run."""

    def __init__(self, wl, seed, seconds, trace, state_dir):
        self.wl = wl
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.tracer = Tracer() if trace else None
        self.state_dir = Path(state_dir)
        self.attempted = 0
        self.failures = []
        self.samples = {k: [] for k in ("setup_s", "train_step_s", "train_step_traced_s",
                                        "eval_batch_s", "gradcheck_unit_s", "ref_kernel_s")}
        self.extra = {}
        self.gradcheck_rates = []  # loss evaluations per second of each unit
        self.measured = {}  # name -> (value, unit), throughputs before scaling

    # -- bookkeeping ---------------------------------------------------------

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"FAILED {what} {detail}", file=sys.stderr)
        return ok

    def _step(self, name, traced=True, **attrs):
        if self.tracer is None or not traced:
            return contextlib.nullcontext()
        return self.tracer.step(name, **attrs)

    # -- phases --------------------------------------------------------------

    def setup(self, files):
        """Import, data pipeline and model build; returns the run state."""
        wl = self.wl
        with self._step("setup"):
            pkg = import_package()
            if self.tracer is not None:
                self.tracer.install(pkg)
            D, Mo = pkg.data, pkg.model
            splits = [D.load_dataset(p, "tsv") for p in (files.train, files.dev, files.test)]
            table = D.load_embeddings(files.embeddings)
            vocab = D.build_vocab(splits, table)
            emb = D.build_embedding_matrix(vocab, table)
            train, dev, test = (D.vectorize(s, vocab, drop_unknown=True) for s in splits)
            cfg = Mo.ModelConfig(m=table.dim, dl=wl.dl, dh=wl.dh, th=wl.th,
                                 num_classes=2).validate()
            init_ss, batch_ss, drop_ss = np.random.SeedSequence(self.seed).spawn(3)
            model = Mo.Model.build(cfg, np.random.Generator(np.random.PCG64(init_ss)))
        return SimpleNamespace(
            pkg=pkg, vocab=vocab, emb=emb, train=train, dev=dev, test=test, model=model,
            batch_rng=np.random.Generator(np.random.PCG64(batch_ss)),
            drop_rng=np.random.Generator(np.random.PCG64(drop_ss)),
        )

    def reference_gate(self, st):
        ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"][self.wl.name]
        with self._step("gate.reference"):
            bad = compare_reference(summarize_reference(st.pkg, self.wl), ref)
        self.check("reference step", not bad, "; ".join(bad[:5]))

    def _hooks(self, st, on):
        if self.tracer is not None:
            self.tracer.enable(st.pkg, on)

    def _train_units(self, st):
        """Training steps; yields (seconds, minimum reached) after each."""
        D, Mo, Tr = st.pkg.data, st.pkg.model, st.pkg.train
        model, B = st.model, self.wl.batch
        hp = Tr.TrainConfig(train_path="-")
        states = {name: Tr.AdamState.like(arr) for name, arr in model.named_params()}
        times, traced_times = self.samples["train_step_s"], self.samples["train_step_traced_s"]
        real = padded = 0

        def timed_epoch():
            # full batches of a shuffled epoch, in spread_order of padded
            # length; the short last batch would understate a step of B
            full = [b for b in D.make_batches(st.train, B, st.batch_rng, shuffle=True)
                    if len(b.lengths) == B]
            return [full[i] for i in spread_order([b.indices.shape[1] for b in full])]

        epoch = timed_epoch()
        # the excluded first step runs the epoch's longest batch, which sets
        # a training epoch's peak memory, so peak_rss_mb sees it in a short run
        batches = iter([max(epoch, key=lambda b: b.indices.shape[1])] + epoch)
        for k in itertools.count():
            batch = next(batches, None)
            if batch is None:
                batches = iter(timed_epoch())
                batch = next(batches)
            tokens = int(batch.lengths.sum())
            real += tokens
            padded += int(batch.indices.size)
            self.extra["pad_efficiency"] = real / padded
            # the traced run alternates traced and untraced steps, so the
            # tracing overhead is measured on the same stream of batches
            traced = self.tracer is not None and k % 2 == 1
            self._hooks(st, traced)
            t0 = time.perf_counter()
            with self._step("train.step", traced, tokens=tokens):
                probs, trace = Mo.model_forward(model, st.emb, batch, st.drop_rng, training=True)
                loss, dlogits = Tr.cross_entropy(probs, batch.labels)
                grads, _ = Mo.model_backward(model, trace, dlogits)
                for name, arr in model.named_params():
                    Tr.adam_update(arr, grads[name], states[name], hp.lr, hp.beta1, hp.beta2,
                                   hp.eps)
                Tr.max_norm_constrain(model.softmax_W, model.config.max_norm_s)
            dt = time.perf_counter() - t0
            del probs, trace, grads
            self.check(f"train step {k}", bool(np.isfinite(loss)), f"loss {loss}")
            if k > 0:  # the first step is excluded
                (traced_times if traced else times).append(dt)
            yield dt, k >= MIN_TRAIN_STEPS

    def _eval_units(self, st):
        """train.evaluate on one batch at a time, cycling over the full
        batches of the test, dev and train splits in spread_order of their
        padded length."""
        Tr, B = st.pkg.train, self.wl.batch
        chunks = [split[i:i + B] for split in (st.test, st.dev, st.train)
                  for i in range(0, len(split) - B + 1, B)]
        order = spread_order([max(len(idxs) for idxs, _ in c) for c in chunks])
        for j, chunk in enumerate(itertools.cycle([chunks[i] for i in order])):
            self._hooks(st, True)
            tokens = sum(len(idxs) for idxs, _ in chunk)
            t0 = time.perf_counter()
            with self._step("eval.batch", tokens=tokens):
                acc = Tr.evaluate(st.model, st.emb, chunk, B)
            dt = time.perf_counter() - t0
            self.check(f"eval batch {j}", 0.0 <= acc <= 1.0, f"accuracy {acc}")
            self.samples["eval_batch_s"].append(dt)
            yield dt, j + 1 >= MIN_EVAL_BATCHES

    def _gradcheck_window(self, st, sentence, k):
        """finite_diff over FD_WINDOW elements of the first layer's bias at B=1.

        The window moves with k, so successive units certify the whole
        bias.  It is a view, so the nudges reach the model; were it a copy,
        the numeric gradient would be zero and the check would fail.
        """
        D, Mo, Gc = st.pkg.data, st.pkg.model, st.pkg.gradcheck
        model = st.model
        batch = D.make_batches([sentence], 1)[0]
        label = sentence[1]

        def loss_fn():
            probs, _ = Mo.model_forward(model, st.emb, batch, training=False)
            return float(-np.log(max(probs[0, label], np.finfo(np.float64).tiny)))

        probs, trace = Mo.model_forward(model, st.emb, batch, training=False)
        dlogits = probs.copy()
        dlogits[0, label] -= 1.0
        analytic, _ = Mo.model_backward(model, trace, dlogits)
        name, bias = next((n, a) for n, a in model.named_params() if n.endswith(".b"))
        lo = (k * FD_WINDOW) % bias.shape[1]
        numeric = Gc.finite_diff(loss_fn, {name: bias[:, lo:lo + FD_WINDOW]})[name]
        want = analytic[name][:, lo:lo + FD_WINDOW]
        diff = np.abs(want - numeric)
        rel = diff / np.maximum(np.maximum(np.abs(want), np.abs(numeric)), 1e-12)
        ok = bool(((rel <= FD_TOL_REL) | (diff <= FD_TOL_ABS)).all())
        self.check(f"finite-difference {name}[{lo}:{lo + FD_WINDOW}]", ok,
                   f"max rel {rel.max():.3e}")
        return numeric.size

    def _gradcheck_units(self, st):
        """One finite-difference window per unit."""
        # a sentence of the mean length, so the cost per evaluation is the
        # same whatever the seed
        want = int(round(SST2.len_mean))
        sentence = next(ex for ex in st.test if len(ex[0]) == want)
        for k in itertools.count():
            self._hooks(st, True)
            t0 = time.perf_counter()
            with self._step("gradcheck.unit"):
                elements = self._gradcheck_window(st, sentence, k)
            dt = time.perf_counter() - t0
            self.samples["gradcheck_unit_s"].append(dt)
            # finite_diff evaluates the loss twice per element
            self.gradcheck_rates.append(2 * elements / dt)
            yield dt, True

    def _reference_units(self):
        kernel = RefKernel()
        while True:
            dt = kernel.timed()
            self.samples["ref_kernel_s"].append(dt)
            yield dt, True

    def measure(self, st):
        """Interleave training, eval, gradcheck and reference-kernel units in
        proportion to SHARES, so that each metric samples the whole run
        rather than one stretch of it, until the run's time is up and every
        activity has its minimum."""
        units = {"train": self._train_units(st), "eval": self._eval_units(st),
                 "gradcheck": self._gradcheck_units(st), "reference": self._reference_units()}
        spent = dict.fromkeys(units, 0.0)
        satisfied = dict.fromkeys(units, False)
        t_start = time.perf_counter()
        while True:
            over = time.perf_counter() - t_start >= self.seconds
            todo = [a for a in units if not (over and satisfied[a])]
            if not todo:
                break
            a = min(todo, key=lambda a: spent[a] / SHARES[a])
            dt, satisfied[a] = next(units[a])
            spent[a] += dt

    def gates(self, st, files):
        D, Mo, Tr, B = st.pkg.data, st.pkg.model, st.pkg.train, self.wl.batch
        batch = D.make_batches(st.test[:CKPT_GATE_SENTENCES], CKPT_GATE_SENTENCES)[0]
        self.state_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.state_dir) as work:
            path = os.path.join(work, "model.ckpt")
            with self._step("gate.checkpoint"):
                before, _ = Mo.model_forward(st.model, st.emb, batch, training=False)
                Mo.save_checkpoint(path, st.model, self.seed, vocab=st.vocab, emb_matrix=st.emb)
                model2, meta = Mo.load_checkpoint(path)
                after, _ = Mo.model_forward(model2, meta["emb_matrix"], batch, training=False)
            self.check("checkpoint round trip",
                       np.array_equal(before, after) and meta["vocab"] == st.vocab,
                       "eval probabilities or vocab differ after save/load")
            with self._step("gate.evaluate"):
                test_acc = Tr.evaluate(st.model, st.emb, st.test, B)
            out = io.StringIO()
            with self._step("gate.cli"), contextlib.redirect_stdout(out):
                rc = st.pkg.cli.main(["eval", "--checkpoint", path, "--data", files.test,
                                      "--batch-size", str(B)])
        want = f"accuracy {test_acc:.4f}"
        self.check("cli eval", rc == 0 and out.getvalue().strip() == want,
                   f"exit {rc}, printed {out.getvalue().strip()!r}, in-process {want!r}")

    def execute(self):
        """Run every phase; returns (end-to-end metrics, run state)."""
        wl = self.wl
        files = corpus.ensure(SST2, self.seed, self.state_dir / "inputs")
        setup_times = self.samples["setup_s"]
        for _ in range(SETUP_REPS):
            st = None  # let the previous set-up's tables go before the next one
            t0 = time.perf_counter()
            st = self.setup(files)
            setup_times.append(time.perf_counter() - t0)
            self.extra.setdefault("setup_rss_mb", maxrss_mb())
        if self.tracer is not None:
            self.tracer.label_weights(st.model)
        self.reference_gate(st)
        self.measure(st)
        # the gates below are checks, not part of the workload's footprint
        peak_rss = maxrss_mb()
        self._hooks(st, True)
        self.gates(st, files)
        self.extra["rss_after_gates_mb"] = maxrss_mb()
        train = wl.batch / median(self.samples["train_step_s"])
        evals = wl.batch / median(self.samples["eval_batch_s"])
        grads = median(self.gradcheck_rates)
        self.measured = {"train_sent_per_s": (train, "sentences/s"),
                         "eval_sent_per_s": (evals, "sentences/s"),
                         "gradcheck_evals_per_s": (grads, "evals/s")}
        self.extra["measured"] = {k: v for k, (v, _) in self.measured.items()}
        self.extra["ref_kernel_ms"] = 1e3 * median(self.samples["ref_kernel_s"])
        # above 1 when the run's CPU was slower than nominal
        scale = median(self.samples["ref_kernel_s"]) / NOMINAL_S
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "train_sent_per_ref_s": (train * scale, "sentences/ref-s"),
            "eval_sent_per_ref_s": (evals * scale, "sentences/ref-s"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "gradcheck_evals_per_ref_s": (grads * scale, "evals/ref-s"),
        }
        return metrics, st
