"""End-to-end and per-layer benchmark of the dcbilstm package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sst2-dl3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 -m pytest -q perfbench        # the benchmark's own tests
    python3 perfbench/run.py --write-reference   # refresh reference.json

Workloads are listed in workloads.py.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reruns the workload with spans around the package's
public functions and reports per-layer metrics plus the tracing overhead.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same numbers by name with
units, the throughputs as measured before scaling to the reference kernel's
speed (refkernel.py), the provenance, and the error rate.  Full results,
generated inputs and traces go under .perfbench/ in the checkout.

The BLAS thread count is fixed below, before numpy is imported, and each
workload runs closed-loop in one process.  The package is imported from the
checkout's src/; without it the benchmark exits with status 2.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import report  # noqa: E402
import workloads as W  # noqa: E402

STATE_DIR = W.ROOT / ".perfbench"


def _timing_summary(xs):
    out = {"n": len(xs), "median": W.median(xs)}
    hi = W.high_percentile(xs)
    if hi:
        out[f"p{hi[0]:g}"] = hi[1]
    return out


def run_one(args):
    wl = W.WORKLOADS[args.workload]
    pkg = W.import_package()
    prov = report.provenance(pkg, W.ROOT, args.seed, BLAS_THREADS)
    run = W.Run(wl, args.seed, args.seconds, bool(args.trace), STATE_DIR)
    try:
        e2e, st = run.execute()
    except Exception:  # a crash in the package is a failed run, reported as such
        traceback.print_exc()
        print(f"error_rate: run aborted after {run.attempted} operations", file=sys.stderr)
        return 1

    if args.trace:
        values = report.layer_metrics(run.tracer, st.model, run.extra, run.samples)
        metrics = {k: (v, report.LAYER_METRICS[k]) for k, v in values.items() if v is not None}
        absent = sorted(k for k, v in values.items() if v is None)
        trace_dir = STATE_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        run.tracer.write(trace_dir / f"{wl.name}-seed{args.seed}.json")
    else:
        metrics, absent = e2e, []
    failed = len(run.failures)

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    counts = {k: len(v) for k, v in run.samples.items()}
    print("samples " + json.dumps(counts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28s} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  as measured, with the reference kernel at {run.extra['ref_kernel_ms']:.4g} ms "
              f"(nominal {W.NOMINAL_S * 1e3:g} ms):")
        for name, (value, unit) in run.measured.items():
            print(f"  {name:<28s} {value:>14.6g} {unit}")
    if absent:
        print("absent (no spans recorded, see hooks missing): " + ", ".join(absent))
    if args.trace:
        print(f"  tracing: {len(run.tracer.spans)} spans; hooks missing: "
              f"{sorted(run.tracer.missing) or 'none'}")
    print(f"  error_rate {failed / run.attempted:.6g} ratio "
          f"({failed} failed of {run.attempted} attempted operations)")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {**result, "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "absent": absent, "failures": run.failures,
              "error_rate": failed / run.attempted,
              "timings_s": {k: _timing_summary(v) for k, v in run.samples.items()},
              "extra": run.extra}
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in W.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with status {proc.returncode}")
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute reference.json from the package in src/ and exit")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.write_reference:
            print(f"wrote {W.write_reference()}")
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        return run_all(args) if args.workload == "all" else run_one(args)
    except W.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
