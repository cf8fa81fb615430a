"""Summarize stored run results over several seeds into one JSON record.

Usage, after running every workload for the seeds with run.py:

    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/results/NAME.json

For each workload and end-to-end metric it records the per-seed values, the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the interquartile distance as a share of the median; the same for the
throughputs as measured, before scaling to the reference kernel's speed, and
for the kernel's median time.  Per-layer metrics come
from the traced result of the first seed that has one.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import workloads as W

RESULTS = W.ROOT / ".perfbench" / "results"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def summarize(workloads, seeds):
    out = {}
    provenance = None
    for name in workloads:
        runs = [json.loads(p.read_text()) for s in seeds
                if (p := RESULTS / f"{name}-seed{s}-trace0.json").exists()]
        if not runs:
            continue
        provenance = provenance or {k: v for k, v in runs[0]["provenance"].items() if k != "seed"}
        metrics = {key: {"unit": first["unit"],
                         **_stats([r["metrics"][key]["value"] for r in runs])}
                   for key, first in runs[0]["metrics"].items()}
        # the throughputs before scaling to the reference kernel's speed
        measured = {key: _stats([r["extra"]["measured"][key] for r in runs])
                    for key in runs[0]["extra"]["measured"]}
        measured["ref_kernel_ms"] = _stats([r["extra"]["ref_kernel_ms"] for r in runs])
        traced = next((json.loads(p.read_text()) for s in seeds
                       if (p := RESULTS / f"{name}-seed{s}-trace1.json").exists()), None)
        out[name] = {
            "seeds": [r["provenance"]["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "seconds": runs[0]["seconds"],
            "end_to_end": metrics,
            "measured": measured,
            "samples_per_run": {k: v["n"] for k, v in runs[0]["timings_s"].items()},
            "per_layer": None if traced is None else {
                "seed": traced["provenance"]["seed"], "absent": traced["absent"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    return {"provenance": provenance, "workloads": out}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="one seed or a range such as 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    summary = summarize(W.WORKLOADS, _seeds(args.seeds))
    if not summary["workloads"]:
        print(f"no results for seeds {args.seeds} under {RESULTS}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for name, w in summary["workloads"].items():
        for key, m in w["end_to_end"].items():
            print(f"{name:<14s} {key:<24s} median {m['median']:<12.6g} {m['unit']:<12s} "
                  f"spread {m['spread']:.4f} (n={len(m['values'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
