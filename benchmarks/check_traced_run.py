"""Strict check of a short traced perfbench run on every workload.

Usage, from the root of a checkout:

    python3 benchmarks/check_traced_run.py

Runs ``perfbench/run.py --workload all --seconds 2 --trace 1`` once and
exits 1 if that run

- exits non-zero,
- ends with a last stdout line that strict JSON parsing rejects (NaN and
  Infinity included) or that is not an object,
- reports ``correct`` other than true,
- lacks a ``<workload>.<per_layer>`` metric named in BENCHMARK.json, or
- does not print exactly one ``hooks missing: none`` line per workload.

For a longer run, call perfbench/run.py directly. This script reads
BENCHMARK.json and perfbench/ and edits neither; the run writes what
perfbench/run.py writes, under .perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"non-finite number {constant}")


def problems(stdout, returncode, workloads, per_layer):
    """What is wrong with one ``--workload all`` traced run, given its stdout
    and exit status."""
    found = [] if returncode == 0 else [f"exit status {returncode}"]
    lines = stdout.splitlines()
    hooks = [line.split("hooks missing:", 1)[1].strip()
             for line in lines if "hooks missing:" in line]
    if hooks != ["none"] * len(workloads):
        found.append(f"expected {len(workloads)} 'hooks missing: none' lines, "
                     f"got {hooks}")
    try:
        result = json.loads(lines[-1] if lines else "", parse_constant=_refuse)
    except ValueError as exc:
        return found + [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return found + ["last line is not a JSON object"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    metrics = result.get("metrics", {})
    missing = [f"{w}.{name}" for w in workloads for name in per_layer
               if f"{w}.{name}" not in metrics]
    if missing:
        found.append(f"per_layer metrics missing: {', '.join(missing)}")
    return found


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
           "--seconds", "2", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    found = problems(proc.stdout, proc.returncode, workloads, per_layer)
    for problem in found:
        print(f"check_traced_run: {problem}", file=sys.stderr)
    if not found:
        print(f"check_traced_run: ok ({len(workloads)} workloads, "
              f"{len(per_layer)} per_layer metrics each, hooks missing: none)",
              file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
