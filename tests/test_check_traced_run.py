"""The strict check that CI applies to a short traced perfbench run."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_traced_run.py"
_spec = importlib.util.spec_from_file_location("check_traced_run", _SCRIPT)
check_traced_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_traced_run)

WORKLOADS = ["w1", "w2"]
PER_LAYER = ["kernels.dense.forward_ms", "trace.overhead_ratio"]


def _stdout(hooks=("none", "none"), correct=True, drop=None, value=1.5, tail=None):
    """A ``--workload all --trace 1`` stdout: one tracing line per workload,
    then the combined result line."""
    lines = [f"  tracing: 10 spans; hooks missing: {h}" for h in hooks]
    metrics = {f"{w}.{name}": {"value": value, "unit": "ms"}
               for w in WORKLOADS for name in PER_LAYER}
    metrics.pop(drop, None)
    lines.append(json.dumps({"correct": correct, "attempted": 4, "failed": 0,
                             "metrics": metrics}))
    if tail is not None:
        lines.append(tail)
    return "\n".join(lines) + "\n"


def test_a_good_run_has_no_problems():
    assert check_traced_run.problems(_stdout(), 0, WORKLOADS, PER_LAYER) == []


@pytest.mark.parametrize("stdout, returncode, expect", [
    (_stdout(), 1, "exit status 1"),
    (_stdout(value=float("nan")), 0, "not strict JSON"),
    (_stdout(value=float("inf")), 0, "not strict JSON"),
    (_stdout(value=float("-inf")), 0, "not strict JSON"),
    (_stdout(correct=False), 0, "correct is False"),
    (_stdout(drop="w2.trace.overhead_ratio"), 0, "missing: w2.trace.overhead_ratio"),
    (_stdout(hooks=("none", "['kernels.forward']")), 0, "hooks missing"),
    (_stdout(hooks=("none",)), 0, "hooks missing"),
    (_stdout(hooks=("none", "none", "none")), 0, "hooks missing"),
    ("", 0, "not strict JSON"),
    (_stdout(tail="workload w2 failed with status 1"), 0, "not strict JSON"),
    (_stdout(tail="[1, 2]"), 0, "not a JSON object"),
], ids=["exit-1", "nan", "infinity", "minus-infinity", "correct-false",
        "metric-missing", "hook-missing", "tracing-line-missing",
        "tracing-line-extra", "empty-stdout", "trailing-text", "not-an-object"])
def test_each_fault_is_reported(stdout, returncode, expect):
    found = check_traced_run.problems(stdout, returncode, WORKLOADS, PER_LAYER)
    assert any(expect in problem for problem in found), found
