"""Smoke test of the benchmark itself, at tiny scale.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at 1 chip, 100 FC
examples and a handful of service jobs; checks that the result line is
well formed, the outputs are correct, every metric of ``BENCHMARK.json``
is printed with its unit, and the traced run reports coverage.  Takes
about two minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_run(workload, trace, errors):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    label = f"{workload} trace={trace}"
    before = len(errors)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{label}: exit {proc.returncode}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    expected = {m["name"]: m["unit"]
                for m in MANIFEST["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)):
            errors.append(f"{label}: {name} = {entry}")
    if trace:
        if not any(line.startswith("coverage ") for line in lines):
            errors.append(f"{label}: no coverage line")
        if not 0.0 < metrics["trace.coverage"]["value"] <= 1.0 + 1e-9:
            errors.append(f"{label}: coverage {metrics['trace.coverage']}")
    print(f"{'ok' if len(errors) == before else 'FAILED'}  {label}", flush=True)


def main():
    errors = []
    if [w["name"] for w in MANIFEST["workloads"]] != list(wl.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, errors)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
