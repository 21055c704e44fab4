"""Campaign benchmark: cold ladder, warm population tier, mixed service traffic.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ladder_cold --seed 1 --seconds 30 --trace 0

Every set-up and every timed sample runs in a fresh interpreter
(``perfbench/child.py``) against the checkout's ``src/``.  The run keeps
starting samples while another fits in ``--seconds``, re-times the
set-up until it has at least three set-up times, and prints medians.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced sample and prints the per-layer metrics.  The
last stdout line is the JSON result; the lines before it are the row
digest, the notes and the prediction checks.

Scratch files (the artifact cache of the warm workloads) live under
``.perfbench_work/`` in the checkout and are removed at exit; a traced
run leaves its spans in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import LAYERS  # noqa: E402

#: Hard limit for one invocation, below the 180 s every run must meet.
DEADLINE_S = 170.0
#: Set-up timings wanted per run (samples count, probes fill the rest).
MIN_SETUPS = 3
PLAN = json.loads((HERE / "plan.json").read_text())


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


class Orchestrator:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.scale = wl.SCALES["tiny" if args.tiny else "full"][args.workload]
        self.started = time.monotonic()
        self.work = (ROOT / ".perfbench_work"
                     / f"{args.workload}-{args.seed}-{os.getpid()}")
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("EVAL_REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    # -- child processes -------------------------------------------------
    def child(self, phase, **extra):
        task = {
            "phase": phase,
            "workload": self.workload,
            "seed": self.args.seed,
            "scale": self.scale,
            "cache_dir": str(self.work / "cache"),
            "reference": str(self.work / "reference.json"),
            **extra,
        }
        if phase != "prefill":
            # A pass starts from the prefilled cache: summaries written
            # by an earlier pass must not turn its computes into reads.
            shutil.rmtree(self.work / "cache" / "summaries", ignore_errors=True)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next task")
        task["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(task)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{phase} task timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{phase} task exited with {proc.returncode}")
        return json.loads(lines[-1])

    def prefill(self):
        if self.workload != "ladder_cold":
            self.work.mkdir(parents=True, exist_ok=True)
            self.child("prefill")

    # -- the two kinds of run ------------------------------------------
    def measure(self):
        samples = []
        window_start = time.monotonic()
        while True:
            samples.append(self.child("sample"))
            elapsed = time.monotonic() - window_start
            typical = statistics.median(
                s["setup_s"] + s["wall_s"] for s in samples
            )
            if elapsed + typical > self.args.seconds:
                break
        setups = [s["setup_s"] for s in samples]
        while len(setups) < MIN_SETUPS:
            setups.append(self.child("setup")["setup_s"])
        return samples, setups

    def trace(self):
        untraced = self.child("sample")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        run_id = f"{self.workload}-seed{self.args.seed}"
        traced = self.child("trace", run_id=run_id,
                            spans_out=str(out_dir / f"{run_id}.json"))
        traced["per_layer"]["trace.overhead_s"] = (
            traced["wall_s"] - untraced["wall_s"]
        )
        return [untraced, traced]


def _end_to_end(samples, setups):
    latencies = [sorted(s["latencies_ms"]) for s in samples]
    n = len(latencies[0])
    q = wl.tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "units_per_s": statistics.median(s["units"] / s["wall_s"] for s in samples),
        "job_p50_ms": statistics.median(wl.nearest_rank(v, 50) for v in latencies),
        "job_tail_ms": statistics.median(wl.nearest_rank(v, q) for v in latencies),
        "rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "paper_gap": statistics.median(s["paper_gap"] for s in samples),
    }
    note = (f"job_tail_ms is p{q} of {n} jobs per pass, median of "
            f"{len(samples)} pass(es)")
    steal = [s["steal"] for s in samples if s["steal"] is not None]
    if steal:
        note += f"; host CPU steal during the passes {max(steal):.1%} at most"
    return metrics, note


def _prediction_lines(workload, per_layer):
    """Check the plan's "flat on" predictions for this workload."""
    lines = []
    checks = PLAN["flat_checks"].get(workload, {})
    wall = per_layer["trace.wall_s"]
    for name in checks.get("zero", []):
        ok = per_layer[name] == 0.0
        lines.append(f"prediction {name} == 0: {'holds' if ok else 'FAILS'} "
                     f"({per_layer[name]:.6g})")
    for name in checks.get("near_zero", []):
        ok = per_layer[name] <= PLAN["near_zero_share"] * wall
        lines.append(f"prediction {name} ~ 0: {'holds' if ok else 'FAILS'} "
                     f"({per_layer[name]:.6g} s of {wall:.3f} s)")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (1 chip, 100 FC examples)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    bench = Orchestrator(args)
    try:
        bench.prefill()
        if args.trace:
            samples = bench.trace()
        else:
            samples, setups = bench.measure()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:  # another invocation's work is still there
            pass

    errors = [e for s in samples for e in s["errors"]]
    if any("paper_gap" not in s for s in samples):
        for error in errors:
            print(f"check failed: {error}")
        print("error: the program did not deliver every cell", file=sys.stderr)
        return 1
    digests = {s.get("digest") for s in samples}
    if len(digests) != 1 or None in digests:
        errors.append(f"row digests differ between runs: {sorted(map(str, digests))}")
    for note in sorted({n for s in samples for n in s["notes"]}):
        print(f"note: {note}")
    print(f"digest {args.workload} seed={args.seed} "
          f"{' '.join(sorted(map(str, digests)))}")

    attempted = sum(s["units_demanded"] + s["jobs"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if args.trace:
        per_layer = samples[-1]["per_layer"]
        calls = samples[-1]["analysis"]["calls"]
        for group in PLAN["must_call"][args.workload]:
            if not calls.get(group):
                errors.append(f"layer call {group} recorded no calls")
        for line in _prediction_lines(args.workload, per_layer):
            print(line)
        print("layer self time: " + ", ".join(
            f"{layer} {per_layer[f'layer.{layer}.self_s']:.3f} s "
            f"({per_layer[f'layer.{layer}.share']:.1%})" for layer in LAYERS
        ))
        print(f"coverage {per_layer['trace.coverage']:.4f} of "
              f"{per_layer['trace.wall_s']:.3f} s; overhead "
              f"{per_layer['trace.overhead_s']:+.3f} s")
        values = per_layer
    else:
        values, note = _end_to_end(samples, setups)
        values["ok_frac"] = (attempted - failed) / attempted
        print(note)
    for error in errors:
        print(f"check failed: {error}")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
