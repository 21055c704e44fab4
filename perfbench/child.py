"""One fresh interpreter = one benchmark task.

``python3 perfbench/child.py '<task json>'`` runs one of:

* ``prefill`` -- fill the artifact cache a warm workload starts from;
* ``setup``   -- only the set-up, to time it again;
* ``sample``  -- set-up, the timed part and the output checks;
* ``trace``   -- the same with the layer wrappers installed.

A fresh interpreter per task is what makes ``ladder_cold`` cold: the
measurement LRU, the bank memo, the factor memo and its store and the
kernel registry all start empty, and the import cost lands in
``setup_s`` as every CLI user pays it.  The last stdout line is the
task's JSON result.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

import checks
import workloads as wl
from tracing import Tracer, analyse, span_records


def _runner(scale, cache_dir=None):
    from repro.exps.cache import ExperimentCache
    from repro.exps.runner import ExperimentRunner, RunnerConfig

    config = RunnerConfig(
        n_chips=scale["chips"],
        cores_per_chip=scale["cores"],
        n_instructions=scale["n_instructions"],
        fuzzy_examples=scale["fc_examples"],
        seed=wl.PHYSICS_SEED,
    )
    cache = ExperimentCache(cache_dir) if cache_dir is not None else None
    return ExperimentRunner(config, cache=cache)


def _environments(names):
    from repro.core.environments import ADAPTIVE_ENVIRONMENTS

    by_name = {env.name: env for env in ADAPTIVE_ENVIRONMENTS}
    return [by_name[name] for name in names]


def _run_ladder(runner, order=wl.ADAPTIVE_ENVS):
    """The Fig 10-12 ladder, serial, summaries never cached."""
    from repro.config import Settings
    from repro.exps.ladder import run_ladder

    return run_ladder(runner, environments=_environments(order),
                      settings=Settings(jobs=1, cache_enabled=False))


def _counters():
    from repro.obs import metrics_registry

    return metrics_registry().to_dict()


# ----------------------------------------------------------------------
# Prefill: the artifact cache the warm workloads start from.
# ----------------------------------------------------------------------
def prefill(task):
    """Measurements, banks and the factor in the cache; no summaries.

    For ``service_mixed`` the prefill runs the whole ladder at the
    service's scale and keeps its summaries as the reference every
    served cell must equal.
    """
    runner = _runner(task["scale"], task["cache_dir"])
    if task["workload"] == "service_mixed":
        ladder = _run_ladder(runner)
        reference = {
            f"{env}|{mode}": summary.to_json()
            for (env, mode), summary in checks.ladder_cells(ladder).items()
        }
        Path(task["reference"]).write_text(json.dumps(reference))
    else:
        from repro.core.environments import (
            ADAPTIVE_ENVIRONMENTS, BASELINE, NOVAR,
        )

        for env in (*ADAPTIVE_ENVIRONMENTS, BASELINE, NOVAR):
            for workload in runner.workloads:
                for profile, _ in runner.phase_profiles(workload):
                    runner.measurements(profile, env)
        for env in ADAPTIVE_ENVIRONMENTS:
            runner.bank_for(env)
    shutil.rmtree(Path(task["cache_dir"]) / "summaries", ignore_errors=True)
    return {"ok": True}


# ----------------------------------------------------------------------
# The workloads' set-up and timed parts.
# ----------------------------------------------------------------------
class Ladder:
    """``ladder_cold`` and ``population_warm``: one ladder is one job."""

    def __init__(self, task):
        self.task = task
        self.scale = task["scale"]
        self.cold = task["workload"] == "ladder_cold"
        self.runner = _runner(self.scale,
                              None if self.cold else task["cache_dir"])
        self.order = wl.env_order(task["seed"])
        self.errors = []
        if self.cold:
            self._assert_cold_start()

    def close(self):
        pass

    def _assert_cold_start(self):
        from repro import variation
        from repro.microarch.simulator import measurement_cache_len

        if measurement_cache_len() != 0:
            self.errors.append("measurement LRU not empty at start")
        if variation.get_store() is not None:
            self.errors.append("a factor store is installed on a cold run")

    def run(self):
        start = time.perf_counter()
        ladder = _run_ladder(self.runner, self.order)
        end = time.perf_counter()
        units = wl.ladder_units(self.scale["chips"], self.scale["cores"])
        counters = _counters()["counters"]
        if self.cold:
            if counters.get("variation.factor.misses") != 1.0:
                self.errors.append(
                    "variation.factor.misses = "
                    f"{counters.get('variation.factor.misses')} (want 1)"
                )
            if not counters.get("ml.fcs_trained"):
                self.errors.append("no fuzzy controller was trained")
        else:
            for kind in ("measurement", "bank"):
                if counters.get(f"cache.{kind}.misses", 0.0) != 0.0:
                    self.errors.append(f"cache.{kind} missed on a warm run")
            if counters.get("cache.summary.hits", 0.0):
                self.errors.append("a summary was served from the cache")
        ladder = checks.ladder_from_cells(
            checks.ladder_cells(ladder), _environments(wl.ADAPTIVE_ENVS)
        )
        self.errors.extend(checks.ladder_errors(ladder))
        return {
            "start": start,
            "end": end,
            "units": units,
            "jobs": 1,
            "failed": 0,
            "latencies_ms": [(end - start) * 1000.0],
            "units_demanded": units,
            "digest": checks.rows_digest(ladder),
            "paper_gap": checks.paper_gap(ladder),
            "notes": checks.ladder_notes(ladder),
        }


class Service:
    """``service_mixed``: a closed loop of seeded jobs against one
    in-process ``CampaignService``."""

    def __init__(self, task, sample_queue=False):
        from repro.config import Settings
        from repro.core.environments import (
            ADAPTIVE_ENVIRONMENTS, BASELINE, NOVAR, AdaptationMode,
        )
        from repro.exps.engine import RunSpec
        from repro.serve.service import CampaignService

        self.task = task
        self.scale = scale = task["scale"]
        self.errors = []
        self.runner = _runner(scale, task["cache_dir"])
        self.service = CampaignService(
            self.runner,
            settings=Settings(jobs=scale["workers"]),
            workers=scale["workers"],
        )
        self.service.start()
        envs = {env.name: env for env in (*ADAPTIVE_ENVIRONMENTS, BASELINE, NOVAR)}
        modes = {mode.value: mode for mode in AdaptationMode}
        self.jobs = wl.job_stream(task["seed"], scale["jobs"], scale["envs"])
        self.specs = [
            RunSpec(environments=tuple(envs[name] for name in job_envs),
                    modes=tuple(modes[name] for name in job_modes))
            for job_envs, job_modes in self.jobs
        ]
        self.environments = [envs[name] for name in wl.ADAPTIVE_ENVS
                             if any(name in job[0] for job in self.jobs)]
        self.sample_queue = sample_queue
        self.queue_depth_max = 0

    def close(self):
        self.service.close()

    def _reference(self):
        from repro.exps.runner import SuiteSummary

        reference = json.loads(Path(self.task["reference"]).read_text())
        return {
            tuple(cell.split("|")): SuiteSummary.from_json(text)
            for cell, text in reference.items()
        }

    def _client(self, state):
        while True:
            with state["lock"]:
                index = state["next"]
                if index >= len(self.specs):
                    return
                state["next"] += 1
            started = time.perf_counter()
            try:
                job_id = self.service.submit(self.specs[index])
                if self.sample_queue:
                    depth = self.service.stats()["queue_depth"]
                    self.queue_depth_max = max(self.queue_depth_max, depth)
                result = self.service.result(job_id, timeout=150.0)
            except Exception as exc:  # a failed job is counted, not fatal
                state["failures"].append(f"job {index}: {exc!r}")
                continue
            state["latencies"][index] = (time.perf_counter() - started) * 1e3
            state["results"][index] = result

    def run(self):
        state = {
            "lock": threading.Lock(), "next": 0, "failures": [],
            "latencies": [None] * len(self.specs),
            "results": [None] * len(self.specs),
        }
        clients = [
            threading.Thread(target=self._client, args=(state,))
            for _ in range(self.scale["outstanding"])
        ]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        end = time.perf_counter()
        self.close()

        reference = self._reference()
        chips, cores = self.scale["chips"], self.scale["cores"]
        delivered = {}
        units = failed_units = 0
        for job, result in zip(self.jobs, state["results"]):
            if result is None:
                failed_units += wl.units_of(job, chips, cores)
                continue
            units += wl.units_of(job, chips, cores)
            for cell, summary in result.summaries.items():
                if summary != reference.get(cell):
                    self.errors.append(f"cell {cell} differs from the ladder")
                delivered[cell] = summary
        self.errors.extend(state["failures"])
        out = {
            "start": start,
            "end": end,
            "units": units,
            "jobs": len(self.jobs),
            "failed": len(state["failures"]) + failed_units,
            "latencies_ms": [v for v in state["latencies"] if v is not None],
            "units_demanded": units + failed_units,
            "notes": [],
        }
        wanted = {(env, mode) for envs, modes in self.jobs
                  for env in envs for mode in modes}
        missing = wanted - set(delivered)
        if missing:
            self.errors.append(f"cells never delivered: {sorted(missing)}")
            return out
        ladder = checks.ladder_from_cells(delivered, self.environments)
        self.errors.extend(checks.ladder_errors(ladder))
        out.update(
            digest=checks.rows_digest(ladder),
            paper_gap=checks.paper_gap(ladder),
            notes=checks.ladder_notes(ladder),
        )
        return out


def _build(task, tracing=False):
    if task["workload"] == "service_mixed":
        return Service(task, sample_queue=tracing)
    return Ladder(task)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_ticks():
    """The host-wide ``cpu`` line of /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after):
    """Share of CPU time the hypervisor took (``steal``) between two
    readings: the usual cause when host times swing between runs."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def setup(task):
    workload = _build(task)
    setup_s = time.monotonic() - task["spawned"]
    workload.close()
    return {"setup_s": setup_s}


def sample(task):
    workload = _build(task)
    setup_s = time.monotonic() - task["spawned"]
    ticks = _cpu_ticks()
    out = workload.run()
    out.update(setup_s=setup_s, wall_s=out["end"] - out["start"],
               rss_mb=_rss_mb(), errors=workload.errors,
               steal=_steal_share(ticks, _cpu_ticks()))
    return out


def trace(task):
    import layer_metrics

    tracer = Tracer(run_id=task["run_id"]).install()
    workload = _build(task, tracing=True)
    out = workload.run()
    tracer.uninstall()
    tracer.window = (out["start"], out["end"])
    analysis = analyse(tracer)
    registry = _counters()
    out.update(
        wall_s=out["end"] - out["start"],
        errors=workload.errors,
        analysis=analysis,
        per_layer=layer_metrics.compute(
            task, analysis, registry, out,
            queue_depth_max=getattr(workload, "queue_depth_max", 0),
        ),
    )
    if task.get("spans_out"):
        Path(task["spans_out"]).write_text(json.dumps({
            "run": tracer.run_id,
            "spans_total": len(tracer.spans),
            "analysis": analysis,
            "spans": span_records(tracer),
        }))
    return out


TASKS = {"prefill": prefill, "setup": setup, "sample": sample, "trace": trace}


def main():
    task = json.loads(sys.argv[1])
    result = TASKS[task["phase"]](task)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
