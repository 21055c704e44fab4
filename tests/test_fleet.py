"""The worker fleet: artifact stores, wire codecs, registry, end-to-end."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.config import Settings
from repro.core import NOVAR, TS, AdaptationMode
from repro.exps import ExperimentRunner, RunnerConfig, RunSpec
from repro.exps.cache import (
    ArtifactStore,
    ExperimentCache,
    FactorStore,
    LocalDirStore,
    SharedDirStore,
    build_store,
)
from repro.microarch import spec2000_like_suite
from repro.serve import (
    CampaignService,
    FleetRegistry,
    FleetWorker,
    ProtocolError,
    ServiceClient,
    ServiceDaemon,
    UnknownWorkerError,
    build_cell,
    rows_from_wire,
    rows_to_wire,
    runner_context_from_wire,
    runner_context_to_wire,
    summaries_from_wire,
    unit_from_wire,
    unit_to_wire,
)
from repro.serve.coalesce import UnitTask

#: Same tiny-but-multi-chip scale as test_serve.py: two chips exercise
#: decomposition, and two workers can split the units.
FLEET_CONFIG = RunnerConfig(
    n_chips=2,
    cores_per_chip=1,
    n_instructions=3000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


@pytest.fixture()
def runner():
    return ExperimentRunner(FLEET_CONFIG)


@pytest.fixture()
def two_workloads():
    return tuple(spec2000_like_suite()[:2])


@pytest.fixture()
def metrics():
    """An isolated metrics registry so counter asserts see only this test."""
    registry = obs.MetricsRegistry()
    with obs.scoped(registry):
        yield registry


# ----------------------------------------------------------------------
# Artifact stores (the api_redesign core).
# ----------------------------------------------------------------------
class TestArtifactStores:
    def test_local_roundtrip(self, tmp_path):
        store = LocalDirStore(tmp_path)
        assert not store.exists("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") is None
        store.put("summaries", "k", ".json", b"{}")
        assert store.exists("summaries", "k", ".json")
        assert store.is_complete("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") == b"{}"
        assert store.delete("summaries", "k", ".json") is True
        assert store.delete("summaries", "k", ".json") is False

    def test_local_put_leaves_no_temp_files(self, tmp_path):
        store = LocalDirStore(tmp_path)
        store.put("measurements", "m1", ".npz", b"data")
        files = sorted(p.name for p in (tmp_path / "measurements").iterdir())
        assert files == ["m1.npz"]

    def test_local_layout_matches_legacy_cache(self, tmp_path):
        # The pluggable backend must keep reading caches written by
        # pre-1.7 ExperimentCache versions: same kind dirs, same names.
        store = LocalDirStore(tmp_path)
        assert store.path_for("summaries", "abc", ".json") == (
            tmp_path / "summaries" / "abc.json"
        )
        assert store.path_for("banks", "b", ".npz") == (
            tmp_path / "banks" / "b.npz"
        )

    def test_shared_incomplete_write_is_invisible(self, tmp_path):
        store = SharedDirStore(tmp_path)
        # Simulate a peer mid-write: data file present, no .done marker.
        path = store.path_for("summaries", "k", ".json")
        path.write_bytes(b"partial")
        assert store.exists("summaries", "k", ".json")
        assert not store.is_complete("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") is None

    def test_shared_marker_roundtrip(self, tmp_path):
        store = SharedDirStore(tmp_path)
        store.put("summaries", "k", ".json", b"{}")
        assert store.is_complete("summaries", "k", ".json")
        assert store.get("summaries", "k", ".json") == b"{}"
        assert store.delete("summaries", "k", ".json") is True
        assert store.get("summaries", "k", ".json") is None
        assert not store.exists("summaries", "k", ".json")

    def test_build_store_factory(self, tmp_path):
        for backend in ("local", "shared"):
            assert isinstance(build_store(tmp_path, backend), ArtifactStore)
        assert isinstance(build_store(tmp_path, "local"), LocalDirStore)
        assert isinstance(build_store(tmp_path, "shared"), SharedDirStore)
        with pytest.raises(ValueError, match="backend"):
            build_store(tmp_path, "s3")

    def test_cache_takes_exactly_one_of_root_or_store(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentCache()
        with pytest.raises(ValueError):
            ExperimentCache(tmp_path, store=LocalDirStore(tmp_path))
        assert isinstance(ExperimentCache(tmp_path).store, LocalDirStore)
        shared = ExperimentCache(store=SharedDirStore(tmp_path))
        assert isinstance(shared.store, SharedDirStore)

    def test_factor_store_accepts_bare_artifact_store(self, tmp_path):
        import numpy as np

        store = FactorStore(SharedDirStore(tmp_path))
        key_data = ("grid", 8, 0.5)
        assert store.load(key_data) is None
        factor = np.eye(3)
        store.save(key_data, factor)
        loaded = store.load(key_data)
        assert loaded is not None and (loaded == factor).all()


class TestLoadGuardedSharedSafety:
    """The satellite fix: only *completed* corrupt artifacts are deleted."""

    def test_completed_corrupt_artifact_heals(self, tmp_path, metrics):
        store = SharedDirStore(tmp_path)
        store.put("summaries", "k", ".json", b"not json at all")
        cache = ExperimentCache(store=store)
        assert cache.load_summary("k") is None
        assert not store.exists("summaries", "k", ".json")
        counters = metrics.to_dict()["counters"]
        assert counters["cache.corrupt"] == 1.0

    def test_inflight_write_is_not_clobbered(self, tmp_path, metrics):
        store = SharedDirStore(tmp_path)
        path = store.path_for("summaries", "k", ".json")
        path.write_bytes(b"partial garbage from a peer mid-write")
        cache = ExperimentCache(store=store)
        assert cache.load_summary("k") is None
        # Crucially: the peer's in-flight bytes are still there.
        assert path.exists()
        counters = metrics.to_dict()["counters"]
        assert counters.get("cache.corrupt", 0.0) == 0.0
        assert counters["cache.pending_writes"] >= 1.0

    def test_local_corrupt_artifact_still_heals(self, tmp_path, metrics):
        # A local store has no markers: exists == complete, so the
        # pre-1.7 self-healing behaviour is unchanged.
        store = LocalDirStore(tmp_path)
        path = store.path_for("summaries", "k", ".json")
        path.write_bytes(b"garbage")
        cache = ExperimentCache(store=store)
        assert cache.load_summary("k") is None
        assert not path.exists()
        assert metrics.to_dict()["counters"]["cache.corrupt"] == 1.0


# ----------------------------------------------------------------------
# Settings plumbing.
# ----------------------------------------------------------------------
class TestFleetSettings:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("EVAL_REPRO_WORKER_CONNECT", "10.0.0.2:7571")
        monkeypatch.setenv("EVAL_REPRO_HEARTBEAT_INTERVAL", "0.5")
        monkeypatch.setenv("EVAL_REPRO_LEASE_TIMEOUT", "12.5")
        monkeypatch.setenv("EVAL_REPRO_STORE_BACKEND", "shared")
        settings = Settings.from_env()
        assert settings.worker_connect == "10.0.0.2:7571"
        assert settings.heartbeat_interval == 0.5
        assert settings.lease_timeout == 12.5
        assert settings.store_backend == "shared"

    def test_flag_beats_env(self, monkeypatch):
        import argparse

        monkeypatch.setenv("EVAL_REPRO_STORE_BACKEND", "local")
        monkeypatch.setenv("EVAL_REPRO_HEARTBEAT_INTERVAL", "9.0")
        defaults = Settings.from_env()
        parser = argparse.ArgumentParser()
        Settings.add_fleet_arguments(parser, defaults, role="daemon")
        args = parser.parse_args(
            ["--store-backend", "shared", "--heartbeat-interval", "0.25"]
        )
        settings = Settings.from_args(args, base=defaults)
        assert settings.store_backend == "shared"
        assert settings.heartbeat_interval == 0.25
        assert settings.lease_timeout == defaults.lease_timeout

    def test_validation(self):
        with pytest.raises(ValueError):
            Settings(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            Settings(lease_timeout=-1.0)
        with pytest.raises(ValueError):
            Settings(store_backend="s3")

    def test_role_selects_flags(self):
        import argparse

        defaults = Settings()
        daemon_p = argparse.ArgumentParser()
        Settings.add_fleet_arguments(daemon_p, defaults, role="daemon")
        assert daemon_p.parse_args([]).fleet_only is False
        worker_p = argparse.ArgumentParser()
        Settings.add_fleet_arguments(worker_p, defaults, role="worker")
        assert worker_p.parse_args(["--connect", "h:1"]).connect == "h:1"

    def test_build_cache_uses_backend(self, tmp_path):
        settings = Settings(
            cache_dir=str(tmp_path), store_backend="shared"
        )
        cache = settings.build_cache()
        assert isinstance(cache.store, SharedDirStore)


# ----------------------------------------------------------------------
# Wire codecs (protocol v3).
# ----------------------------------------------------------------------
class TestFleetWireCodecs:
    def test_runner_context_roundtrip(self, runner):
        doc = json.loads(json.dumps(runner_context_to_wire(runner)))
        config, calib, core_config = runner_context_from_wire(doc)
        assert config == runner.config
        assert calib == runner.calib
        assert core_config == runner.core_config

    def test_runner_context_fingerprint_mismatch(self, runner):
        doc = runner_context_to_wire(runner)
        doc["runner_config"]["seed"] = doc["runner_config"]["seed"] + 1
        with pytest.raises(ProtocolError, match="fingerprint"):
            runner_context_from_wire(doc)

    def test_unit_roundtrip(self, two_workloads):
        cell = build_cell("cellkey", TS, AdaptationMode.EXH_DYN,
                          two_workloads, 2, 1)
        doc = json.loads(json.dumps(unit_to_wire(cell, cell.units[1])))
        unit = unit_from_wire(doc)
        assert unit.cell_key == "cellkey"
        assert unit.unit_key == cell.units[1].key
        assert (unit.chip_index, unit.core_index) == (1, 0)
        assert unit.env.name == "TS"
        assert unit.mode is AdaptationMode.EXH_DYN
        assert [w.name for w in unit.workloads] == [
            w.name for w in two_workloads
        ]

    def test_unit_rejects_unknown_workload(self, two_workloads):
        cell = build_cell("k", TS, AdaptationMode.EXH_DYN, two_workloads, 1, 1)
        doc = unit_to_wire(cell, cell.units[0])
        doc["workloads"] = ["no-such-workload"]
        with pytest.raises(ProtocolError, match="unknown workloads"):
            unit_from_wire(doc)

    def test_rows_roundtrip_bit_identical(self, runner, two_workloads):
        rows = runner.run_unit(TS, AdaptationMode.STATIC, 0, 0, two_workloads)
        rebuilt = rows_from_wire(
            json.loads(json.dumps(rows_to_wire(rows)))
        )
        assert rebuilt == rows


# ----------------------------------------------------------------------
# Protocol compat: v1/v2 clients against a v3 daemon.
# ----------------------------------------------------------------------
class TestProtocolCompat:
    @pytest.fixture()
    def daemon(self, runner):
        service = CampaignService(runner, workers=0)
        # start() so stop() has a serve loop to shut down; dispatch()
        # is still exercised directly, no sockets involved.
        daemon = ServiceDaemon(service, address="127.0.0.1:0").start()
        yield daemon
        daemon.stop()

    def test_v2_client_surface_still_works(self, daemon, two_workloads):
        spec = {"environments": ["NoVar"], "modes": ["Exh-Dyn"],
                "workloads": [w.name for w in two_workloads]}
        response = daemon.dispatch({"op": "submit", "v": 2, "spec": spec})
        assert response["ok"] and response["job_id"]
        assert daemon.dispatch({"op": "ping", "v": 2})["ok"]
        assert daemon.dispatch({"op": "ping"})["ok"]  # v1, pre-handshake

    @pytest.mark.parametrize("v", [None, 1, 2])
    def test_fleet_ops_gated_on_v3(self, daemon, v):
        request = {"op": "fleet.register"}
        if v is not None:
            request["v"] = v
        response = daemon.dispatch(request)
        assert not response["ok"]
        assert response["kind"] == "version"
        assert 3 in response["supported"]

    def test_v3_fleet_register_and_unknown_worker(self, daemon):
        response = daemon.dispatch({"op": "fleet.register", "v": 3})
        assert response["ok"]
        assert response["worker_id"]
        assert "fingerprint" in response["context"]
        bad = daemon.dispatch(
            {"op": "fleet.heartbeat", "v": 3, "worker_id": "w-999"}
        )
        assert not bad["ok"] and bad["kind"] == "unknown-worker"


# ----------------------------------------------------------------------
# Registry semantics (no sockets: injected fakes, pinned clocks).
# ----------------------------------------------------------------------
class _Harness:
    """A FleetRegistry wired to an in-memory queue and capture lists."""

    def __init__(self, **kwargs):
        self.queue = []
        self.requeued = []
        self.delivered = []
        self.failed = []
        kwargs.setdefault("heartbeat_interval", 1.0)
        kwargs.setdefault("lease_timeout", 60.0)
        self.registry = FleetRegistry(
            take=self._take,
            requeue=self._requeue,
            claim=lambda item: item[1].rows is None,
            deliver=self._deliver,
            fail=self._fail,
            **kwargs,
        )

    def push(self, unit_key, priority=0):
        unit = UnitTask(0, 0, unit_key)
        self.queue.append((-priority, ("cell", unit)))
        return unit

    def _take(self):
        return self.queue.pop(0) if self.queue else None

    def _requeue(self, neg_priority, item):
        self.requeued.append(item[1].key)
        self.queue.append((neg_priority, item))

    def _deliver(self, item, rows, attempts):
        item[1].rows = rows
        self.delivered.append((item[1].key, attempts))

    def _fail(self, item, error, attempts):
        self.failed.append((item[1].key, str(error), attempts))


class TestFleetRegistry:
    def test_lease_complete_delivers_once(self, metrics):
        h = _Harness()
        h.push("u1")
        wid = h.registry.register({"host": "test"})
        leases = h.registry.lease(wid, max_units=4)
        assert [lease.unit_key for lease in leases] == ["u1"]
        assert h.registry.lease(wid) == []  # queue drained
        assert h.registry.complete(wid, "u1", rows=["r"]) is True
        assert h.delivered == [("u1", 1)]
        # A second complete for the same key is late, not double-counted.
        assert h.registry.complete(wid, "u1", rows=["r"]) is False
        assert h.delivered == [("u1", 1)]

    def test_unknown_and_dead_workers_rejected(self):
        h = _Harness()
        with pytest.raises(UnknownWorkerError):
            h.registry.heartbeat("w-99")
        wid = h.registry.register()
        h.registry.heartbeat(wid)
        h.registry.reap(now=time.monotonic() + 1e6)
        with pytest.raises(UnknownWorkerError):
            h.registry.heartbeat(wid)
        with pytest.raises(UnknownWorkerError):
            h.registry.lease(wid)

    def test_dead_worker_leases_requeued(self, metrics):
        h = _Harness()
        h.push("u1")
        h.push("u2")
        dead = h.registry.register()
        alive = h.registry.register()
        assert len(h.registry.lease(dead, max_units=2)) == 2
        # Only the dead worker misses its deadline (pinned clocks: no
        # sleeping through heartbeat intervals in tests).
        now = time.monotonic()
        h.registry._workers[alive].last_beat = now
        h.registry._workers[dead].last_beat = now - 3.5  # > 3 * 1.0s
        retired = h.registry.reap(now=now)
        assert retired == [dead]
        assert sorted(h.requeued) == ["u1", "u2"]
        # The survivor picks the units back up.
        leases = h.registry.lease(alive, max_units=2)
        assert sorted(lease.unit_key for lease in leases) == ["u1", "u2"]
        counters = metrics.to_dict()["counters"]
        assert counters["fleet.units_requeued"] == 2.0
        assert counters["fleet.workers_dead"] == 1.0

    def test_delivered_units_not_requeued_on_death(self):
        h = _Harness()
        h.push("u1")
        wid = h.registry.register()
        h.registry.lease(wid)
        # Worker reports the unit, *then* dies: nothing to requeue.
        h.registry.complete(wid, "u1", rows=["r"])
        h.registry.reap(now=time.monotonic() + 1e6)
        assert h.requeued == []

    def test_fail_consumes_budget_then_poisons(self, metrics):
        h = _Harness(retries=1)
        h.push("u1")
        wid = h.registry.register()
        h.registry.lease(wid)
        assert h.registry.fail(wid, "u1", "boom") is True
        assert h.requeued == ["u1"]  # first failure: retry
        assert h.failed == []
        h.registry.lease(wid)
        h.registry.fail(wid, "u1", "boom again")
        assert h.failed == [("u1", "boom again", 2)]  # budget exhausted
        assert metrics.to_dict()["counters"]["fleet.retries"] == 1.0

    def test_steal_from_slow_worker(self, metrics):
        h = _Harness(lease_timeout=0.01)
        h.push("u1")
        slow = h.registry.register()
        thief = h.registry.register()
        assert len(h.registry.lease(slow)) == 1
        time.sleep(0.05)
        stolen = h.registry.lease(thief)
        assert [lease.unit_key for lease in stolen] == ["u1"]
        # Duplicate cap: a third worker cannot steal it again.
        third = h.registry.register()
        assert h.registry.lease(third) == []
        # First finisher wins; the loser's copy is late.
        assert h.registry.complete(thief, "u1", rows=["r"]) is True
        assert h.registry.complete(slow, "u1", rows=["r"]) is False
        assert h.delivered == [("u1", 1)]
        counters = metrics.to_dict()["counters"]
        assert counters["fleet.units_stolen"] == 1.0
        assert counters["fleet.late_completions"] == 1.0

    def test_fresh_lease_not_stealable(self):
        h = _Harness(lease_timeout=60.0)
        h.push("u1")
        holder = h.registry.register()
        thief = h.registry.register()
        h.registry.lease(holder)
        assert h.registry.lease(thief) == []


# ----------------------------------------------------------------------
# End-to-end: FleetWorkers over real TCP against a fleet-only daemon.
# ----------------------------------------------------------------------
def _fleet_daemon(runner, tmp_path=None, **settings_kwargs):
    settings_kwargs.setdefault("heartbeat_interval", 0.5)
    settings_kwargs.setdefault("lease_timeout", 60.0)
    if tmp_path is not None:
        settings_kwargs.setdefault("cache_dir", str(tmp_path))
        settings_kwargs.setdefault("store_backend", "shared")
    settings = Settings(**settings_kwargs)
    cache = settings.build_cache()
    service = CampaignService(
        runner, settings=settings, workers=0, cache=cache
    )
    return ServiceDaemon(service, address="127.0.0.1:0").start()


class TestFleetIntegration:
    def test_two_workers_bit_identical_to_direct(
        self, runner, two_workloads, metrics
    ):
        spec = RunSpec(
            environments=(TS, NOVAR),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        daemon = _fleet_daemon(runner)
        try:
            workers = [
                FleetWorker(daemon.address, poll_interval=0.05, max_idle=60.0)
                for _ in range(2)
            ]
            threads = [
                threading.Thread(target=w.run, daemon=True) for w in workers
            ]
            for thread in threads:
                thread.start()
            client = ServiceClient(daemon.address)
            response = client.result(client.submit(spec), timeout=300)
            cells = summaries_from_wire(response["cells"])
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            daemon.stop()
        direct = ExperimentRunner(FLEET_CONFIG).run(spec)
        assert set(cells) == set(direct.summaries)
        for cell, summary in direct.summaries.items():
            assert cells[cell] == summary, cell
        # 2 chips x 1 core for TS, one pseudo-unit for NoVar = 3 units,
        # each computed exactly once across the whole fleet.
        assert sum(w.units_done for w in workers) == 3
        counters = metrics.to_dict()["counters"]
        assert counters["serve.units_done"] == 3.0
        assert counters["fleet.units_completed"] == 3.0
        assert counters.get("serve.units_duplicate", 0.0) == 0.0

    def test_killed_worker_requeues_no_duplicate_compute(
        self, runner, two_workloads, metrics, tmp_path
    ):
        spec = RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        daemon = _fleet_daemon(runner, tmp_path)
        service = daemon.service
        try:
            client = ServiceClient(daemon.address)
            job = client.submit(spec)
            # "Worker A": registers, leases one unit, and is killed
            # before computing it — it never heartbeats again.
            doomed = client.request("fleet.register", meta={"role": "doomed"})
            doomed_id = doomed["worker_id"]
            granted = client.request(
                "fleet.lease", worker_id=doomed_id, max_units=1
            )["units"]
            assert len(granted) == 1
            # The reaper declares it dead and re-queues the lease
            # (pinned clock: no sleeping through heartbeat deadlines).
            retired = service.fleet.reap(now=time.monotonic() + 10.0)
            assert retired == [doomed_id]
            # Its late completion is rejected, not double-counted.
            with pytest.raises(UnknownWorkerError):
                client.request(
                    "fleet.complete", worker_id=doomed_id,
                    unit_key=granted[0]["unit_key"], rows=[],
                )
            # A healthy worker drains the whole cell, requeued unit
            # included.
            worker = FleetWorker(
                daemon.address, poll_interval=0.05, max_idle=60.0
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            response = client.result(job, timeout=300)
            cells = summaries_from_wire(response["cells"])
            worker.stop()
            thread.join(timeout=30.0)
        finally:
            daemon.stop()
        direct = ExperimentRunner(FLEET_CONFIG).run(spec)
        key = ("TS", "Exh-Dyn")
        assert cells[key] == direct.summaries[key]
        counters = metrics.to_dict()["counters"]
        assert counters["fleet.units_requeued"] >= 1.0
        assert counters["fleet.workers_dead"] == 1.0
        # Exactly one compute per unit: 2 chips x 1 core, all on the
        # survivor, none delivered twice.
        assert worker.units_done == 2
        assert counters["serve.units_done"] == 2.0
        assert counters.get("serve.units_duplicate", 0.0) == 0.0

    def test_shared_store_serves_warm_resubmission(
        self, runner, two_workloads, metrics, tmp_path
    ):
        spec = RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        daemon = _fleet_daemon(runner, tmp_path)
        try:
            worker = FleetWorker(
                daemon.address,
                cache=ExperimentCache(store=build_store(tmp_path, "shared")),
                poll_interval=0.05,
                max_idle=60.0,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            client = ServiceClient(daemon.address)
            cold = client.result(client.submit(spec), timeout=300)
            computed = worker.units_done
            warm = client.result(client.submit(spec), timeout=60)
            worker.stop()
            thread.join(timeout=30.0)
        finally:
            daemon.stop()
        assert computed == 2
        assert worker.units_done == computed  # warm run leased nothing
        assert summaries_from_wire(cold["cells"]) == summaries_from_wire(
            warm["cells"]
        )
        counters = metrics.to_dict()["counters"]
        assert counters["cache.summary.hits"] >= 1.0


class TestWorkerSubprocess:
    """The acceptance shape: real worker *processes* over a shared store."""

    def test_two_subprocess_workers_drain_ladder_cell(
        self, tmp_path, metrics
    ):
        spec = RunSpec(
            environments=(TS, NOVAR),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=tuple(spec2000_like_suite()[:2]),
        )
        runner = ExperimentRunner(FLEET_CONFIG)
        # Generous heartbeat: subprocess interpreter startup on a loaded
        # machine can exceed a sub-second deadline, and a reaped worker
        # re-registers (benign, but it breaks the exact counts below).
        daemon = _fleet_daemon(runner, tmp_path, heartbeat_interval=5.0)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + ([os.environ["PYTHONPATH"]]
                   if os.environ.get("PYTHONPATH") else [])
            ),
        }
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve", "worker",
                    "--connect", daemon.address,
                    "--cache-dir", str(tmp_path),
                    "--store-backend", "shared",
                    "--max-idle", "10",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for _ in range(2)
        ]
        try:
            client = ServiceClient(daemon.address)
            response = client.result(client.submit(spec), timeout=300)
            cells = summaries_from_wire(response["cells"])
            outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
            daemon.stop()
        for proc, output in zip(procs, outputs):
            assert proc.returncode == 0, output
        direct = ExperimentRunner(FLEET_CONFIG).run(spec)
        for cell, summary in direct.summaries.items():
            assert cells[cell] == summary, cell
        counters = metrics.to_dict()["counters"]
        assert counters["fleet.workers_registered"] == 2.0
        assert counters["fleet.units_completed"] == 3.0
