"""The repro.serve campaign service: coalescing, supervision, wire protocol."""

import socket
import threading
import time

import pytest

from repro import obs
from repro.config import Settings
from repro.core import BASELINE, NOVAR, TS, TS_ASV, AdaptationMode
from repro.exps import ExperimentRunner, RunnerConfig, RunSpec
from repro.exps.engine import UnitExecutionError
from repro.microarch import spec2000_like_suite
from repro.obs import MetricsRegistry
from repro.serve import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    CampaignService,
    CellScheduler,
    JobCancelledError,
    JobFailedError,
    ProtocolError,
    ProtocolVersionError,
    ServiceBusyError,
    ServiceClient,
    ServiceDaemon,
    UnknownJobError,
    check_version,
    build_cell,
    parse_address,
    run_ladder_remote,
    spec_from_wire,
    spec_to_wire,
    summaries_from_wire,
    summaries_to_wire,
)
from repro.serve.coalesce import NOVAR_CHIP, run_block
from repro.serve.protocol import decode_line, encode_line

#: Same tiny-but-multi-chip scale as test_engine.py: two chips exercise
#: unit decomposition and reassembly order.
SERVE_CONFIG = RunnerConfig(
    n_chips=2,
    cores_per_chip=1,
    n_instructions=3000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


@pytest.fixture()
def runner():
    return ExperimentRunner(SERVE_CONFIG)


@pytest.fixture()
def two_workloads():
    return tuple(spec2000_like_suite()[:2])


def counting_units(runner):
    """Instrument a runner instance; returns the per-unit call log."""
    calls = []
    original = runner.run_units_batched

    def counted(env, mode, units, *args, **kwargs):
        calls.extend((env.name, mode.value, chip, core) for chip, core in units)
        return original(env, mode, units, *args, **kwargs)

    runner.run_units_batched = counted
    return calls


class TestCoalescing:
    def test_overlapping_jobs_compute_each_cell_once(self, runner, two_workloads):
        calls = counting_units(runner)
        # Hold the workers at the first unit until both jobs are in, so
        # the overlap is guaranteed rather than a race.
        gate = threading.Event()
        counted = runner.run_units_batched

        def gated(*args, **kwargs):
            gate.wait(30)
            return counted(*args, **kwargs)

        runner.run_units_batched = gated
        spec = RunSpec(
            environments=(BASELINE, TS),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        with CampaignService(runner, workers=2) as service:
            first = service.submit(spec)
            second = service.submit(spec)
            gate.set()
            r1 = service.result(first, timeout=300)
            r2 = service.result(second, timeout=300)
        # 2 cells x 2 chips = 4 units total, not 8: the second job
        # followed the first's in-flight cells.
        assert len(calls) == 4
        assert len(set(calls)) == 4
        assert r1.summaries == r2.summaries
        assert service.status(second)["cells"]["coalesced"] == 2

    def test_results_bit_identical_to_direct_run(self, runner, two_workloads):
        spec = RunSpec(
            environments=(BASELINE, TS, NOVAR),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        with CampaignService(runner, workers=2) as service:
            job = service.submit(spec)
            served = service.result(job, timeout=300)
        direct = ExperimentRunner(SERVE_CONFIG).run(spec)
        assert set(served.summaries) == set(direct.summaries)
        for cell, summary in direct.summaries.items():
            assert served.summaries[cell] == summary, cell

    def test_second_submission_served_from_cache(
        self, runner, two_workloads, tmp_path
    ):
        from repro.exps.cache import ExperimentCache

        calls = counting_units(runner)
        spec = RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        cache = ExperimentCache(tmp_path)
        with CampaignService(runner, workers=2, cache=cache) as service:
            service.result(service.submit(spec), timeout=300)
            computed = len(calls)
            job = service.submit(spec)
            # No new units: the summary came straight off disk.
            assert service.status(job)["state"] == "done"
            assert service.status(job)["cells"]["cached"] == 1
            assert len(calls) == computed

    def test_novar_cell_is_one_pseudo_unit(self, runner, two_workloads):
        cell = build_cell("k", NOVAR, AdaptationMode.EXH_DYN, two_workloads, 4, 2)
        assert len(cell.units) == 1
        assert cell.units[0].chip_index == NOVAR_CHIP
        grid = build_cell("k", TS, AdaptationMode.EXH_DYN, two_workloads, 4, 2)
        assert len(grid.units) == 8


class TestFaultTolerance:
    def test_flaky_unit_is_retried_to_success(self, runner, two_workloads):
        original = runner.run_units_batched
        failures = {"left": 2}

        def flaky(env, mode, units, *args, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient fault")
            return original(env, mode, units, *args, **kwargs)

        runner.run_units_batched = flaky
        spec = RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        settings = Settings(service_retries=3)
        with CampaignService(runner, settings=settings, workers=1) as service:
            job = service.submit(spec)
            result = service.result(job, timeout=300)
        assert failures["left"] == 0
        assert (TS.name, "Exh-Dyn") in result.summaries

    def test_poisoned_cell_fails_only_its_job(self, runner, two_workloads):
        original = runner.run_units_batched

        def poisoned(env, mode, units, *args, **kwargs):
            if env.name == TS_ASV.name and (1, 0) in units:
                raise RuntimeError("bad chip")
            return original(env, mode, units, *args, **kwargs)

        runner.run_units_batched = poisoned
        settings = Settings(service_retries=1)
        with CampaignService(runner, settings=settings, workers=2) as service:
            doomed = service.submit(RunSpec(
                environments=(TS_ASV,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
            ))
            healthy = service.submit(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
            ))
            with pytest.raises(JobFailedError) as excinfo:
                service.result(doomed, timeout=300)
            # The structured report carries the poisoned unit's identity
            # and the attempt count that exhausted the budget.
            (failure,) = excinfo.value.failures
            assert failure.environment == TS_ASV.name
            assert failure.mode == "Exh-Dyn"
            assert failure.chip_index == 1
            assert failure.attempts == 2
            assert "bad chip" in failure.error
            # The service stays up: the other job and a post-failure
            # submission both complete normally.
            assert (TS.name, "Exh-Dyn") in service.result(
                healthy, timeout=300
            ).summaries
            retry = service.submit(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
            ))
            assert service.result(retry, timeout=300) is not None

    def test_cancel(self, runner, two_workloads):
        gate = threading.Event()

        def blocked(env, mode, units, *args, **kwargs):
            gate.wait(30)
            raise RuntimeError("cancelled units never deliver")

        runner.run_units_batched = blocked
        settings = Settings(service_retries=0)
        with CampaignService(runner, settings=settings, workers=1) as service:
            job = service.submit(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
            ))
            assert service.cancel(job) is True
            assert service.cancel(job) is False  # already finished
            gate.set()
            with pytest.raises(JobCancelledError):
                service.result(job, timeout=60)

    def test_admission_control(self, runner, two_workloads):
        gate = threading.Event()

        def blocked(env, mode, units, *args, **kwargs):
            gate.wait(30)
            return [[] for _ in units]

        runner.run_units_batched = blocked
        settings = Settings(service_max_jobs=1)
        service = CampaignService(runner, settings=settings, workers=1)
        try:
            service.submit(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
            ))
            with pytest.raises(ServiceBusyError):
                service.submit(RunSpec(
                    environments=(BASELINE,),
                    modes=(AdaptationMode.EXH_DYN,),
                    workloads=two_workloads,
                ))
        finally:
            gate.set()
            service.close()

    def test_unknown_job(self, runner):
        with CampaignService(runner, workers=1) as service:
            with pytest.raises(UnknownJobError):
                service.status("job-999")


class TestScheduler:
    def test_priority_order(self):
        done = []
        scheduler = CellScheduler(
            lambda neg_priority, item: done.append(item), workers=1
        )
        # Enqueue before starting so ordering is priority, not timing.
        scheduler.submit(0, "low")
        scheduler.submit(5, "high")
        scheduler.submit(5, "high-2")
        scheduler.start()
        deadline = time.monotonic() + 10
        while len(done) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        scheduler.stop()
        assert done == ["high", "high-2", "low"]

    def test_retry_budget_exhaustion(self, runner, two_workloads):
        """The service threads retry a failing unit from the queue until
        the budget is spent: 1 try + 2 retries, then the cell poisons."""
        attempts_seen = []

        def always_fails(env, mode, units, *args, **kwargs):
            attempts_seen.append(units)
            raise RuntimeError("boom")

        runner.run_units_batched = always_fails
        settings = Settings(service_retries=2)
        with CampaignService(runner, settings=settings, workers=1) as service:
            job = service.submit(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.EXH_DYN,),
                workloads=two_workloads,
            ))
            with pytest.raises(JobFailedError) as excinfo:
                service.result(job, timeout=60)
        (failure,) = excinfo.value.failures
        assert failure.attempts == 3
        assert attempts_seen.count([(failure.chip_index, 0)]) == 3

    def test_zero_workers_refused(self, runner):
        """The service's threads are the only consumer of the queue: a
        service without one would accept jobs that never run."""
        with pytest.raises(ValueError):
            CellScheduler(lambda neg_priority, item: None, workers=0)
        with pytest.raises(ValueError):
            CampaignService(runner, workers=0)

    def test_claim_predicate_drops_items(self):
        done = []
        scheduler = CellScheduler(
            lambda neg_priority, item: done.append(item),
            workers=1,
            claim=lambda item: item != "dead",
        )
        scheduler.start()
        scheduler.submit(0, "dead")
        scheduler.submit(0, "alive")
        deadline = time.monotonic() + 10
        while "alive" not in done and time.monotonic() < deadline:
            time.sleep(0.01)
        scheduler.stop()
        assert done == ["alive"]


class _BrokenMiddleRunner:
    """The batched program always fails; alone, only chip 1 fails."""

    def run_units_batched(self, *args, **kwargs):
        raise RuntimeError("batched program failed")

    def run_unit(self, env, mode, chip_index, core_index, workloads=None,
                 bank=None, cache=None):
        if chip_index == 1:
            raise ValueError("chip 1 diverged")
        return []


class TestRunBlock:
    """The block runner reports each failed unit; it never raises."""

    def test_broken_unit_fails_alone(self, two_workloads):
        outcomes = run_block(
            _BrokenMiddleRunner(), TS, AdaptationMode.EXH_DYN,
            two_workloads, [(0, 0), (1, 0), (2, 0)],
        )
        assert outcomes[0] == [] and outcomes[2] == []
        failure = outcomes[1]
        assert isinstance(failure, UnitExecutionError)
        assert "chip=1" in str(failure)
        assert "chip 1 diverged" in str(failure)

    def test_novar_failure_is_reported(self, runner, two_workloads):
        def broken(*args, **kwargs):
            raise RuntimeError("novar measurement failed")

        runner.novar_summary = broken
        (failure,) = run_block(
            runner, NOVAR, AdaptationMode.EXH_DYN, two_workloads,
            [(NOVAR_CHIP, 0)],
        )
        assert isinstance(failure, UnitExecutionError)
        assert f"chip={NOVAR_CHIP}" in str(failure)
        assert "novar measurement failed" in str(failure)

    def test_bank_failure_is_reported(self, runner, two_workloads):
        def broken(*args, **kwargs):
            raise RuntimeError("bank load failed")

        runner.bank_for = broken
        (failure,) = run_block(
            runner, TS, AdaptationMode.FUZZY_DYN, two_workloads, [(0, 0)]
        )
        assert isinstance(failure, UnitExecutionError)
        assert "mode=Fuzzy-Dyn" in str(failure)
        assert "bank load failed" in str(failure)


class TestProtocol:
    def test_spec_roundtrip(self, two_workloads):
        spec = RunSpec(
            environments=(TS, BASELINE),
            modes=(AdaptationMode.STATIC, AdaptationMode.EXH_DYN),
            workloads=two_workloads,
        )
        rebuilt = spec_from_wire(spec_to_wire(spec))
        assert [e.name for e in rebuilt.environments] == ["TS", "Baseline"]
        assert rebuilt.modes == spec.modes
        assert [w.name for w in rebuilt.workloads] == [
            w.name for w in two_workloads
        ]

    def test_spec_defaults_and_errors(self):
        spec = spec_from_wire({"environments": ["TS"]})
        assert spec.modes == (AdaptationMode.EXH_DYN,)
        assert spec.workloads is None
        with pytest.raises(ProtocolError):
            spec_from_wire({"environments": ["NoSuchEnv"]})
        with pytest.raises(ProtocolError):
            spec_from_wire({"environments": ["TS"], "modes": ["NoSuchMode"]})
        with pytest.raises(ProtocolError):
            spec_from_wire({"environments": ["TS"], "workloads": ["nope"]})

    def test_summaries_roundtrip(self):
        from repro.exps.runner import SuiteSummary

        summaries = {
            ("TS", "Exh-Dyn"): SuiteSummary(
                f_rel=0.9031234567891234, perf_rel=0.92, power=24.0
            ),
        }
        rebuilt = summaries_from_wire(summaries_to_wire(summaries))
        assert rebuilt[("TS", "Exh-Dyn")].f_rel == 0.9031234567891234

    def test_framing(self):
        assert decode_line(encode_line({"op": "ping"})) == {"op": "ping"}
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7571") == ("127.0.0.1", 7571)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestProtocolVersion:
    @pytest.fixture()
    def daemon(self, runner):
        service = CampaignService(runner, workers=1)
        with ServiceDaemon(service, address="127.0.0.1:0") as daemon:
            yield daemon

    def test_check_version_accepts_supported_majors(self):
        assert check_version({"op": "ping"}) == 1  # pre-handshake client
        assert check_version({"op": "ping", "v": 1}) == 1
        assert check_version({"op": "ping", "v": 2}) == 2
        assert check_version({"op": "ping", "v": PROTOCOL_VERSION}) == 3
        assert PROTOCOL_VERSION in SUPPORTED_PROTOCOL_VERSIONS

    @pytest.mark.parametrize("bad", [99, 0, -1, "2", 2.0, True, None])
    def test_check_version_rejects_unknown_majors(self, bad):
        with pytest.raises(ProtocolVersionError) as excinfo:
            check_version({"op": "ping", "v": bad})
        assert excinfo.value.requested == bad

    def test_daemon_rejects_unknown_major_structurally(self, runner):
        service = CampaignService(runner, workers=1)
        with ServiceDaemon(service, address="127.0.0.1:0") as daemon:
            response = daemon.dispatch({"op": "ping", "v": 99})
            assert response["ok"] is False
            assert response["kind"] == "version"
            assert response["requested"] == 99
            assert response["supported"] == list(SUPPORTED_PROTOCOL_VERSIONS)
            # A v1 (no "v") request still dispatches normally.
            assert daemon.dispatch({"op": "ping"})["ok"] is True

    def test_v2_client_surface_still_works(self, daemon, two_workloads):
        spec = {"environments": ["NoVar"], "modes": ["Exh-Dyn"],
                "workloads": [w.name for w in two_workloads]}
        response = daemon.dispatch({"op": "submit", "v": 2, "spec": spec})
        assert response["ok"] and response["job_id"]
        assert daemon.dispatch({"op": "ping", "v": 2})["ok"]
        assert daemon.dispatch({"op": "ping"})["ok"]  # v1, pre-handshake

    @pytest.mark.parametrize("v", [None, 1, 2, 3])
    def test_fleet_register_is_an_unknown_op(self, daemon, v):
        """Remote-worker ops no longer exist at any spoken major."""
        request = {"op": "fleet.register"}
        if v is not None:
            request["v"] = v
        address = parse_address(daemon.address)
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(encode_line(request))
            response = decode_line(sock.makefile("rb").readline())
        assert response == {
            "ok": False,
            "v": PROTOCOL_VERSION,
            "error": "unknown op 'fleet.register'",
            "kind": "protocol",
        }

    def test_responses_are_stamped(self, runner):
        service = CampaignService(runner, workers=1)
        with ServiceDaemon(service, address="127.0.0.1:0") as daemon:
            assert daemon.dispatch({"op": "ping"})["v"] == PROTOCOL_VERSION
            error = daemon.dispatch({"op": "ping", "v": 99})
            assert error["v"] == PROTOCOL_VERSION


class TestDaemon:
    @pytest.fixture()
    def daemon(self, runner):
        service = CampaignService(runner, workers=2)
        with ServiceDaemon(service, address="127.0.0.1:0") as daemon:
            yield daemon

    def test_end_to_end_over_socket(self, daemon, two_workloads):
        import repro

        client = ServiceClient(daemon.address)
        ping = client.ping()
        assert ping["v"] == PROTOCOL_VERSION
        assert ping["__version__"] == repro.__version__
        spec = RunSpec(
            environments=(BASELINE,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        job = client.submit(spec)
        payload = client.result(job, timeout=300)
        summaries = summaries_from_wire(payload["cells"])
        direct = ExperimentRunner(SERVE_CONFIG).run(spec)
        assert summaries[("Baseline", "Exh-Dyn")] == direct.summary(BASELINE)
        assert client.status(job)["state"] == "done"
        assert "counters" in client.metrics()

    def test_error_envelopes_cross_the_wire(self, daemon):
        client = ServiceClient(daemon.address)
        with pytest.raises(UnknownJobError):
            client.status("job-999")

    def test_unknown_op_is_a_protocol_error(self, daemon):
        with pytest.raises(ProtocolError):
            daemon.dispatch({"op": "nope"})
        with pytest.raises(ProtocolError):
            daemon.dispatch({"op": "status"})  # missing job_id

    def test_remote_failure_report(self, daemon, two_workloads):
        service = daemon.service

        def broken(env, mode, units, *args, **kwargs):
            raise RuntimeError("remote boom")

        service.runner.run_units_batched = broken
        client = ServiceClient(daemon.address)
        job = client.submit(RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        ))
        with pytest.raises(JobFailedError) as excinfo:
            client.result(job, timeout=60)
        assert excinfo.value.failures[0].environment == "TS"
        assert "remote boom" in excinfo.value.failures[0].error

    def test_run_ladder_remote(self, daemon, two_workloads):
        ladder = run_ladder_remote(
            daemon.address,
            environments=[TS],
            modes=(AdaptationMode.EXH_DYN,),
        )
        assert (TS.name, "Exh-Dyn") in ladder.entries
        assert ladder.novar.f_rel == pytest.approx(1.0)


def cached_cells(runner, envs, workloads, root):
    """An artifact cache already holding an Exh-Dyn summary per env."""
    from repro.exps.cache import ExperimentCache, summary_key
    from repro.exps.runner import SuiteSummary

    cache = ExperimentCache(root)
    for env in envs:
        key = summary_key(
            runner.calib, runner.config, runner.core_config, env,
            AdaptationMode.EXH_DYN, list(workloads),
        )
        cache.save_summary(key, SuiteSummary(f_rel=0.9, perf_rel=0.8, power=20.0))
    return cache


class TestAdmissionCost:
    """A cached read costs a key-memo hit and a summary-memo hit."""

    def test_memo_hit_equals_fresh_key(self, runner, two_workloads):
        from repro.exps.cache import summary_key

        service = CampaignService(runner, workers=1)
        hashes = tuple(w.content_hash() for w in two_workloads)
        fresh = summary_key(
            runner.calib, runner.config, runner.core_config, TS,
            AdaptationMode.EXH_DYN, list(two_workloads),
        )
        for _ in range(2):  # a miss, then a memo hit
            assert service._summary_key(
                TS, AdaptationMode.EXH_DYN, two_workloads, hashes
            ) == fresh

    def test_replaced_config_gets_new_key(self, runner, two_workloads):
        from dataclasses import replace

        from repro.exps.cache import summary_key

        service = CampaignService(runner, workers=1)
        hashes = tuple(w.content_hash() for w in two_workloads)
        old = service._summary_key(
            TS, AdaptationMode.EXH_DYN, two_workloads, hashes
        )
        runner.config = replace(runner.config, seed=runner.config.seed + 1)
        new = service._summary_key(
            TS, AdaptationMode.EXH_DYN, two_workloads, hashes
        )
        assert new != old
        assert new == summary_key(
            runner.calib, runner.config, runner.core_config, TS,
            AdaptationMode.EXH_DYN, list(two_workloads),
        )

    def test_summary_key_runs_once_per_distinct_cell(
        self, runner, two_workloads, tmp_path, monkeypatch
    ):
        from repro.serve import service as service_module

        calls = []
        real = service_module.summary_key

        def counted(*args):
            calls.append(args[3:5])
            return real(*args)

        monkeypatch.setattr(service_module, "summary_key", counted)
        cache = cached_cells(runner, (BASELINE, TS), two_workloads, tmp_path)
        spec = RunSpec(
            environments=(BASELINE, TS),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        with obs.scoped(MetricsRegistry()) as registry:
            with CampaignService(runner, workers=1, cache=cache) as service:
                for _ in range(100):
                    job = service.submit(spec)
                    assert service.result(job, timeout=10).summaries
                stats = service.stats()
        assert len(calls) == 2
        counters = registry.to_dict()["counters"]
        assert counters["cache.summary.hits"] == 200
        assert counters["cache.summary.misses"] == 0
        assert counters["serve.cells_cached"] == 200
        assert stats["live_jobs"] == 0
        assert stats["jobs"]["done"] == 100


class TestJobRetention:
    """Finished jobs are kept up to ``MAX_FINISHED_JOBS``, oldest first
    out; a retired job is unknown and its gauges are gone."""

    @pytest.fixture()
    def spec(self, two_workloads):
        return RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )

    def test_oldest_finished_jobs_are_retired(
        self, runner, two_workloads, spec, tmp_path, monkeypatch
    ):
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 2)
        cache = cached_cells(runner, (TS,), two_workloads, tmp_path)
        with obs.scoped(MetricsRegistry()) as registry:
            with CampaignService(runner, workers=1, cache=cache) as service:
                jobs = [service.submit(spec) for _ in range(4)]
                for retired in jobs[:2]:
                    for call in (service.status, service.progress,
                                 service.result):
                        with pytest.raises(UnknownJobError):
                            call(retired)
                for kept in jobs[2:]:
                    assert service.status(kept)["state"] == "done"
                    assert service.progress(kept)["metrics"]["gauges"]
                    assert service.result(kept, timeout=10).summaries
                stats = service.stats()
                assert service._job_cells == {}
            gauges = registry.to_dict()["gauges"]
        assert stats["finished_jobs"] == 2
        assert stats["max_finished_jobs"] == 2
        assert sum(stats["jobs"].values()) == 2
        for retired in jobs[:2]:
            assert not [n for n in gauges if n.startswith(f"serve.job.{retired}.")]

    def test_unread_job_outlives_read_ones(
        self, runner, two_workloads, spec, tmp_path, monkeypatch
    ):
        # A client preempted between submit and result still gets its
        # result: twice the cap of read jobs finish after it, and the
        # read ones retire first.
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 3)
        cache = cached_cells(runner, (TS,), two_workloads, tmp_path)
        with CampaignService(runner, workers=1, cache=cache) as service:
            unread = service.submit(spec)
            read = []
            for _ in range(6):
                read.append(service.submit(spec))
                assert service.result(read[-1], timeout=10).summaries
            assert service.result(unread, timeout=10).summaries
            for retired in read[:4]:
                with pytest.raises(UnknownJobError):
                    service.status(retired)
            for kept in read[4:]:
                assert service.status(kept)["state"] == "done"
            assert service.stats()["finished_jobs"] == 3

    def test_computed_job_drops_its_cells(self, runner, two_workloads):
        spec = RunSpec(
            environments=(NOVAR,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
        )
        with CampaignService(runner, workers=1) as service:
            job = service.submit(spec)
            service.result(job, timeout=300)
            assert service._job_cells == {}
            assert service.stats()["live_jobs"] == 0

    def test_retired_job_is_unknown_over_the_wire(
        self, runner, two_workloads, spec, tmp_path, monkeypatch
    ):
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 1)
        cache = cached_cells(runner, (TS,), two_workloads, tmp_path)
        service = CampaignService(runner, workers=1, cache=cache)
        with ServiceDaemon(service, address="127.0.0.1:0") as daemon:
            client = ServiceClient(daemon.address)
            first, second = client.submit(spec), client.submit(spec)
            for call in (client.status, client.progress, client.result):
                with pytest.raises(UnknownJobError):
                    call(first)
            assert client.status(second)["state"] == "done"
            ping = client.ping()
        assert ping["live_jobs"] == 0
        assert ping["finished_jobs"] == ping["max_finished_jobs"] == 1


class TestConcurrentClients:
    def test_cached_submissions_from_many_threads(
        self, runner, two_workloads, tmp_path, monkeypatch
    ):
        """Six client threads on a shortened switch interval: every job is
        admitted once, finishes, and the tables stay consistent."""
        import sys

        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_JOBS", 50)
        cache = cached_cells(runner, (BASELINE, TS), two_workloads, tmp_path)
        specs = [
            RunSpec(environments=envs, modes=(AdaptationMode.EXH_DYN,),
                    workloads=two_workloads)
            for envs in ((BASELINE,), (TS,), (BASELINE, TS))
        ]
        done, errors = [], []

        def client(index):
            try:
                for round_ in range(40):
                    spec = specs[(index + round_) % len(specs)]
                    job = service.submit(spec)
                    result = service.result(job, timeout=30)
                    assert len(result.summaries) == len(spec.environments)
                    done.append(job)
            except Exception as exc:  # reported below, not lost in a thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.scoped(MetricsRegistry()) as registry:
                with CampaignService(runner, workers=2, cache=cache) as service:
                    threads = [threading.Thread(target=client, args=(i,))
                               for i in range(6)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                    assert not any(thread.is_alive() for thread in threads)
                    stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(done) == len(set(done)) == 240
        counters = registry.to_dict()["counters"]
        assert counters["serve.jobs_submitted"] == 240
        assert counters["serve.jobs_completed"] == 240
        assert stats["live_jobs"] == 0
        assert stats["finished_jobs"] == sum(stats["jobs"].values()) == 50


class TestSummaryWrite:
    """A finished cell is summarised and written outside the service
    lock, and published to its followers under it."""

    def test_cached_submit_does_not_wait_on_a_write(
        self, runner, two_workloads, tmp_path
    ):
        cache = cached_cells(runner, (BASELINE,), two_workloads, tmp_path)
        writing, release = threading.Event(), threading.Event()
        save = cache.save_summary

        def blocked_save(key, summary):
            writing.set()
            release.wait(60)
            save(key, summary)

        cache.save_summary = blocked_save
        computed, cached = (
            RunSpec(environments=(env,), modes=(AdaptationMode.EXH_DYN,),
                    workloads=two_workloads)
            for env in (NOVAR, BASELINE)
        )
        with CampaignService(runner, workers=1, cache=cache) as service:
            try:
                job = service.submit(computed)
                assert writing.wait(300)
                served = []
                client = threading.Thread(target=lambda: served.append(
                    service.result(service.submit(cached), timeout=10)
                ))
                client.start()
                client.join(timeout=10)
                assert not client.is_alive(), "submit waited on the write"
                assert served[0].summaries
                # A job arriving during the write follows the cell.
                follower = service.submit(computed)
                assert service.status(follower)["cells"]["coalesced"] == 1
                assert service.status(follower)["state"] != "done"
            finally:
                release.set()
            first = service.result(job, timeout=300)
            second = service.result(follower, timeout=300)
        assert first.summaries == second.summaries
        from repro.exps.cache import summary_key

        key = summary_key(
            runner.calib, runner.config, runner.core_config, NOVAR,
            AdaptationMode.EXH_DYN, list(two_workloads),
        )
        assert cache.load_summary(key) is not None
