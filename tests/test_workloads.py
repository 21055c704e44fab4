"""The ``repro.workloads`` subsystem: ingest and generate.

Covers the profile wire format and content hashes, trace ingestion
accuracy against known synthetic sources, deterministic family
generation, the inline-profile protocol path (including a daemon over
real TCP), and the ``workload_family`` DSE axis.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core import TS, AdaptationMode
from repro.exps.dse.spec import Axis, SweepSpec
from repro.exps.dse.drive import _point_runspec
from repro.exps.engine import RunSpec
from repro.exps.runner import ExperimentRunner, RunnerConfig

from repro.microarch.trace import generate_trace
from repro.microarch.workloads import WorkloadProfile, spec2000_like_suite
from repro.serve import (
    CampaignService,
    ServiceClient,
    ServiceDaemon,
    UnknownWorkloadError,
    spec_from_wire,
    summaries_from_wire,
    workloads_from_wire,
    workloads_to_wire,
)
from repro.workloads import (
    canonical_family_ref,
    family_by_name,
    family_names,
    ingest_trace,
    iter_trace,
    load_profiles,
    parse_family_ref,
    register_trace_adapter,
    save_profiles,
    trace_adapters,
    trace_records,
    write_jsonl_trace,
)
from repro.workloads.__main__ import main as workloads_main

TINY_CONFIG = RunnerConfig(
    n_chips=2,
    cores_per_chip=1,
    n_instructions=3000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


@pytest.fixture()
def metrics():
    registry = obs.MetricsRegistry()
    with obs.scoped(registry):
        yield registry


# ----------------------------------------------------------------------
# Wire format + content hashes.
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_suite_round_trips(self, suite):
        for profile in suite:
            clone = WorkloadProfile.from_wire(profile.to_wire())
            assert clone == profile
            assert clone.content_hash() == profile.content_hash()

    def test_wire_is_json_stable(self, suite):
        profile = suite[0]
        first = json.dumps(profile.to_wire(), sort_keys=True)
        second = json.dumps(
            WorkloadProfile.from_wire(json.loads(first)).to_wire(),
            sort_keys=True,
        )
        assert first == second

    def test_content_hash_tracks_content_not_name(self, suite):
        import dataclasses

        profile = suite[0]
        renamed = dataclasses.replace(profile, name="other")
        assert renamed.content_hash() != profile.content_hash()
        bumped = dataclasses.replace(
            profile, l2_miss_rate=profile.l2_miss_rate * 0.5
        )
        assert bumped.content_hash() != profile.content_hash()
        assert (
            WorkloadProfile.from_wire(profile.to_wire()).content_hash()
            == profile.content_hash()
        )

    def test_from_wire_rejects_unknown_mix_kind(self, suite):
        doc = suite[0].to_wire()
        doc["mix"] = {"NOT_A_UOP": 1.0}
        with pytest.raises(ValueError, match="mix kind"):
            WorkloadProfile.from_wire(doc)

    def test_from_wire_rejects_bad_phase(self, suite):
        doc = suite[0].to_wire()
        doc["phases"] = [{"weight": 0.5}]
        with pytest.raises(ValueError, match="phase document"):
            WorkloadProfile.from_wire(doc)


# ----------------------------------------------------------------------
# Ingestion.
# ----------------------------------------------------------------------
class TestIngestion:
    def test_measures_known_source(self, tmp_path, int_workload):
        trace = generate_trace(int_workload, 20000, seed=5)
        path = tmp_path / "t.jsonl"
        write_jsonl_trace(trace_records(trace), str(path))
        profile = ingest_trace(str(path), name="measured")
        assert profile.name == "measured"
        # The measured mix should sit near the generating distribution.
        for kind, fraction in int_workload.mix.items():
            assert profile.mix.get(kind, 0.0) == pytest.approx(
                fraction, abs=0.05
            )
        assert sum(profile.mix.values()) == 1.0
        assert profile.dep_mean_distance >= 1.0
        assert 0.0 <= profile.l2_miss_rate <= 1.0

    def test_csv_and_jsonl_agree(self, tmp_path, int_workload):
        trace = generate_trace(int_workload, 4000, seed=9)
        records = list(trace_records(trace))
        jsonl = tmp_path / "t.jsonl"
        write_jsonl_trace(records, str(jsonl))
        csv_path = tmp_path / "t.csv"
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(
                "op,dep1,dep2,branch_miss,l1_miss,l2_miss,icache_miss,block\n"
            )
            for r in records:
                block = "" if r.block is None else r.block
                handle.write(
                    f"{r.op.name},{r.dep1},{r.dep2},{int(r.branch_miss)},"
                    f"{int(r.l1_miss)},{int(r.l2_miss)},"
                    f"{int(r.icache_miss)},{block}\n"
                )
        a = ingest_trace(str(jsonl), name="x")
        b = ingest_trace(str(csv_path), name="x")
        assert a.content_hash() == b.content_hash()

    def test_adapter_registration(self, tmp_path, int_workload):
        trace = generate_trace(int_workload, 1000, seed=2)
        records = list(trace_records(trace))
        path = tmp_path / "t.custom"
        write_jsonl_trace(records, str(path))

        def read_custom(p):
            return iter_trace(p, format="jsonl")

        register_trace_adapter("customfmt", read_custom)
        assert "customfmt" in trace_adapters()
        profile = ingest_trace(str(path), name="c", format="customfmt")
        assert profile.name == "c"
        with pytest.raises(ValueError, match="customfmt"):
            next(iter_trace(str(path), format="nope"))
        with pytest.raises(ValueError):
            register_trace_adapter("jsonl", read_custom)

    def test_save_load_round_trip(self, tmp_path, suite):
        path = tmp_path / "profiles.json"
        save_profiles(suite[:3], str(path))
        loaded = load_profiles(str(path))
        assert loaded == tuple(suite[:3])

    def test_golden_ingest_wire_round_trip(self, tmp_path, int_workload):
        """Ingested-then-serialized profiles round-trip bit-identically."""
        trace = generate_trace(int_workload, 6000, seed=11)
        path = tmp_path / "t.jsonl"
        write_jsonl_trace(trace_records(trace), str(path))
        profile = ingest_trace(str(path), name="golden")
        out = tmp_path / "p.json"
        save_profiles([profile], str(out))
        (clone,) = load_profiles(str(out))
        assert clone == profile
        assert json.dumps(clone.to_wire(), sort_keys=True) == json.dumps(
            profile.to_wire(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Families.
# ----------------------------------------------------------------------
class TestFamilies:
    def test_presets_exist(self):
        assert set(family_names()) >= {"bursty", "phase_heavy", "memory_bound"}

    @pytest.mark.parametrize("name", ["bursty", "phase_heavy", "memory_bound"])
    def test_generation_is_deterministic(self, name):
        family = family_by_name(name)
        first = family.generate(size=4, seed=42)
        second = family.generate(size=4, seed=42)
        assert [p.content_hash() for p in first] == [
            p.content_hash() for p in second
        ]
        other = family.generate(size=4, seed=43)
        assert [p.content_hash() for p in first] != [
            p.content_hash() for p in other
        ]

    def test_members_stable_under_size(self):
        family = family_by_name("bursty")
        small = family.generate(size=2, seed=7)
        large = family.generate(size=5, seed=7)
        assert [p.content_hash() for p in small] == [
            p.content_hash() for p in large[:2]
        ]

    def test_members_are_valid_and_tightly_closed(self):
        for name in family_names():
            for profile in family_by_name(name).generate(size=6, seed=1):
                assert sum(profile.mix.values()) == pytest.approx(
                    1.0, abs=1e-12
                )
                assert sum(p.weight for p in profile.phases) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_parse_family_ref(self):
        family, size, seed = parse_family_ref("bursty:3:9")
        assert (family.name, size, seed) == ("bursty", 3, 9)
        assert canonical_family_ref("bursty") == canonical_family_ref(
            "bursty:4:0"
        )
        with pytest.raises(KeyError):
            parse_family_ref("nonesuch:2:1")
        with pytest.raises(ValueError):
            parse_family_ref("bursty:0:1")


# ----------------------------------------------------------------------
# Inline profiles across the protocol and the daemon.
# ----------------------------------------------------------------------
class TestInlineProtocol:
    def test_generated_profile_round_trips_inline(self):
        profiles = family_by_name("bursty").generate(size=2, seed=3)
        wire = workloads_to_wire(profiles)
        assert all(isinstance(item, dict) for item in wire)
        assert workloads_from_wire(wire) == profiles
        suite_wire = workloads_to_wire(spec2000_like_suite()[:2])
        assert all(isinstance(item, str) for item in suite_wire)

    def test_daemon_rejects_unknown_with_available_list(self):
        runner = ExperimentRunner(TINY_CONFIG)
        service = CampaignService(runner, workers=1)
        daemon = ServiceDaemon(service, address="127.0.0.1:0").start()
        try:
            client = ServiceClient(daemon.address)
            with pytest.raises(UnknownWorkloadError) as excinfo:
                client.request(
                    "submit",
                    spec={"environments": ["TS"], "workloads": ["nonesuch"]},
                )
            assert excinfo.value.missing == ["nonesuch"]
            assert "gzip*" in excinfo.value.available
        finally:
            daemon.stop()

    def test_daemon_runs_generated_profile_bit_identical(self, metrics):
        profile = family_by_name("bursty").generate(size=1, seed=42)[0]
        spec = RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=(profile,),
        )
        runner = ExperimentRunner(TINY_CONFIG)
        service = CampaignService(runner, workers=1)
        daemon = ServiceDaemon(service, address="127.0.0.1:0").start()
        try:
            client = ServiceClient(daemon.address)
            response = client.result(client.submit(spec), timeout=300)
            cells = summaries_from_wire(response["cells"])
        finally:
            daemon.stop()
        direct = ExperimentRunner(TINY_CONFIG).run(spec)
        key = ("TS", "Exh-Dyn")
        assert cells[key] == direct.summaries[key]

    def test_submit_wire_spec_with_inline_doc(self):
        profile = family_by_name("memory_bound").generate(size=1, seed=8)[0]
        spec = spec_from_wire({
            "environments": ["TS"],
            "modes": ["Exh-Dyn"],
            "workloads": ["gzip*", profile.to_wire()],
        })
        assert spec.workloads[0].name == "gzip*"
        assert spec.workloads[1] == profile


# ----------------------------------------------------------------------
# The DSE axis.
# ----------------------------------------------------------------------
class TestDseFamilyAxis:
    def test_axis_expands_to_family_members(self):
        sweep = SweepSpec(
            axes=(
                Axis.of("environment", ["TS"]),
                Axis.of("workload_family", ["bursty:2:42"]),
            )
        )
        (point,) = sweep.expand()
        runspec = _point_runspec(point)
        expected = family_by_name("bursty").generate(size=2, seed=42)
        assert runspec.workloads == expected

    def test_axis_canonicalises_refs(self):
        axis = Axis.of("workload_family", ["bursty"])
        assert axis.values == ("bursty:4:0",)
        with pytest.raises(ValueError, match="workload_family"):
            Axis.of("workload_family", ["nonesuch:2:1"])

    def test_family_conflicts_with_workloads(self):
        with pytest.raises(ValueError, match="not both"):
            SweepSpec(
                axes=(
                    Axis.of("environment", ["TS"]),
                    Axis.of("workload_family", ["bursty"]),
                ),
                base={"workloads": ["gzip*"]},
            )


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
class TestWorkloadsCli:
    def test_generate_writes_profiles(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        assert workloads_main(["generate", "bursty:2:42", "--out", str(out)]) == 0
        profiles = load_profiles(str(out))
        assert profiles == family_by_name("bursty").generate(size=2, seed=42)
        assert "bursty-42-000" in capsys.readouterr().out

    def test_ingest_cli(self, tmp_path, int_workload, capsys):
        trace = generate_trace(int_workload, 2000, seed=4)
        path = tmp_path / "web.jsonl"
        write_jsonl_trace(trace_records(trace), str(path))
        out = tmp_path / "profiles.json"
        assert workloads_main(["ingest", str(path), "--out", str(out)]) == 0
        (profile,) = load_profiles(str(out))
        assert profile.name == "web"
        assert "web" in capsys.readouterr().out

    def test_ingest_missing_file_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert workloads_main(["ingest", str(missing)]) == 1
        assert "cannot ingest" in capsys.readouterr().err

    def test_generate_unknown_family_fails(self, capsys):
        assert workloads_main(["generate", "nonesuch"]) == 2
        assert "nonesuch" in capsys.readouterr().err
