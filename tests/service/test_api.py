"""The unified job API: JobSpec, submit(), ExitCode, versioned reports."""

import json

import pytest

from repro.api import (
    ExitCode,
    HlsJobReport,
    JobSpec,
    JobSpecError,
    http_status,
    job_kinds,
    submit,
)
from repro.cache import FlowCache
from repro.core import (
    SCHEMA_VERSION,
    GenericReport,
    Report,
    ReportSchemaError,
    parse_report,
    report_json_text,
    report_kind,
    registered_kinds,
)

SOURCE = """
int scale(int x) { return (x * 3) >> 1; }
"""


# -- JobSpec ----------------------------------------------------------------

class TestJobSpec:
    def test_content_key_ignores_scheduling_metadata(self):
        base = JobSpec(kind="seu", params={"scenario": "ecc", "runs": 10})
        other = JobSpec(kind="seu", params={"scenario": "ecc", "runs": 10},
                        priority=9, tenant="someone-else")
        assert base.content_key() == other.content_key()

    def test_content_key_covers_kind_params_seed(self):
        base = JobSpec(kind="seu", params={"runs": 10})
        assert base.content_key() != \
            JobSpec(kind="mega", params={"runs": 10}).content_key()
        assert base.content_key() != \
            JobSpec(kind="seu", params={"runs": 11}).content_key()
        assert base.content_key() != \
            JobSpec(kind="seu", params={"runs": 10},
                    seed=99).content_key()

    def test_params_canonicalized_at_construction(self):
        spec = JobSpec(kind="seu", params={"b": 2, "a": (1, 2)})
        assert spec.params == {"a": [1, 2], "b": 2}

    def test_rejects_uncanonicalizable_params(self):
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", params={"fn": lambda: None})

    def test_rejects_bad_fields(self):
        with pytest.raises(JobSpecError):
            JobSpec(kind="")
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", tenant="")
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", seed="13")
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", priority=None)

    def test_json_round_trip(self):
        spec = JobSpec(kind="flow", params={"component": "addsub"},
                       seed=7, priority=3, tenant="alice")
        clone = JobSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_key() == spec.content_key()

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_json({"kind": "seu", "nonsense": 1})
        with pytest.raises(JobSpecError):
            JobSpec.from_json({"params": {}})


# -- ExitCode ---------------------------------------------------------------

class TestExitCode:
    def test_documented_values(self):
        assert ExitCode.OK == 0
        assert ExitCode.FAILURE == 1
        assert ExitCode.USAGE == 2
        assert ExitCode.INSUFFICIENT_EVIDENCE == 4

    def test_http_mapping(self):
        assert http_status(ExitCode.OK) == 200
        assert http_status(ExitCode.FAILURE) == 422
        assert http_status(ExitCode.USAGE) == 400
        assert http_status(ExitCode.INSUFFICIENT_EVIDENCE) == 424


# -- submit() facade --------------------------------------------------------

class TestSubmit:
    def test_unknown_kind_is_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            submit(JobSpec(kind="definitely-not-registered"))

    def test_builtin_kinds_registered(self):
        assert set(job_kinds()) >= {"hls", "flow", "characterize",
                                    "seu", "mega"}

    def test_hls_job(self):
        result = submit(JobSpec(kind="hls", params={
            "source": SOURCE, "top": "scale"}))
        assert result.exit_code is ExitCode.OK
        assert isinstance(result.report, HlsJobReport)
        assert result.report.top == "scale"
        assert isinstance(result.report, Report)
        assert result.key == result.spec.content_key()

    def test_seu_job_via_scenario_factory(self):
        result = submit(JobSpec(kind="seu", params={
            "scenario": "ecc", "scenario_params": {"words": 16},
            "runs": 30}, seed=5))
        assert result.report.runs == 30
        assert result.exit_code is ExitCode.OK

    def test_unknown_scenario_is_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown scenario"):
            submit(JobSpec(kind="seu", params={"scenario": "nope",
                                               "runs": 5}))

    def test_missing_params_is_spec_error(self):
        with pytest.raises(JobSpecError, match="missing required"):
            submit(JobSpec(kind="hls", params={"source": SOURCE}))

    def test_result_is_report_conforming(self):
        result = submit(JobSpec(kind="seu", params={
            "scenario": "raw-sram", "scenario_params": {"words": 8},
            "runs": 5}))
        assert isinstance(result, Report)
        payload = result.to_json()
        assert payload["spec"]["kind"] == "seu"
        assert payload["report_kind"] == "seu"
        assert "seu" in result.summary()


# -- direct producer calls match the facade ---------------------------------

class TestShimEquivalence:
    """A direct producer call and its job kind give equal reports."""

    def test_synthesize_matches_facade(self):
        from repro.hls import synthesize
        direct = submit(JobSpec(kind="hls", params={
            "source": SOURCE, "top": "scale"})).report
        via_shim = HlsJobReport.from_project(synthesize(SOURCE, "scale"))
        assert report_json_text(via_shim) == report_json_text(direct)

    def test_campaign_run_matches_facade(self):
        from repro.radhard.scenarios import ecc_campaign
        shim_report = ecc_campaign(16).run(30, seed=5)
        facade_report = submit(JobSpec(kind="seu", params={
            "scenario": "ecc", "scenario_params": {"words": 16},
            "runs": 30}, seed=5)).report
        assert shim_report.deterministic_json() == \
            facade_report.deterministic_json()

    def test_shim_warm_cache_byte_identity(self):
        from repro.radhard.scenarios import tmr_campaign
        cache = FlowCache()
        cold = tmr_campaign(8).run(20, seed=3, cache=cache)
        warm = tmr_campaign(8).run(20, seed=3, cache=cache)
        assert report_json_text(cold) == report_json_text(warm)
        assert cache.hit_count("radhard") == 1

    def test_mega_run_matches_facade(self):
        from repro.radhard import MegaCampaign
        from repro.radhard.scenarios import raw_sram_campaign
        shim = MegaCampaign(raw_sram_campaign(8)).run(
            40, seed=2, shard_size=10)
        facade = submit(JobSpec(kind="mega", params={
            "scenario": "raw-sram", "scenario_params": {"words": 8},
            "runs": 40, "shard_size": 10}, seed=2)).report
        assert shim.report.deterministic_json() == \
            facade.report.deterministic_json()

    def test_run_all_matches_facade(self):
        from repro.fabric.device import get_device
        from repro.fabric.nxmap import NXmapProject
        from repro.fabric.synthesis import synthesize_component
        direct = NXmapProject(synthesize_component("addsub", 8, 0),
                              get_device("NG-MEDIUM"), seed=3).run_all(
            effort=0.2, channel_width=8)
        facade = submit(JobSpec(kind="flow", seed=3, params={
            "component": "addsub", "width": 8, "stages": 0,
            "device": "NG-MEDIUM", "effort": 0.2,
            "channel_width": 8})).report
        assert report_json_text(direct) == report_json_text(facade)

    def test_sweep_matches_facade(self):
        from repro.fabric.device import get_device
        from repro.hls.characterization.eucalyptus import (
            Eucalyptus,
            SweepReport,
        )
        tool = Eucalyptus(get_device("NG-MEDIUM"), effort=0.1, seed=7)
        direct = SweepReport(device=tool.device.name, effort=tool.effort,
                             runs=tool.sweep(["logic"], [8], [0]))
        facade = submit(JobSpec(kind="characterize", seed=7, params={
            "device": "NG-MEDIUM", "effort": 0.1,
            "components": ["logic"], "widths": [8],
            "stages": [0]})).report
        assert report_json_text(direct) == report_json_text(facade)


# -- versioned report wire format -------------------------------------------

class TestVersionedWireFormat:
    def _flow_report(self):
        from repro.fabric.device import get_device
        from repro.fabric.nxmap import NXmapProject
        from repro.fabric.synthesis import synthesize_component
        project = NXmapProject(synthesize_component("addsub", 8, 0),
                               get_device("NG-MEDIUM"))
        return project.run_all(effort=0.2)

    def test_envelope_fields(self):
        report = self._flow_report()
        envelope = json.loads(report_json_text(report))
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["kind"] == "flow"
        assert envelope["payload"] == report.to_json()

    def test_parse_round_trip_byte_identical(self):
        report = self._flow_report()
        text = report_json_text(report)
        clone = parse_report(text)
        assert type(clone) is type(report)
        assert report_json_text(clone) == text

    def test_parse_accepts_bytes_and_mapping(self):
        report = self._flow_report()
        text = report_json_text(report)
        assert report_json_text(parse_report(text.encode())) == text
        assert report_json_text(parse_report(json.loads(text))) == text

    def test_report_parse_alias(self):
        import repro.core.report as report_module
        assert report_module.parse is parse_report

    def test_unknown_major_version_rejected(self):
        report = self._flow_report()
        envelope = json.loads(report_json_text(report))
        envelope["schema_version"] = "2.0"
        with pytest.raises(ReportSchemaError, match="major version"):
            parse_report(envelope)

    def test_minor_version_drift_accepted(self):
        report = self._flow_report()
        envelope = json.loads(report_json_text(report))
        envelope["schema_version"] = "1.9"
        assert report_json_text(parse_report(envelope)) == \
            report_json_text(report)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReportSchemaError, match="unknown report kind"):
            parse_report({"schema_version": SCHEMA_VERSION,
                          "kind": "martian", "payload": {}})

    def test_missing_envelope_field_rejected(self):
        with pytest.raises(ReportSchemaError, match="missing"):
            parse_report({"schema_version": SCHEMA_VERSION,
                          "payload": {}})

    def test_undecodable_text_rejected(self):
        with pytest.raises(ReportSchemaError):
            parse_report("{not json")

    def test_registry_covers_all_producers(self):
        kinds = registered_kinds()
        for kind in ("flow", "seu", "characterize", "boot", "hls",
                     "mega", "job", "characterization-run"):
            assert kind in kinds

    def test_non_decodable_kind_parses_generically(self):
        from repro.radhard import MegaCampaign
        from repro.radhard.scenarios import raw_sram_campaign
        mega = MegaCampaign(raw_sram_campaign(8)).run(
            20, seed=1, shard_size=10)
        text = report_json_text(mega)
        clone = parse_report(text)
        assert isinstance(clone, GenericReport)
        assert clone.kind == "mega"
        # Byte-preserving round trip even without a live decoder.
        assert report_json_text(clone) == text

    def test_seu_and_characterize_round_trip(self):
        from repro.hls.characterization.eucalyptus import Eucalyptus
        from repro.radhard.scenarios import ecc_campaign
        seu = ecc_campaign(8).run(10, seed=4)
        assert report_json_text(parse_report(report_json_text(seu))) \
            == report_json_text(seu)
        tool = Eucalyptus(effort=0.1)
        tool.sweep(components=["logic"], widths=[8], stages=[0])
        sweep = submit(JobSpec(kind="characterize", params={
            "effort": 0.1, "components": ["logic"], "widths": [8],
            "stages": [0]}, seed=7)).report
        assert report_json_text(parse_report(report_json_text(sweep))) \
            == report_json_text(sweep)

    def test_hls_job_report_round_trip(self):
        result = submit(JobSpec(kind="hls", params={
            "source": SOURCE, "top": "scale"}))
        text = report_json_text(result.report)
        clone = parse_report(text)
        assert isinstance(clone, HlsJobReport)
        assert report_json_text(clone) == text
        assert report_kind(clone) == "hls"
