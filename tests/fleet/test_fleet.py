"""Fleet immunization end to end, plus the ``repro fleet`` CLI.

The loop under test: instance 0 observes attacks landing under the
empty table, the diagnosis publishes a signed table, and every
instance verifies and hot-swaps it mid-serve — attacks before the swap
leak, attacks after it fault into the guard page.  The canonical fleet
report must be byte-identical across ``jobs`` counts, and a tampered
distribution channel must exit 2 with a one-line typed error.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.fleet import (
    FleetError,
    FleetOptions,
    RegistryError,
    run_fleet,
)

#: Small-but-real fleet shape: 96 benign requests in batches of 8 with
#: 4 planted attacks — two land before the mid-stream swap, two after.
OPTIONS = FleetOptions(service="nginx", instances=2, attacks=4,
                       requests=96, batch_size=8, jobs=1)


@pytest.fixture(scope="module")
def fleet():
    return run_fleet(OPTIONS)


class TestImmunization:
    def test_fleet_becomes_immune(self, fleet):
        assert fleet.immune
        assert fleet.report["fleet_immune"] is True
        assert fleet.report["immune_instances"] == OPTIONS.instances

    def test_instance_zero_observed_the_attacks(self, fleet):
        observed = fleet.report["observed"]["outcomes"]
        assert observed["leak"] == 4
        assert "blocked" not in observed

    def test_attacks_leak_before_swap_and_block_after(self, fleet):
        for inst in fleet.report["instance_reports"]:
            by_version = {}
            for version, status, count in inst["version_outcomes"]:
                by_version.setdefault(version, {})[status] = count
            old, new = min(by_version), max(by_version)
            assert old < new
            assert by_version[old].get("leak", 0) > 0
            assert by_version[new].get("blocked", 0) > 0
            # The immunity claim proper: nothing leaks under the
            # swapped-in table.
            assert by_version[new].get("leak", 0) == 0

    def test_every_batch_has_exactly_one_published_version(self, fleet):
        published = {0, fleet.snapshot.version}
        for inst in fleet.report["instance_reports"]:
            versions = inst["table_versions"]
            assert set(versions) <= published
            assert versions == sorted(versions)  # swaps never roll back
            assert inst["applied_version"] == fleet.snapshot.version

    def test_swap_latency_and_immunization_telemetry(self, fleet):
        latencies = fleet.telemetry["swap_latency"]
        assert len(latencies) == OPTIONS.instances
        assert all(latency >= 0 for latency in latencies)
        assert fleet.telemetry["immunization_seconds"] > 0
        assert fleet.telemetry["attack_wall"] > 0

    def test_report_is_timing_free(self, fleet):
        """No wall-clock quantity may leak into the canonical report."""
        text = json.dumps(fleet.report)
        for key in ("wall", "seconds", "latency"):
            assert key not in text


class TestDeterminism:
    def test_reports_byte_identical_across_jobs(self, fleet):
        parallel = run_fleet(replace(OPTIONS, jobs=2))
        assert json.dumps(parallel.report, sort_keys=True) == \
            json.dumps(fleet.report, sort_keys=True)

    def test_instances_serve_identical_streams(self, fleet):
        digests = {inst["outcomes_digest"]
                   for inst in fleet.report["instance_reports"]}
        assert len(digests) == 1


class TestValidation:
    def test_single_attack_rejected(self):
        with pytest.raises(FleetError):
            run_fleet(replace(OPTIONS, attacks=1))

    def test_mysql_has_no_attack_path(self):
        with pytest.raises(FleetError):
            run_fleet(replace(OPTIONS, service="mysql"))

    def test_zero_instances_rejected(self):
        with pytest.raises(FleetError):
            run_fleet(replace(OPTIONS, instances=0))

    @pytest.mark.parametrize("field", ["batch_size", "requests"])
    def test_empty_shape_rejected_before_planning(self, field):
        with pytest.raises(FleetError, match=field):
            run_fleet(replace(OPTIONS, **{field: 0}))

    @pytest.mark.parametrize("mode,error", [
        ("bitflip", "ContentMismatch"),
        ("replay", "StaleVersion"),
        ("wrong-key", "SignatureMismatch"),
    ])
    def test_tampered_channel_raises_typed_error(self, mode, error):
        with pytest.raises(RegistryError) as excinfo:
            run_fleet(replace(OPTIONS, instances=1, tamper=mode))
        assert type(excinfo.value).__name__ == error


ARGS = ["fleet", "--instances", "2", "--attacks", "4",
        "--requests", "96", "--batch-size", "8"]


class TestCli:
    def test_immune_fleet_exits_zero(self, capsys):
        assert main(ARGS) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["fleet_immune"] is True
        assert "immunized" in captured.err

    def test_json_report_byte_identical_across_jobs(self, tmp_path):
        paths = []
        for jobs in ("1", "2"):
            path = tmp_path / f"fleet-jobs{jobs}.json"
            assert main(ARGS + ["--jobs", jobs,
                                "--json", str(path)]) == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("mode", ["bitflip", "replay", "wrong-key"])
    def test_tamper_exits_two_without_traceback(self, mode, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--instances", "1", "--tamper", mode])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip()  # one-line typed message

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--attacks", "1"])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_batch_size_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--batch-size", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "batch_size must be >= 1" in err
