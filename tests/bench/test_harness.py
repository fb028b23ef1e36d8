"""Smoke and unit tests for the perf-regression harness.

The suites run here at a tiny scale — the point is schema and gate
correctness, not timing stability.
"""

import json

import pytest

from repro.bench import harness
from repro.bench.harness import (
    SCHEMA_VERSION,
    BenchResult,
    SuiteReport,
    _load_baselines,
    compare_to_baseline,
    run_bench,
    run_diagnosis_suite,
    run_serving_suite,
)


class TestRegressionGate:
    @staticmethod
    def _report(rate):
        return SuiteReport("layout", 1.0, 1,
                           [BenchResult("layout_workloads", int(rate),
                                        1.0)])

    @staticmethod
    def _baseline(rate):
        return {"suite": "layout",
                "results": {"layout_workloads": {"ops_per_sec": rate}}}

    def test_no_regression_passes(self):
        failures = compare_to_baseline(self._report(100_000),
                                       self._baseline(95_000))
        assert failures == []

    def test_within_tolerance_passes(self):
        failures = compare_to_baseline(self._report(95_000),
                                       self._baseline(100_000))
        assert failures == []  # ~5.3% down, under the 10% gate

    def test_large_regression_fails(self):
        failures = compare_to_baseline(self._report(50_000),
                                       self._baseline(100_000))
        assert len(failures) == 1
        assert "layout_workloads" in failures[0]

    def test_unknown_benchmarks_ignored(self):
        baseline = {"suite": "layout",
                    "results": {"other_bench": {"ops_per_sec": 1e9}}}
        assert compare_to_baseline(self._report(1), baseline) == []


class TestRunBench:
    def test_writes_artifact_and_gates(self, tmp_path):
        status = run_bench(suites="layout", scale=0.05, repeat=1,
                           out_dir=str(tmp_path))
        assert status == 0
        artifact = tmp_path / "BENCH_layout.json"
        assert artifact.exists()
        doc = json.loads(artifact.read_text())
        assert doc["suite"] == "layout"

        # Re-run against our own artifact as baseline: cannot regress
        # >10% against itself at identical scale in any sane run, but
        # timing noise exists — so gate with a huge tolerance instead.
        status = run_bench(suites="layout", scale=0.05, repeat=1,
                           out_dir=str(tmp_path),
                           baseline=str(artifact),
                           max_regression_pct=10_000.0)
        assert status == 0

    def test_profile_writes_hotspot_artifact(self, tmp_path):
        status = run_bench(suites="layout", scale=0.05, repeat=1,
                           out_dir=str(tmp_path), profile=True)
        assert status == 0
        profile = tmp_path / "profile_layout.txt"
        assert profile.exists()
        text = profile.read_text()
        assert "cumulative" in text
        assert "tottime" in text
        # The JSON artifact is still produced alongside the profile.
        assert (tmp_path / "BENCH_layout.json").exists()

    def test_regression_exit_status(self, tmp_path):
        artifact = tmp_path / "BENCH_layout.json"
        artifact.write_text(json.dumps({
            "suite": "layout",
            "results": {"layout_workloads": {"ops_per_sec": 1e12}},
        }))
        status = run_bench(suites="layout", scale=0.05, repeat=1,
                           out_dir=str(tmp_path),
                           baseline=str(artifact))
        assert status == 1


class TestUsageErrors:
    """Bad arguments and unreadable baselines exit 2 with one stderr
    line, before any suite runs (so nothing is written)."""

    @staticmethod
    def _assert_usage_error(tmp_path, capsys, **kwargs):
        out = tmp_path / "out"
        args = dict(suites="layout", scale=0.05, repeat=1,
                    out_dir=str(out))
        args.update(kwargs)
        assert run_bench(**args) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "BENCH_layout.json").exists()
        return err

    def test_missing_baseline(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        err = self._assert_usage_error(tmp_path, capsys,
                                       baseline=str(missing))
        assert str(missing) in err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
    def test_malformed_baseline(self, tmp_path, capsys, text):
        artifact = tmp_path / "BENCH_layout.json"
        artifact.write_text(text)
        err = self._assert_usage_error(tmp_path, capsys,
                                       baseline=str(artifact))
        assert str(artifact) in err

    def test_malformed_file_in_baseline_directory(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "BENCH_layout.json").write_text("{}")
        (baselines / "BENCH_synth.json").write_text("{truncated")
        err = self._assert_usage_error(tmp_path, capsys,
                                       baseline=str(baselines))
        assert "BENCH_synth.json" in err

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_repeat_below_one(self, tmp_path, capsys, repeat):
        err = self._assert_usage_error(tmp_path, capsys, repeat=repeat)
        assert "--repeat" in err

    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan")])
    def test_scale_not_positive(self, tmp_path, capsys, scale):
        err = self._assert_usage_error(tmp_path, capsys, scale=scale)
        assert "--scale" in err


class TestDiagnosisSuite:
    def test_smoke_sweep_and_schema(self):
        report = run_diagnosis_suite(scale=0.02, repeat=1,
                                     jobs_sweep=(1, 2))
        names = [r.name for r in report.results]
        assert names == ["diagnosis_jobs1", "diagnosis_jobs2",
                         "diagnosis_merge"]
        for result in report.results:
            assert result.ops > 0
            assert result.ops_per_sec > 0
        jobs2 = report.result("diagnosis_jobs2")
        assert jobs2.extras["jobs"] == 2
        assert "speedup_vs_jobs1" in jobs2.extras

        doc = report.to_json()
        assert doc["suite"] == "diagnosis"
        assert doc["meta"]["cpus"] >= 1
        json.dumps(doc)

    def test_gate_skips_parallel_results_across_cpu_counts(self):
        report = SuiteReport(
            "diagnosis", 1.0, 1,
            [BenchResult("diagnosis_jobs1", 100, 1.0,
                         extras={"jobs": 1}),
             BenchResult("diagnosis_jobs4", 100, 1.0,
                         extras={"jobs": 4})],
            meta={"cpus": 1})
        baseline = {
            "suite": "diagnosis",
            "meta": {"cpus": 4},
            "results": {
                "diagnosis_jobs1": {"ops_per_sec": 1e9},
                "diagnosis_jobs4": {"ops_per_sec": 1e9},
            },
        }
        failures = compare_to_baseline(report, baseline)
        # jobs=1 is host-independent and must still gate; jobs=4 is a
        # property of the baseline host's parallelism and must not.
        assert len(failures) == 1
        assert "diagnosis_jobs1" in failures[0]

    def test_gate_compares_parallel_results_on_same_cpu_count(self):
        report = SuiteReport(
            "diagnosis", 1.0, 1,
            [BenchResult("diagnosis_jobs4", 100, 1.0,
                         extras={"jobs": 4})],
            meta={"cpus": 4})
        baseline = {
            "suite": "diagnosis",
            "meta": {"cpus": 4},
            "results": {"diagnosis_jobs4": {"ops_per_sec": 1e9}},
        }
        failures = compare_to_baseline(report, baseline)
        assert len(failures) == 1


class TestBaselineLoading:
    def test_single_file(self, tmp_path):
        artifact = tmp_path / "BENCH_layout.json"
        artifact.write_text(json.dumps({"suite": "layout",
                                        "results": {}}))
        docs = _load_baselines(str(artifact))
        assert set(docs) == {"layout"}

    def test_directory_of_artifacts(self, tmp_path):
        for suite in ("layout", "diagnosis"):
            (tmp_path / f"BENCH_{suite}.json").write_text(
                json.dumps({"suite": suite, "results": {}}))
        (tmp_path / "unrelated.json").write_text("{}")
        docs = _load_baselines(str(tmp_path))
        assert set(docs) == {"layout", "diagnosis"}

    def test_run_bench_gates_diagnosis_against_directory(self, tmp_path):
        status = run_bench(suites="diagnosis", scale=0.02, repeat=1,
                           out_dir=str(tmp_path))
        assert status == 0
        assert (tmp_path / "BENCH_diagnosis.json").exists()
        # Gate the same run against its own artifact directory with a
        # huge tolerance (timing noise), which must pass.
        status = run_bench(suites="diagnosis", scale=0.02, repeat=1,
                           out_dir=str(tmp_path),
                           baseline=str(tmp_path),
                           max_regression_pct=10_000.0)
        assert status == 0


class TestFuzzSuite:
    def test_smoke_sweep_and_schema(self):
        from repro.bench.harness import run_fuzz_suite

        report = run_fuzz_suite(scale=0.02, repeat=1)
        names = {r.name for r in report.results}
        assert names == {"fuzz_generation", "fuzz_jobs1", "fuzz_jobs2"}
        assert report.meta["cpus"] >= 1
        jobs2 = report.result("fuzz_jobs2")
        assert jobs2.extras["jobs"] == 2
        assert "speedup_vs_jobs1" in jobs2.extras
        doc = report.to_json()
        assert doc["suite"] == "fuzz"
        assert doc["schema"] == SCHEMA_VERSION

    def test_run_bench_emits_fuzz_artifact(self, tmp_path):
        status = run_bench(suites="fuzz", scale=0.02, repeat=1,
                           out_dir=str(tmp_path))
        assert status == 0
        doc = json.loads((tmp_path / "BENCH_fuzz.json").read_text())
        assert doc["suite"] == "fuzz"
        assert doc["results"]["fuzz_jobs1"]["ops"] >= 6


class TestLayoutSuite:
    def test_smoke_and_schema(self):
        from repro.bench.harness import run_layout_suite

        report = run_layout_suite(scale=0.05, repeat=1)
        names = {r.name for r in report.results}
        assert names == {"layout_workloads", "layout_generated"}
        workloads = report.result("layout_workloads")
        assert workloads.ops >= 30  # all builtin workloads analyzed
        doc = report.to_json()
        assert doc["suite"] == "layout"
        assert doc["schema"] == SCHEMA_VERSION

    def test_run_bench_emits_layout_artifact(self, tmp_path):
        status = run_bench(suites="layout", scale=0.05, repeat=1,
                           out_dir=str(tmp_path))
        assert status == 0
        doc = json.loads((tmp_path / "BENCH_layout.json").read_text())
        assert doc["suite"] == "layout"
        assert doc["results"]["layout_generated"]["ops"] >= 10


class TestServingSuite:
    def test_smoke_sweep_and_schema(self, monkeypatch):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        report = run_serving_suite(scale=0.01, repeat=1,
                                   workers_sweep=(1, 2))
        names = [r.name for r in report.results]
        assert names == ["serving_workers1", "serving_workers2"]
        for result in report.results:
            assert result.ops > 0
            assert result.ops_per_sec > 0
        workers1 = report.result("serving_workers1")
        assert workers1.extras == {"workers": 1}
        workers2 = report.result("serving_workers2")
        assert set(workers2.extras) == {"workers", "scaling_vs_workers1"}
        assert workers2.extras["workers"] == 2

        doc = report.to_json()
        assert doc["suite"] == "serving"
        assert doc["meta"]["cpus"] == 2
        json.dumps(doc)

    @staticmethod
    def _fake_engine(calls, digest_of=lambda workers: "same"):
        def bench(requests, batch_size, workers, repeat, workers1=None):
            calls.append((requests, batch_size, workers))
            return (BenchResult(f"serving_workers{workers}", requests,
                                1.0, extras={"workers": workers}),
                    digest_of(workers))
        return bench

    @pytest.mark.parametrize("cpus,recorded", [
        (1, [1]), (2, [1, 2]), (3, [1, 2]), (8, [1, 2, 4, 8])])
    def test_points_above_usable_cpus_are_skipped(self, monkeypatch,
                                                  cpus, recorded):
        calls = []
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "bench_serving_engine",
                            self._fake_engine(calls))
        report = run_serving_suite(scale=1.0, repeat=1)
        assert [r.name for r in report.results] == [
            f"serving_workers{w}" for w in recorded]
        assert report.meta["cpus"] == cpus
        # Every host serves the same batches: the batch size comes from
        # the full sweep, not from the points this host records.
        assert {(requests, batch) for requests, batch, _ in calls} == {
            (32000, 32000 // 8)}
        assert [workers for _, _, workers in calls] == recorded

    def test_diverging_digests_fail_the_suite(self, monkeypatch):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "bench_serving_engine",
                            self._fake_engine([], lambda w: f"d{w}"))
        with pytest.raises(RuntimeError, match="diverged"):
            run_serving_suite(scale=0.01, repeat=1, workers_sweep=(1, 2))

    def test_gate_skips_multiworker_results_across_cpu_counts(self):
        report = SuiteReport(
            "serving", 1.0, 1,
            [BenchResult("serving_workers1", 100, 1.0,
                         extras={"workers": 1}),
             BenchResult("serving_workers8", 100, 1.0,
                         extras={"workers": 8})],
            meta={"cpus": 1})
        baseline = {
            "suite": "serving",
            "meta": {"cpus": 8},
            "results": {
                "serving_workers1": {"ops_per_sec": 1e9},
                "serving_workers8": {"ops_per_sec": 1e9},
            },
        }
        failures = compare_to_baseline(report, baseline)
        # workers=1 is host-independent and still gates; workers=8 is
        # a property of the baseline host's parallelism.
        assert len(failures) == 1
        assert "serving_workers1" in failures[0]

    def test_gate_compares_multiworker_results_on_same_cpu_count(self):
        report = SuiteReport(
            "serving", 1.0, 1,
            [BenchResult("serving_workers8", 100, 1.0,
                         extras={"workers": 8})],
            meta={"cpus": 8})
        baseline = {
            "suite": "serving",
            "meta": {"cpus": 8},
            "results": {"serving_workers8": {"ops_per_sec": 1e9}},
        }
        assert len(compare_to_baseline(report, baseline)) == 1
