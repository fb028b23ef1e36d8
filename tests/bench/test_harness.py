"""Smoke and unit tests for the perf-regression harness.

The suites run here at a tiny scale — the point is schema and gate
correctness, not timing stability.
"""

import json

from repro.bench.harness import (
    SCHEMA_VERSION,
    BenchResult,
    SuiteReport,
    _load_baselines,
    compare_to_baseline,
    run_bench,
    run_diagnosis_suite,
    run_substrate_suite,
)


class TestSubstrateSuite:
    def test_smoke_runs_and_reports_all_benchmarks(self):
        report = run_substrate_suite(scale=0.01, repeat=1)
        names = {r.name for r in report.results}
        assert names == {
            "malloc_free",
            "malloc_free_segregated",
            "defended_malloc_free",
            "vm_word_ops",
            "vm_word_ops_scalar",
            "guest_instruction_rate",
        }
        for result in report.results:
            assert result.ops > 0
            assert result.seconds > 0
            assert result.ops_per_sec > 0

    def test_json_schema(self):
        report = run_substrate_suite(scale=0.01, repeat=1)
        doc = report.to_json()
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["suite"] == "substrate"
        for payload in doc["results"].values():
            assert {"ops", "seconds", "ops_per_sec"} <= set(payload)
        json.dumps(doc)  # must be serializable

    def test_defended_overhead_extra_present(self):
        report = run_substrate_suite(scale=0.01, repeat=1)
        defended = report.result("defended_malloc_free")
        assert "overhead_vs_raw_pct" in defended.extras


class TestRegressionGate:
    @staticmethod
    def _report(rate):
        return SuiteReport("substrate", 1.0, 1,
                           [BenchResult("malloc_free", int(rate), 1.0)])

    @staticmethod
    def _baseline(rate):
        return {"suite": "substrate",
                "results": {"malloc_free": {"ops_per_sec": rate}}}

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
        assert "malloc_free" in failures[0]

    def test_unknown_benchmarks_ignored(self):
        baseline = {"suite": "substrate",
                    "results": {"other_bench": {"ops_per_sec": 1e9}}}
        assert compare_to_baseline(self._report(1), baseline) == []


class TestRunBench:
    def test_writes_artifact_and_gates(self, tmp_path):
        status = run_bench(suites="substrate", scale=0.01, repeat=1,
                           out_dir=str(tmp_path))
        assert status == 0
        artifact = tmp_path / "BENCH_substrate.json"
        assert artifact.exists()
        doc = json.loads(artifact.read_text())
        assert doc["suite"] == "substrate"

        # Re-run against our own artifact as baseline: cannot regress
        # >10% against itself at identical scale in any sane run, but
        # timing noise exists — so gate with a huge tolerance instead.
        status = run_bench(suites="substrate", scale=0.01, repeat=1,
                           out_dir=str(tmp_path),
                           baseline=str(artifact),
                           max_regression_pct=10_000.0)
        assert status == 0

    def test_profile_writes_hotspot_artifact(self, tmp_path):
        status = run_bench(suites="substrate", scale=0.01, repeat=1,
                           out_dir=str(tmp_path), profile=True)
        assert status == 0
        profile = tmp_path / "profile_substrate.txt"
        assert profile.exists()
        text = profile.read_text()
        assert "cumulative" in text
        assert "tottime" in text
        # The JSON artifact is still produced alongside the profile.
        assert (tmp_path / "BENCH_substrate.json").exists()

    def test_regression_exit_status(self, tmp_path):
        artifact = tmp_path / "BENCH_substrate.json"
        artifact.write_text(json.dumps({
            "suite": "substrate",
            "results": {"malloc_free": {"ops_per_sec": 1e12}},
        }))
        status = run_bench(suites="substrate", scale=0.01, repeat=1,
                           out_dir=str(tmp_path),
                           baseline=str(artifact))
        assert status == 1


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
        artifact = tmp_path / "BENCH_substrate.json"
        artifact.write_text(json.dumps({"suite": "substrate",
                                        "results": {}}))
        docs = _load_baselines(str(artifact))
        assert set(docs) == {"substrate"}

    def test_directory_of_artifacts(self, tmp_path):
        for suite in ("substrate", "diagnosis"):
            (tmp_path / f"BENCH_{suite}.json").write_text(
                json.dumps({"suite": suite, "results": {}}))
        (tmp_path / "unrelated.json").write_text("{}")
        docs = _load_baselines(str(tmp_path))
        assert set(docs) == {"substrate", "diagnosis"}

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
    def test_smoke_sweep_and_schema(self):
        from repro.bench.harness import run_serving_suite

        report = run_serving_suite(scale=0.01, repeat=1,
                                   workers_sweep=(1, 2))
        names = [r.name for r in report.results]
        assert names == ["serving_sequential", "serving_workers1",
                         "serving_workers2"]
        for result in report.results:
            assert result.ops > 0
            assert result.ops_per_sec > 0
        sequential = report.result("serving_sequential")
        assert "cycle_overhead_pct" in sequential.extras
        workers2 = report.result("serving_workers2")
        assert workers2.extras["workers"] == 2
        assert "scaling_vs_workers1" in workers2.extras
        assert "scaling_vs_workers1" not in sequential.extras
        assert "cycle_overhead_pct" in workers2.extras

        doc = report.to_json()
        assert doc["suite"] == "serving"
        assert doc["meta"]["cpus"] >= 1
        json.dumps(doc)

    def test_gate_skips_multiworker_results_across_cpu_counts(self):
        report = SuiteReport(
            "serving", 1.0, 1,
            [BenchResult("serving_sequential", 100, 1.0),
             BenchResult("serving_workers1", 100, 1.0,
                         extras={"workers": 1}),
             BenchResult("serving_workers8", 100, 1.0,
                         extras={"workers": 8})],
            meta={"cpus": 1})
        baseline = {
            "suite": "serving",
            "meta": {"cpus": 8},
            "results": {
                "serving_sequential": {"ops_per_sec": 1e9},
                "serving_workers1": {"ops_per_sec": 1e9},
                "serving_workers8": {"ops_per_sec": 1e9},
            },
        }
        failures = compare_to_baseline(report, baseline)
        # Sequential and workers=1 are host-independent and still gate;
        # workers=8 is a property of the baseline host's parallelism.
        assert len(failures) == 2
        assert any("serving_sequential" in f for f in failures)
        assert any("serving_workers1" in f for f in failures)
        assert not any("serving_workers8" in f for f in failures)

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
