"""CI-pipeline contract: the workflow file, Makefile, and markers agree.

The acceptance criteria of the CI issue: .github/workflows/ci.yml must be
syntactically valid YAML, every command it runs must exist as a Makefile
target, the PR gate must cover the Python 3.10/3.11 matrix, and the bench
job must upload both BENCH_*.json artifacts. Kept dependency-light (PyYAML
only, regex for the rest) so it runs on every matrix entry.
"""

import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
EXPECTED_JOBS = {"lint", "test-fast", "test", "coverage", "bench-smoke"}


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def makefile_text():
    return (REPO_ROOT / "Makefile").read_text()


def _run_commands(workflow):
    for job in workflow["jobs"].values():
        for step in job.get("steps", []):
            if "run" in step:
                yield step["run"]


class TestWorkflowFile:
    def test_parses_as_yaml_with_jobs(self, workflow):
        assert isinstance(workflow, dict)
        assert set(workflow["jobs"]) == EXPECTED_JOBS

    def test_triggers_on_push_and_pr(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers

    def test_pr_gate_matrix_covers_310_and_311(self, workflow):
        matrix = workflow["jobs"]["test-fast"]["strategy"]["matrix"]
        assert set(matrix["python-version"]) == {"3.10", "3.11"}
        # Versions must be quoted strings: a bare 3.10 is YAML float 3.1.
        assert all(isinstance(v, str) for v in matrix["python-version"])

    def test_full_suite_runs_in_second_job(self, workflow):
        assert any(
            "make test" in cmd.split("\n")[-1] or cmd.strip() == "make test"
            for cmd in _run_commands(workflow)
        )
        assert workflow["jobs"]["test"]["needs"] == "test-fast"

    def test_every_make_command_has_a_target(self, workflow, makefile_text):
        targets = set(re.findall(r"^([A-Za-z][\w-]*):", makefile_text, re.M))
        invoked = {
            m.group(1)
            for cmd in _run_commands(workflow)
            for m in re.finditer(r"\bmake\s+([\w-]+)", cmd)
        }
        assert invoked, "workflow must drive the build through make"
        missing = invoked - targets
        assert not missing, f"workflow invokes unknown make targets: {missing}"

    def test_expected_make_targets_are_all_exercised(self, workflow):
        invoked = {
            m.group(1)
            for cmd in _run_commands(workflow)
            for m in re.finditer(r"\bmake\s+([\w-]+)", cmd)
        }
        assert {"lint", "test-fast", "test", "coverage", "bench-smoke"} <= invoked

    def test_bench_job_uploads_all_artifacts(self, workflow):
        uploads = [
            step
            for step in workflow["jobs"]["bench-smoke"]["steps"]
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads, "bench-smoke must upload artifacts"
        paths = uploads[0]["with"]["path"]
        assert "BENCH_parallel.json" in paths
        assert "BENCH_streaming.json" in paths
        assert "BENCH_fastpath.json" in paths
        assert "BENCH_serving.json" in paths
        assert "BENCH_monitoring.json" in paths
        assert "BENCH_chaos.json" in paths
        assert "BENCH_telemetry.json" in paths

    def test_bench_smoke_runs_fastpath_bench(self, makefile_text):
        smoke = makefile_text.split("bench-smoke:")[1].split("\n\n")[0]
        assert "bench_fastpath.py" in smoke

    def test_bench_smoke_runs_serving_bench(self, makefile_text):
        smoke = makefile_text.split("bench-smoke:")[1].split("\n\n")[0]
        assert "bench_serving.py" in smoke

    def test_bench_smoke_runs_monitoring_bench(self, makefile_text):
        smoke = makefile_text.split("bench-smoke:")[1].split("\n\n")[0]
        assert "bench_monitoring.py" in smoke

    def test_bench_smoke_runs_chaos_bench(self, makefile_text):
        smoke = makefile_text.split("bench-smoke:")[1].split("\n\n")[0]
        assert "bench_chaos.py" in smoke

    def test_bench_job_runs_perfbench_smoke(self, workflow, makefile_text):
        """The repository benchmark's smoke tests run as their own step of
        the bench job, through a make target that runs perfbench/smoke.py."""
        target = makefile_text.split("perfbench-smoke:")[1].split("\n\n")[0]
        assert "pytest -q perfbench/smoke.py" in target
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        assert any(step.get("run", "").strip() == "make perfbench-smoke"
                   for step in steps)

    def test_bench_monitoring_target_exists(self, makefile_text):
        assert "bench-monitoring:" in makefile_text

    def test_bench_chaos_target_exists(self, makefile_text):
        assert "bench-chaos:" in makefile_text

    def test_bench_smoke_runs_telemetry_bench(self, makefile_text):
        smoke = makefile_text.split("bench-smoke:")[1].split("\n\n")[0]
        assert "bench_telemetry.py" in smoke

    def test_bench_telemetry_target_exists(self, makefile_text):
        assert "bench-telemetry:" in makefile_text

    def test_bench_report_covers_telemetry_artifact(self):
        import sys

        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import bench_report
        finally:
            sys.path.pop(0)
        assert "BENCH_telemetry.json" in bench_report.ARTIFACTS

    @pytest.mark.parametrize("job", ["test-fast", "test", "coverage"])
    def test_pytest_jobs_install_hypothesis(self, workflow, job):
        """Test modules import hypothesis at module level; a runner
        without it stops at collection."""
        installs = [
            step["run"]
            for step in workflow["jobs"][job]["steps"]
            if "pip install" in step.get("run", "")
        ]
        assert installs, f"{job} has no install step"
        assert any(re.search(r"\bhypothesis\b", cmd) for cmd in installs), job

    def test_coverage_job_is_informational(self, workflow):
        assert workflow["jobs"]["coverage"].get("continue-on-error") is True

    def test_jobs_gate_on_lint_then_fast_tests(self, workflow):
        assert workflow["jobs"]["test-fast"]["needs"] == "lint"
        for job in ("coverage", "bench-smoke"):
            assert workflow["jobs"][job]["needs"] == "test-fast"


class TestMarkersRegistered:
    def test_pyproject_registers_slow_and_bench(self):
        # Text-level check: tomllib only exists on 3.11+, and the CI matrix
        # includes 3.10.
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.pytest.ini_options]" in pyproject
        assert re.search(r'"slow:', pyproject)
        assert re.search(r'"bench:', pyproject)
        assert re.search(r'"chaos:', pyproject)

    def test_dev_extras_include_hypothesis(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        dev = re.search(r"^dev\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
        assert dev and '"hypothesis"' in dev.group(1)

    def test_slow_marker_applied_to_experiment_tests(self):
        for name in (
            "test_experiments.py",
            "test_experiments_figures.py",
            "test_integration.py",
        ):
            text = (REPO_ROOT / "tests" / name).read_text()
            assert "pytestmark = pytest.mark.slow" in text, name

    def test_makefile_fast_target_deselects_markers(self):
        makefile = (REPO_ROOT / "Makefile").read_text()
        assert 'not slow and not bench' in makefile

    def test_running_session_knows_the_markers(self, pytestconfig):
        """The live pytest session parsed pyproject.toml and registered
        both markers — no unknown-marker warnings anywhere in the suite."""
        registered = "\n".join(pytestconfig.getini("markers"))
        assert "slow:" in registered
        assert "bench:" in registered
        assert "chaos:" in registered


class TestLintGate:
    """`make lint` is a single repro-lint invocation with one exit code."""

    def test_lint_target_runs_repro_lint(self, makefile_text):
        lint = makefile_text.split("lint:")[1].split("\n\n")[0]
        assert "repro_lint.py" in lint
        assert "compileall" in lint
        assert "--out LINT_report.json" in lint

    def test_lint_fix_baseline_target_exists(self, makefile_text):
        target = makefile_text.split("lint-fix-baseline:")[1].split("\n\n")[0]
        assert "--write-baseline" in target

    def test_lint_job_uploads_report_artifact(self, workflow):
        uploads = [
            step
            for step in workflow["jobs"]["lint"]["steps"]
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads, "lint job must upload the lint report"
        assert "LINT_report.json" in uploads[0]["with"]["path"]
        assert uploads[0]["with"]["if-no-files-found"] == "error"


class TestRegistryCompleteness:
    """The classifier-registry audit is wired into the build and passes."""

    def test_registry_audit_reachable_through_lint_runner(self):
        """tools/check_registry.py is a shim over the repro-lint registry
        checker — the runner must expose it by name."""
        import sys

        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from analysis import default_checkers
        finally:
            sys.path.pop(0)
        assert "registry" in {c.name for c in default_checkers()}

    def test_bench_smoke_runs_bench_report(self, makefile_text):
        smoke = makefile_text.split("bench-smoke:")[1].split("\n\n")[0]
        assert "bench_report.py" in smoke

    def test_registry_has_no_problems(self):
        """Every exported classifier registered, every contract honoured,
        every preset constructs and fits — the same audit `make lint` runs
        via tools/check_registry.py."""
        from repro.registry import registry_problems

        assert registry_problems(check_presets=True) == []

    def test_bench_report_tolerates_missing_artifacts(self, tmp_path):
        import sys

        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import bench_report
        finally:
            sys.path.pop(0)
        report, missing = bench_report.build_report(str(tmp_path))
        assert set(missing) == set(bench_report.ARTIFACTS)
        assert "Missing artifacts" in report

    def test_bench_report_prints_code_size_next_to_lint(self, tmp_path):
        """The net-LoC headline: physical lines of `.py` files under
        src/repro and, separately, src/repro/serving (as `wc -l`)."""
        import sys

        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import bench_report
        finally:
            sys.path.pop(0)
        serving = tmp_path / "src" / "repro" / "serving"
        serving.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "a.py").write_text("x = 1\n\ny = 2\n")
        (serving / "b.py").write_text("z = 3\n")
        (serving / "notes.txt").write_text("not python\n")
        report, _ = bench_report.build_report(str(tmp_path))
        lines = report.splitlines()
        code = lines.index(
            "Code size: 4 lines of Python under `src/repro`, "
            "1 under `src/repro/serving`."
        )
        assert lines[code - 1].startswith("Lint: ")
        # On the real tree the counts agree with a direct newline count.
        real = bench_report.code_size_line()
        expected = sum(
            path.read_bytes().count(b"\n")
            for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        )
        assert f"Code size: {expected:,} lines" in real


class TestRegistrySmoke:
    """Registry round-trip smoke: the artifact path CI's lifecycle relies
    on — register → reopen → load — must stay bit-exact end to end."""

    def test_register_reopen_load_roundtrip(self, tmp_path):
        import numpy as np

        from repro.core import SelfPacedEnsembleClassifier
        from repro.datasets import make_checkerboard
        from repro.lifecycle import ArtifactRegistry

        X, y = make_checkerboard(n_minority=40, n_majority=400, random_state=0)
        clf = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
        version = ArtifactRegistry(tmp_path / "reg").register(clf)
        reopened = ArtifactRegistry(tmp_path / "reg")
        assert reopened.versions() == [version]
        loaded = reopened.load(version)
        assert np.array_equal(loaded.predict_proba(X), clf.predict_proba(X))
