"""repro-lint: the AST-based static-analysis suite enforcing the repo's
concurrency, determinism, exception, lifecycle, and API contracts.

Pins the static-analysis issue's acceptance criteria: every rule class
fires on a known-bad fixture snippet at exactly the expected line and
stays silent on the matching good snippet; `# repro-lint: disable=` and
`disable-file=` pragmas suppress findings (and unknown rules in pragmas
are themselves findings); the baseline round-trips and subtracts; the
whole `src/repro` tree is clean under every AST checker with an empty
shipped baseline; and the `tools/repro_lint.py` runner exits 0 on a
clean tree, 1 on a deliberate violation, and emits a stable JSON report.

The checkers are pure-AST (no library import), so these tests exercise
them directly through `analysis.lint_text` on source strings.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS_DIR = str(REPO_ROOT / "tools")
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)

from analysis import (  # noqa: E402 — sys.path bootstrap above
    apply_baseline,
    default_checkers,
    known_rules,
    lint_paths,
    lint_text,
    load_baseline,
    write_baseline,
)

RUNNER = str(REPO_ROOT / "tools" / "repro_lint.py")


def fired(snippet, rule, path="src/repro/_snippet.py"):
    """Lines at which ``rule`` fires on the dedented ``snippet``."""
    findings = lint_text(textwrap.dedent(snippet), path=path)
    return [f.line for f in findings if f.rule == rule]


# --------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------- #
class TestConcurrencyRules:
    def test_sleep_under_lock_fires(self):
        bad = '''
        import threading
        import time

        _lock = threading.Lock()

        def slow():
            """Doc."""
            with _lock:
                time.sleep(1.0)
        '''
        assert fired(bad, "lock-blocking-call") == [10]

    def test_sleep_outside_lock_is_silent(self):
        good = '''
        import threading
        import time

        _lock = threading.Lock()

        def slow():
            """Doc."""
            with _lock:
                x = 1
            time.sleep(1.0)
        '''
        assert fired(good, "lock-blocking-call") == []

    def test_unbounded_queue_get_under_lock_fires(self):
        bad = '''
        def drain(self):
            """Doc."""
            with self._lock:
                item = self._queue.get()
        '''
        assert fired(bad, "lock-blocking-call") == [5]

    def test_bounded_queue_get_under_lock_is_silent(self):
        good = '''
        def drain(self):
            """Doc."""
            with self._lock:
                item = self._queue.get(timeout=0.1)
        '''
        assert fired(good, "lock-blocking-call") == []

    def test_acquire_without_try_finally_fires(self):
        bad = '''
        import threading

        _lock = threading.Lock()

        def f():
            """Doc."""
            _lock.acquire()
            _lock.release()
        '''
        assert fired(bad, "lock-acquire-discipline") == [8]

    def test_acquire_with_try_finally_is_silent(self):
        good = '''
        import threading

        _lock = threading.Lock()

        def f():
            """Doc."""
            _lock.acquire()
            try:
                pass
            finally:
                _lock.release()
        '''
        assert fired(good, "lock-acquire-discipline") == []

    def test_inconsistent_lock_order_fires(self):
        bad = '''
        import threading

        _a_lock = threading.Lock()
        _b_lock = threading.Lock()

        def f():
            """Doc."""
            with _a_lock:
                with _b_lock:
                    pass

        def g():
            """Doc."""
            with _b_lock:
                with _a_lock:
                    pass
        '''
        assert fired(bad, "lock-order-cycle") != []

    def test_consistent_lock_order_is_silent(self):
        good = '''
        import threading

        _a_lock = threading.Lock()
        _b_lock = threading.Lock()

        def f():
            """Doc."""
            with _a_lock:
                with _b_lock:
                    pass

        def g():
            """Doc."""
            with _a_lock:
                with _b_lock:
                    pass
        '''
        assert fired(good, "lock-order-cycle") == []

    def test_reacquiring_plain_lock_fires_self_deadlock(self):
        bad = '''
        import threading

        _a_lock = threading.Lock()

        def f():
            """Doc."""
            with _a_lock:
                with _a_lock:
                    pass
        '''
        assert fired(bad, "lock-order-cycle") != []

    def test_reacquiring_rlock_is_silent(self):
        good = '''
        import threading

        _a_lock = threading.RLock()

        def f():
            """Doc."""
            with _a_lock:
                with _a_lock:
                    pass
        '''
        assert fired(good, "lock-order-cycle") == []


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #
class TestDeterminismRules:
    def test_unseeded_np_random_call_fires(self):
        bad = '''
        import numpy as np

        def sample():
            """Doc."""
            return np.random.rand(3)
        '''
        assert fired(bad, "unseeded-rng") == [6]

    def test_seeded_randomstate_is_silent(self):
        good = '''
        import numpy as np

        def sample(random_state):
            """Doc."""
            rng = np.random.RandomState(random_state)
            return rng.rand(3)
        '''
        assert fired(good, "unseeded-rng") == []

    def test_argless_randomstate_fires(self):
        bad = '''
        import numpy as np

        def sample():
            """Doc."""
            return np.random.RandomState().rand(3)
        '''
        assert fired(bad, "unseeded-rng") == [6]

    def test_stdlib_random_module_fires(self):
        bad = '''
        import random

        def pick(items):
            """Doc."""
            return random.choice(items)
        '''
        assert fired(bad, "unseeded-rng") == [6]

    def test_wall_clock_deadline_fires(self):
        bad = '''
        import time

        def deadline():
            """Doc."""
            return time.time() + 5.0
        '''
        assert fired(bad, "wall-clock-deadline") == [6]

    def test_monotonic_deadline_is_silent(self):
        good = '''
        import time

        def deadline():
            """Doc."""
            return time.monotonic() + 5.0
        '''
        assert fired(good, "wall-clock-deadline") == []


# --------------------------------------------------------------------- #
# telemetry: latency through the telemetry plane only
# --------------------------------------------------------------------- #
class TestTelemetryRules:
    """`raw-latency-timing` forbids hand-rolled latency math in the
    modules the telemetry plane instruments; deadline arithmetic (the
    monotonic-on-the-right shape) stays legal."""

    IN_SCOPE = "src/repro/serving/_snippet.py"

    def test_perf_counter_fires(self):
        bad = '''
        import time

        def timed():
            """Doc."""
            start = time.perf_counter()
            return time.perf_counter() - start
        '''
        assert fired(bad, "raw-latency-timing", path=self.IN_SCOPE) == [6, 7]

    def test_monotonic_elapsed_math_fires(self):
        bad = '''
        import time

        def elapsed(start):
            """Doc."""
            return time.monotonic() - start
        '''
        assert fired(bad, "raw-latency-timing", path=self.IN_SCOPE) == [6]

    def test_monotonic_deadline_math_is_silent(self):
        good = '''
        import time

        def budget(expires_at):
            """Doc."""
            deadline = time.monotonic() + 5.0
            remaining = expires_at - time.monotonic()
            return deadline, remaining, time.monotonic() < expires_at
        '''
        assert fired(good, "raw-latency-timing", path=self.IN_SCOPE) == []

    def test_rule_is_scoped_to_instrumented_modules(self):
        snippet = '''
        import time

        def elapsed(start):
            """Doc."""
            return time.perf_counter() - start
        '''
        assert fired(snippet, "raw-latency-timing") == []
        assert fired(
            snippet, "raw-latency-timing", path="benchmarks/_snippet.py"
        ) == []

    def test_pragma_suppresses(self):
        snippet = '''
        import time

        def elapsed(start):
            """Doc."""
            return time.monotonic() - start  # repro-lint: disable=raw-latency-timing
        '''
        assert fired(snippet, "raw-latency-timing", path=self.IN_SCOPE) == []

    INSTANCE_LABEL = '''
    from repro import telemetry
    from repro.telemetry import instance_label

    def register():
        """Doc."""
        own = instance_label("server")
        return own, telemetry.instance_label("pool")
    '''

    def test_instance_label_fires_in_components(self):
        for path in (self.IN_SCOPE, "src/repro/_snippet.py"):
            assert fired(
                self.INSTANCE_LABEL, "instance-label-outside-scope", path=path
            ) == [7, 8], path

    def test_instance_label_is_legal_in_telemetry_and_outside_src(self):
        for path in (
            "src/repro/telemetry/_snippet.py",
            "tests/_snippet.py",
            "benchmarks/_snippet.py",
        ):
            assert fired(
                self.INSTANCE_LABEL, "instance-label-outside-scope", path=path
            ) == [], path


# --------------------------------------------------------------------- #
# exception contracts
# --------------------------------------------------------------------- #
class TestExceptionContractRules:
    def test_bare_except_fires(self):
        bad = '''
        def f():
            """Doc."""
            try:
                g()
            except:
                raise
        '''
        assert fired(bad, "bare-except") == [6]

    def test_typed_except_is_silent(self):
        good = '''
        def f():
            """Doc."""
            try:
                g()
            except ValueError:
                raise
        '''
        assert fired(good, "bare-except") == []

    def test_silent_except_pass_fires(self):
        bad = '''
        def f():
            """Doc."""
            try:
                g()
            except Exception:
                pass
        '''
        assert fired(bad, "swallowed-exception") == [6]

    def test_handled_except_is_silent(self):
        good = '''
        import logging

        def f():
            """Doc."""
            try:
                g()
            except Exception:
                logging.exception("g failed")
        '''
        assert fired(good, "swallowed-exception") == []

    def test_public_raise_of_runtimeerror_fires(self):
        bad = '''
        def submit(batch):
            """Doc."""
            raise RuntimeError("server is closed")
        '''
        assert fired(bad, "untyped-public-raise") == [4]

    def test_public_raise_of_library_exception_is_silent(self):
        good = '''
        from repro.exceptions import ServerClosedError

        def submit(batch):
            """Doc."""
            raise ServerClosedError("server is closed")
        '''
        assert fired(good, "untyped-public-raise") == []

    def test_private_raise_of_runtimeerror_is_silent(self):
        good = '''
        def _submit(batch):
            raise RuntimeError("internal")
        '''
        assert fired(good, "untyped-public-raise") == []

    def test_rule_is_scoped_to_src(self):
        bad = '''
        def submit(batch):
            raise RuntimeError("fine in tests")
        '''
        assert fired(bad, "untyped-public-raise", path="tests/_snippet.py") == []


# --------------------------------------------------------------------- #
# resource lifecycle
# --------------------------------------------------------------------- #
class TestLifecycleRules:
    def test_unjoined_non_daemon_thread_fires(self):
        bad = '''
        import threading

        def spawn():
            """Doc."""
            t = threading.Thread(target=print)
            t.start()
        '''
        assert fired(bad, "unjoined-thread") == [6]

    def test_daemon_thread_is_silent(self):
        good = '''
        import threading

        def spawn():
            """Doc."""
            t = threading.Thread(target=print, daemon=True)
            t.start()
        '''
        assert fired(good, "unjoined-thread") == []

    def test_joined_thread_is_silent(self):
        good = '''
        import threading

        def spawn():
            """Doc."""
            t = threading.Thread(target=print)
            t.start()
            t.join()
        '''
        assert fired(good, "unjoined-thread") == []

    def test_self_thread_joined_in_other_method_is_silent(self):
        good = '''
        import threading

        class Worker:
            """Doc."""

            def start(self):
                """Doc."""
                self._t = threading.Thread(target=print)
                self._t.start()

            def close(self):
                """Doc."""
                self._t.join()
        '''
        assert fired(good, "unjoined-thread") == []

    def test_thread_pool_joined_in_loop_is_silent(self):
        good = '''
        import threading

        def spawn(n):
            """Doc."""
            threads = [threading.Thread(target=print) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        '''
        assert fired(good, "unjoined-thread") == []

    def test_process_without_teardown_fires(self):
        bad = '''
        import multiprocessing as mp

        class Pool:
            """Doc."""

            def start(self):
                """Doc."""
                self._p = mp.Process(target=print)
                self._p.start()
        '''
        assert fired(bad, "unreaped-process") == [9]

    def test_process_reaped_from_close_is_silent(self):
        good = '''
        import multiprocessing as mp

        class Pool:
            """Doc."""

            def start(self):
                """Doc."""
                self._p = mp.Process(target=print)
                self._p.start()

            def close(self):
                """Doc."""
                self._p.terminate()
                self._p.join()
        '''
        assert fired(good, "unreaped-process") == []


# --------------------------------------------------------------------- #
# API surface
# --------------------------------------------------------------------- #
class TestApiSurfaceRules:
    def test_all_listing_undefined_name_fires(self):
        bad = '''
        __all__ = ["missing_thing"]
        '''
        assert fired(bad, "all-undefined-name") == [2]

    def test_all_listing_defined_name_is_silent(self):
        good = '''
        __all__ = ["present"]

        def present():
            """Doc."""
        '''
        assert fired(good, "all-undefined-name") == []

    def test_unexported_reexport_in_init_fires(self):
        bad = '''
        from .mod import Thing

        __all__ = []
        '''
        assert fired(bad, "missing-reexport", path="src/repro/pkg/__init__.py") == [2]

    def test_exported_reexport_is_silent(self):
        good = '''
        from .mod import Thing

        __all__ = ["Thing"]
        '''
        assert (
            fired(good, "missing-reexport", path="src/repro/pkg/__init__.py") == []
        )

    # missing-docstring exempts underscore-named modules, so these three
    # use a public module path instead of lint_text's _snippet.py default.
    def test_public_function_without_docstring_fires(self):
        bad = '''
        def public():
            return 1
        '''
        assert fired(bad, "missing-docstring",
                     path="src/repro/snippet.py") == [2]

    def test_documented_function_is_silent(self):
        good = '''
        def public():
            """Doc."""
            return 1
        '''
        assert fired(good, "missing-docstring",
                     path="src/repro/snippet.py") == []

    def test_override_of_documented_ancestor_is_silent(self):
        good = '''
        class Base:
            """Doc."""

            def fit(self, X, y):
                """Fit."""

        class Child(Base):
            """Doc."""

            def fit(self, X, y):
                return self
        '''
        assert fired(good, "missing-docstring",
                     path="src/repro/snippet.py") == []

    def test_underscore_module_is_docstring_exempt(self):
        assert fired("def public():\n    return 1\n", "missing-docstring",
                     path="src/repro/_private.py") == []

    def test_rule_is_scoped_to_src(self):
        assert fired("def f():\n    return 1\n", "missing-docstring",
                     path="tests/_snippet.py") == []


# --------------------------------------------------------------------- #
# engine: pragmas, syntax errors, baseline
# --------------------------------------------------------------------- #
class TestPragmas:
    BAD = '''
    import numpy as np

    def sample():
        """Doc."""
        return np.random.rand(3)
    '''

    def test_same_line_disable_suppresses(self):
        suppressed = self.BAD.replace(
            "np.random.rand(3)",
            "np.random.rand(3)  # repro-lint: disable=unseeded-rng",
        )
        assert fired(self.BAD, "unseeded-rng") == [6]
        assert fired(suppressed, "unseeded-rng") == []

    def test_disable_on_other_line_does_not_suppress(self):
        elsewhere = self.BAD.replace(
            '"""Doc."""',
            '"""Doc."""\n    # repro-lint: disable=unseeded-rng',
        )
        assert fired(elsewhere, "unseeded-rng") != []

    def test_disable_file_suppresses_every_occurrence(self):
        text = textwrap.dedent('''
        # repro-lint: disable-file=unseeded-rng
        import numpy as np

        def sample():
            """Doc."""
            return np.random.rand(3) + np.random.rand(3)
        ''')
        assert [f for f in lint_text(text) if f.rule == "unseeded-rng"] == []

    def test_unknown_rule_in_pragma_is_a_finding(self):
        assert fired(
            "x = 1  # repro-lint: disable=not-a-rule\n", "bad-pragma"
        ) == [1]

    def test_syntax_error_is_a_finding_not_a_crash(self):
        assert fired("def f(:\n", "syntax-error") == [1]


class TestBaseline:
    def findings(self):
        return lint_text(textwrap.dedent(TestPragmas.BAD))

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = self.findings()
        assert findings, "fixture must produce findings"
        written = write_baseline(findings, path)
        assert load_baseline(path) == written

    def test_baselined_findings_are_subtracted(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = self.findings()
        write_baseline(findings, path)
        remaining, suppressed, stale = apply_baseline(
            findings, load_baseline(path)
        )
        assert remaining == []
        assert suppressed == len(findings)
        assert stale == []

    def test_stale_entries_are_reported_not_fatal(self):
        findings = self.findings()
        baseline = {"unseeded-rng::src/repro/gone.py::stale message": 1}
        remaining, suppressed, stale = apply_baseline(findings, baseline)
        assert remaining == findings
        assert suppressed == 0
        assert stale == ["unseeded-rng::src/repro/gone.py::stale message"]

    def test_new_findings_survive_the_baseline(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(self.findings(), path)
        doubled = lint_text(textwrap.dedent('''
        import numpy as np

        def sample():
            """Doc."""
            return np.random.rand(3)

        def sample2():
            """Doc."""
            return np.random.standard_normal(3)
        '''))
        remaining, suppressed, _ = apply_baseline(doubled, load_baseline(path))
        assert suppressed == 1
        assert [f.line for f in remaining] == [10]


# --------------------------------------------------------------------- #
# the tree is clean
# --------------------------------------------------------------------- #
class TestTreeIsClean:
    def test_src_repro_is_clean_under_every_ast_checker(self):
        """The sweep's end state: zero findings over src/repro with NO
        baseline help (the shipped baseline is empty for src/repro)."""
        checkers = [c for c in default_checkers() if c.name != "registry"]
        result = lint_paths([str(REPO_ROOT / "src")], checkers)
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_shipped_baseline_is_empty_for_src_repro(self):
        baseline = load_baseline()
        assert not [k for k in baseline if "src/repro" in k]

    def test_rule_catalogue_covers_the_five_contract_areas(self):
        checkers = default_checkers()
        names = {c.name for c in checkers}
        assert {"concurrency", "determinism", "exceptions",
                "lifecycle", "api", "registry", "telemetry"} <= names
        rules = known_rules(checkers)
        for rule in (
            "lock-blocking-call", "lock-acquire-discipline",
            "lock-order-cycle", "unseeded-rng", "wall-clock-deadline",
            "bare-except", "swallowed-exception", "untyped-public-raise",
            "unjoined-thread", "unreaped-process", "all-undefined-name",
            "missing-reexport", "missing-docstring", "registry-drift",
            "syntax-error", "bad-pragma", "raw-latency-timing",
            "instance-label-outside-scope",
        ):
            assert rule in rules, rule


# --------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------- #
class TestRunner:
    def run(self, *argv):
        return subprocess.run(
            [sys.executable, RUNNER, *argv],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        out = str(tmp_path / "report.json")
        proc = self.run("src", "--skip", "registry", "--format=json",
                        "--out", out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(pathlib.Path(out).read_text())
        assert report["summary"]["total"] == 0

    def test_deliberate_violation_fails_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\nnoise = np.random.rand(10)\n"
        )
        proc = self.run(str(bad), "--no-baseline")
        assert proc.returncode == 1
        assert "unseeded-rng" in proc.stdout

    def test_write_baseline_then_clean(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\nnoise = np.random.rand(10)\n"
        )
        baseline = str(tmp_path / "baseline.json")
        wrote = self.run(str(bad), "--write-baseline", "--baseline", baseline)
        assert wrote.returncode == 0
        again = self.run(str(bad), "--baseline", baseline)
        assert again.returncode == 0, again.stdout + again.stderr

    def test_json_report_schema(self, tmp_path):
        out = str(tmp_path / "report.json")
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\nnoise = np.random.rand(10)\n"
        )
        proc = self.run(str(bad), "--no-baseline", "--format=json",
                        "--out", out)
        assert proc.returncode == 1
        report = json.loads(pathlib.Path(out).read_text())
        assert report["version"] == 1
        assert report["tool"] == "repro-lint"
        assert set(report["summary"]) == {
            "total", "by_rule", "pragma_suppressed",
            "baseline_suppressed", "baseline_stale",
        }
        (finding,) = [
            f for f in report["findings"] if f["rule"] == "unseeded-rng"
        ]
        assert {"rule", "path", "line", "message"} <= set(finding)
        assert finding["line"] == 3
        assert report["summary"]["by_rule"]["unseeded-rng"] == 1

    def test_unknown_checker_is_a_usage_error(self):
        proc = self.run("--skip", "nonsense")
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self.run("--list-rules")
        assert proc.returncode == 0
        assert "unseeded-rng" in proc.stdout
        assert "lock-order-cycle" in proc.stdout


# --------------------------------------------------------------------- #
# the sweep's behaviour-visible fixes
# --------------------------------------------------------------------- #
class TestSweepRegressions:
    """The exception-contract sweep replaced public RuntimeError /
    TimeoutError raises in the serving plane with typed library
    exceptions. Each new type subclasses both ReproError and the builtin
    it replaced, so pre-typed callers (`except RuntimeError`) keep
    working — pinned here."""

    def test_new_exception_types_subclass_their_builtins(self):
        from repro.exceptions import (
            FleetTimeoutError,
            ReproError,
            ServerClosedError,
            SwapFailedError,
            UnsupportedPlatformError,
        )

        assert issubclass(ServerClosedError, ReproError)
        assert issubclass(ServerClosedError, RuntimeError)
        assert issubclass(UnsupportedPlatformError, ReproError)
        assert issubclass(UnsupportedPlatformError, RuntimeError)
        assert issubclass(SwapFailedError, ReproError)
        assert issubclass(SwapFailedError, RuntimeError)
        assert issubclass(FleetTimeoutError, ReproError)
        assert issubclass(FleetTimeoutError, TimeoutError)

    def test_new_exception_types_are_exported(self):
        import repro

        for name in ("FleetTimeoutError", "ServerClosedError",
                     "SwapFailedError", "UnsupportedPlatformError"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_closed_server_raises_typed_error(self):
        import numpy as np

        from repro.core import SelfPacedEnsembleClassifier
        from repro.datasets import make_checkerboard
        from repro.exceptions import ServerClosedError
        from repro.serving import ModelServer

        X, y = make_checkerboard(
            n_minority=30, n_majority=300, random_state=0
        )
        clf = SelfPacedEnsembleClassifier(
            n_estimators=2, random_state=0
        ).fit(X, y)
        server = ModelServer(clf)
        server.close()
        with pytest.raises(ServerClosedError, match="closed"):
            server.submit(np.asarray(X[:4]))
        # Backward compatibility: the old catch still works.
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(np.asarray(X[:4]))
