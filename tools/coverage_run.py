"""Line-coverage runner for ``make coverage`` — works with or without
third-party coverage tooling.

Preference order:

1. ``pytest --cov=repro`` via pytest-cov (what the CI coverage job
   installs) — the issue-spec coverage path, with coverage.py's reporting;
2. ``coverage run -m pytest`` when only coverage.py is present;
3. a dependency-free stdlib fallback: a ``sys.settrace`` collector that
   instruments *only* frames whose code lives under ``src/repro`` (every
   other frame opts out of tracing, so numpy / pytest internals run at full
   speed), then reports approximate statement coverage per module against
   an ``ast``-derived statement count.

All three paths run the fast test selection (``-m "not slow and not
bench"``) so the summary lands in seconds, and print an informational
per-package summary; the exit code is the test run's exit code — coverage
percentage is reported, never gated on.

``--workloads`` (``make coverage-workloads``) asks the other question:
which ``src/repro`` code do the programs that use the library never run?
It traces, each in its own process, with the stdlib tracer above:

* every script in ``examples/``;
* the paper benches (``bench_table*``, ``bench_fig*``,
  ``bench_ablations``) at ``REPRO_SCALE=0.1`` with one run per cell,
  under ``--benchmark-disable`` (pytest-benchmark's timer drops the
  tracer);
* short ``perfbench/run.py`` runs of both workloads (``--scale 0.03
  --seconds 3``).

Forked children are traced too: an ``os.register_at_fork`` hook re-arms
the tracer in the child, and the child writes its lines before
``os._exit``. Processes started with ``spawn`` or ``forkserver`` (such as
perfbench's retrainer) start a fresh interpreter and are not traced, so
code only they run is listed as unreached. The report lists, per
function, the statements no run reached; it always exits 0.
"""

from __future__ import annotations

import ast
import atexit
import importlib.util
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
PACKAGE_ROOT = SRC_ROOT / "repro"
PYTEST_ARGS = ["-q", "-m", "not slow and not bench", "tests"]


def _has_module(name: str) -> bool:
    return importlib.util.find_spec(name) is not None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run_with_pytest_cov() -> int:
    print("coverage: using pytest-cov")
    return subprocess.call(
        [sys.executable, "-m", "pytest", "--cov=repro", "--cov-report=term"]
        + PYTEST_ARGS,
        cwd=REPO_ROOT,
        env=_env(),
    )


def _run_with_coverage_py() -> int:
    print("coverage: using coverage.py")
    code = subprocess.call(
        [sys.executable, "-m", "coverage", "run", "-m", "pytest"] + PYTEST_ARGS,
        cwd=REPO_ROOT,
        env=_env(),
    )
    subprocess.call(
        [sys.executable, "-m", "coverage", "report"], cwd=REPO_ROOT, env=_env()
    )
    return code


# --------------------------------------------------------------------- #
# stdlib fallback
# --------------------------------------------------------------------- #
def _statement_lines(path: pathlib.Path) -> set:
    """Line numbers of executable statements (docstrings excluded)."""
    tree = ast.parse(path.read_text())
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # bare string/constant expression == docstring
        lines.add(node.lineno)
    return lines


def _start_tracer(hit) -> None:
    """Record into ``hit`` every line run in a ``src/repro`` frame, in this
    thread and in every thread started from now on."""
    prefix = str(PACKAGE_ROOT) + os.sep

    def local_trace(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local_trace
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)


def _run_with_stdlib_tracer() -> int:
    print("coverage: pytest-cov/coverage.py not installed; "
          "using the stdlib settrace fallback (approximate statement coverage)")
    hit = defaultdict(set)
    os.chdir(REPO_ROOT)
    sys.path.insert(0, str(SRC_ROOT))
    import pytest  # deferred: tracing must not slow the import

    _start_tracer(hit)
    try:
        code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\n{'module':<44} {'stmts':>6} {'hit':>6} {'cover':>7}")
    total_stmts = total_hit = 0
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        stmts = _statement_lines(path)
        covered = hit.get(str(path), set()) & stmts
        total_stmts += len(stmts)
        total_hit += len(covered)
        name = str(path.relative_to(SRC_ROOT))
        pct = 100.0 * len(covered) / len(stmts) if stmts else 100.0
        print(f"{name:<44} {len(stmts):>6} {len(covered):>6} {pct:>6.1f}%")
    overall = 100.0 * total_hit / total_stmts if total_stmts else 100.0
    print(f"{'TOTAL':<44} {total_stmts:>6} {total_hit:>6} {overall:>6.1f}%")
    return int(code)


# --------------------------------------------------------------------- #
# --workloads: what the library's users never run
# --------------------------------------------------------------------- #
#: Scale and seconds of the traced runs: small, so the report lands in
#: minutes under the tracer's slowdown. Below REPRO_SCALE=0.1 some paper
#: benches draw too few minority rows to split and fail.
WORKLOAD_SCALE = "0.1"
PERFBENCH_ARGS = ["--scale", "0.03", "--seconds", "3", "--trace", "0"]


def _workload_runs():
    """``(name, argv after the interpreter, extra environment)`` of every
    traced run."""
    runs = [(f"examples/{path.name}", [str(path)], {})
            for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    paper = sorted(
        str(path) for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        if path.name.startswith(("bench_table", "bench_fig", "bench_ablations"))
    )
    runs.append((
        "paper benches",
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *paper],
        {"REPRO_SCALE": WORKLOAD_SCALE, "REPRO_RUNS": "1"},
    ))
    for workload in ("fit_credit", "serve_drift"):
        runs.append((
            f"perfbench {workload}",
            [str(REPO_ROOT / "perfbench" / "run.py"), "--workload", workload,
             *PERFBENCH_ARGS],
            {},
        ))
    return runs


def _trace_into(out_dir: str, argv) -> None:
    """Run ``argv`` (a script path, or ``-m module``) in this process under
    the tracer; this process and each child it forks write the lines they
    ran to their own file in ``out_dir`` when they exit."""
    hit = defaultdict(set)

    def dump() -> None:
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({name: sorted(lines) for name, lines in hit.items()}, fh)

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    # Forked pool workers leave through os._exit, which skips atexit.
    os._exit = exit_after_dump
    atexit.register(dump)
    os.register_at_fork(after_in_child=lambda: _start_tracer(hit))
    sys.path.insert(0, str(SRC_ROOT))
    _start_tracer(hit)
    if argv[0] == "-m":
        sys.argv = argv[1:]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
        runpy.run_path(argv[0], run_name="__main__")


def _functions(path: pathlib.Path):
    """``(qualified name, first line, statement lines)`` of every function
    and method in ``path``, with :func:`_statement_lines`' statements; a
    statement belongs to its innermost function, and a ``def`` line to the
    scope that runs it."""
    stmts = _statement_lines(path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = scope + [child.name]
                if not isinstance(child, ast.ClassDef):
                    body = range(child.body[0].lineno, child.end_lineno + 1)
                    found.append((".".join(name), child.lineno, stmts.intersection(body)))
                visit(child, name)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    claimed = set()
    for _, _, lines in reversed(found):  # descendants before their ancestors
        lines -= claimed
        claimed |= lines
    return found


def _spans(lines) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    spans, lines = [], sorted(lines)
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _run_workloads() -> int:
    print("coverage --workloads: src/repro statements that the examples, the "
          f"paper benches (REPRO_SCALE={WORKLOAD_SCALE}) and short perfbench "
          "runs never reach (stdlib tracer; forked children are traced, "
          "spawn and forkserver children such as perfbench's retrainer are "
          "not). A report, not a gate.\n")
    hit = defaultdict(set)
    with tempfile.TemporaryDirectory(prefix="coverage-workloads-") as out_dir:
        for name, argv, extra in _workload_runs():
            env = _env()
            env.update(extra)
            start = time.perf_counter()
            code = subprocess.call(
                [sys.executable, __file__, "--trace-into", out_dir, "--", *argv],
                cwd=REPO_ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            status = "ok  " if code == 0 else f"exit {code}"
            print(f"  {status} {name} ({time.perf_counter() - start:.0f} s)")
        for dump in pathlib.Path(out_dir).glob("*.json"):
            for filename, lines in json.loads(dump.read_text()).items():
                hit[filename].update(lines)

    rows = []
    total = unreached = never = 0
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        ran = hit.get(str(path), set())
        for qualname, first, stmts in _functions(path):
            missed = stmts - ran
            total += len(stmts)
            unreached += len(missed)
            if missed:
                entered = len(missed) < len(stmts)
                never += not entered
                where = f"{path.relative_to(SRC_ROOT)}:{first} {qualname}"
                note = "" if entered else "  (never entered)"
                rows.append((len(missed), where, f"{len(missed)}/{len(stmts)}{note}",
                             _spans(missed)))
    print(f"\n{'function':<72} {'unreached':>16}")
    for _, where, count, spans in sorted(rows, key=lambda row: (-row[0], row[1])):
        print(f"{where:<72} {count:>16}\n    lines {spans}")
    print(f"\nTOTAL: {unreached} of {total} function statements unreached; "
          f"{never} functions never entered")
    return 0


def main() -> int:
    if sys.argv[1:2] == ["--trace-into"]:
        _trace_into(sys.argv[2], sys.argv[4:])
        return 0
    if sys.argv[1:] == ["--workloads"]:
        return _run_workloads()
    if _has_module("pytest_cov"):
        return _run_with_pytest_cov()
    if _has_module("coverage"):
        return _run_with_coverage_py()
    return _run_with_stdlib_tracer()


if __name__ == "__main__":
    sys.exit(main())
