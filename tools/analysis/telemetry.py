"""Telemetry contract: latency is measured by the telemetry plane only.

The serving/monitoring/lifecycle stack reports every duration through
``repro.telemetry`` (``timer`` / ``stopwatch`` / ``Stopwatch``), so each
latency lands in a histogram, respects the sampling switch, and keeps its
clock-handling bugs in one audited module. Hand-rolled elapsed-time math
scattered through instrumented modules would silently bypass all three.

``raw-latency-timing``
    In instrumented modules (the serving plane and the fit path), no
    ``time.perf_counter()`` calls, and no ``time.monotonic()`` as the
    *left* operand of a subtraction — the elapsed-time idiom
    ``time.monotonic() - start``. Deadline arithmetic keeps its shape:
    ``time.monotonic() + budget`` (computing an expiry) and
    ``expires_at - time.monotonic()`` (remaining budget, monotonic on
    the right) stay legal, as do plain comparisons against an expiry.

``instance-label-outside-scope``
    Outside ``src/repro/telemetry/``, no ``src/repro`` module calls
    ``instance_label(...)``. A component declares its metrics on a
    ``telemetry.MetricScope``, which takes the instance label and binds
    every family to it; hand-rolled per-instance registration (label a
    family, then ``.labels(label)`` each child) is what the scope
    replaced.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Checker, Finding, SourceFile

#: Modules that must route latency through repro.telemetry. The telemetry
#: package itself (and utils/experiments, which predate the plane and sit
#: outside it) are deliberately not listed.
_INSTRUMENTED = (
    "src/repro/serving/",
    "src/repro/monitoring/",
    "src/repro/lifecycle/",
    "src/repro/core/",
    "src/repro/tree/",
    "src/repro/parallel/",
    "src/repro/fastpath/",
    "src/repro/chaos/",
    "src/repro/streaming/",
)


def _is_clock_call(node: ast.AST, func_name: str) -> bool:
    """``time.<func_name>()`` with no arguments."""
    return (
        isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == func_name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "time"
    )


#: The only package that may allocate instance labels itself.
_TELEMETRY = "src/repro/telemetry/"


def _is_instance_label_call(node: ast.AST) -> bool:
    """``instance_label(...)`` or ``<anything>.instance_label(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "instance_label") or (
        isinstance(func, ast.Attribute) and func.attr == "instance_label"
    )


class TelemetryChecker(Checker):
    """Raw latency math in modules the telemetry plane instruments, and
    instance labels allocated outside the telemetry package."""

    name = "telemetry"
    rules = {
        "raw-latency-timing": (
            "instrumented modules must measure latency through "
            "repro.telemetry (timer/stopwatch), not raw clock math — "
            "durations belong in histograms, under the sampling switch"
        ),
        "instance-label-outside-scope": (
            "components declare their metrics on a telemetry.MetricScope; "
            "only src/repro/telemetry/ calls instance_label()"
        ),
    }
    scope = ("src/repro/",)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if not src.path.startswith(_TELEMETRY):
            for node in ast.walk(src.tree):
                if _is_instance_label_call(node):
                    yield self.finding(
                        src, "instance-label-outside-scope", node.lineno,
                        "instance_label() outside repro.telemetry hand-rolls "
                        "per-instance registration; declare the metrics on "
                        "a telemetry.MetricScope instead",
                    )
        if src.path.startswith(_INSTRUMENTED):
            yield from self._raw_latency(src)

    def _raw_latency(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if _is_clock_call(node, "perf_counter"):
                yield self.finding(
                    src, "raw-latency-timing", node.lineno,
                    "time.perf_counter() here starts a hand-rolled latency "
                    "measurement; use telemetry.timer()/stopwatch() so the "
                    "duration lands in a histogram",
                )
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Sub)
                and _is_clock_call(node.left, "monotonic")
            ):
                # monotonic on the LEFT of a subtraction is elapsed-time
                # math (now - start); monotonic on the RIGHT is remaining
                # deadline budget (expires_at - now), which stays legal.
                yield self.finding(
                    src, "raw-latency-timing", node.lineno,
                    "`time.monotonic() - ...` is hand-rolled elapsed-time "
                    "math; use telemetry.timer()/stopwatch() (deadline "
                    "remainders `expires_at - time.monotonic()` stay legal)",
                )
