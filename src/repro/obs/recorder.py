"""Per-run flight recorder: spans + metrics + environment in one report.

A :class:`FlightRecorder` wraps one run (a ``run_sunmap`` flow, a
test).  On entry it snapshots the metrics registry and installs
an in-memory span ring; on exit it assembles a :class:`RunReport`
holding the captured spans, the metrics snapshot, the delta of every
counter that moved during the run, and an environment fingerprint —
enough to answer "where did this run spend its time?" from the artifact
alone, without a rerun.

Reports serialize via :meth:`RunReport.to_dict` (attached to
``SunmapReport.observability`` by ``run_sunmap(observability=True)``)
and render a human summary via :meth:`RunReport.to_markdown`, a table
of the top-N slowest spans. The CLI writes no report: its ``--trace``
appends JSONL spans and its ``--metrics`` writes the registry as
Prometheus text.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field

from . import metrics as _metrics
from . import trace as _trace

__all__ = ["FlightRecorder", "RunReport", "environment_fingerprint"]


def environment_fingerprint() -> dict:
    """Describe the interpreter/platform/package this run executed on."""
    try:
        from repro import __version__ as repro_version
    except Exception:  # pragma: no cover - partial-import edge
        repro_version = "unknown"
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "repro_version": repro_version,
    }


def _flatten_counters(snapshot: dict) -> dict[str, float]:
    """Map ``name{a=x,b=y}`` -> value for every counter series."""
    flat: dict[str, float] = {}
    for name, family in snapshot.items():
        if family["type"] != "counter":
            continue
        for series in family["series"]:
            labels = series["labels"]
            suffix = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            flat[f"{name}{{{suffix}}}" if suffix else name] = series["value"]
    return flat


@dataclass
class RunReport:
    """The assembled artifact of one recorded run."""

    label: str
    started_at: float
    duration_s: float
    environment: dict
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    metrics_delta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Return the report as one JSON-ready dict."""
        return {
            "label": self.label,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "environment": dict(self.environment),
            "spans": list(self.spans),
            "metrics": self.metrics,
            "metrics_delta": dict(self.metrics_delta),
        }

    def slowest_spans(self, top: int = 10) -> list[dict]:
        """Return the ``top`` spans by duration, slowest first."""
        return sorted(self.spans, key=lambda s: -s["duration_s"])[:top]

    def to_markdown(self, top: int = 10) -> str:
        """Render a markdown summary: header line + slowest-span table."""
        lines = [
            f"## flight record: {self.label}",
            "",
            f"- duration: {self.duration_s:.3f}s, spans captured: {len(self.spans)}",
            f"- python {self.environment.get('python', '?')} on "
            f"{self.environment.get('platform', '?')} "
            f"(repro {self.environment.get('repro_version', '?')})",
            "",
            "| span | duration (s) | attrs |",
            "| --- | --- | --- |",
        ]
        for s in self.slowest_spans(top):
            attrs = ", ".join(f"{k}={v}" for k, v in sorted(s["attrs"].items()))
            lines.append(f"| {s['name']} | {s['duration_s']:.4f} | {attrs} |")
        if self.metrics_delta:
            lines += ["", "| counter | delta |", "| --- | --- |"]
            for key in sorted(self.metrics_delta):
                lines.append(f"| `{key}` | {_fmt(self.metrics_delta[key])} |")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render a counter delta without a trailing ``.0``."""
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


class FlightRecorder:
    """Context manager that records spans and metric deltas for one run."""

    def __init__(
        self,
        label: str = "run",
        registry: _metrics.MetricsRegistry | None = None,
        ring_size: int = 4096,
    ) -> None:
        """Prepare a recorder for one labeled run (enter to start)."""
        self.label = label
        self.registry = registry if registry is not None else _metrics.get_registry()
        self._ring = _trace.RingSink(maxlen=ring_size)
        self._before: dict[str, float] = {}
        self._start_wall = 0.0
        self._start_perf = 0.0
        self.report: RunReport | None = None

    def __enter__(self) -> "FlightRecorder":
        """Snapshot the registry and start capturing spans."""
        self._before = _flatten_counters(self.registry.snapshot())
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        _trace.add_sink(self._ring)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop capturing and assemble the :class:`RunReport`."""
        _trace.remove_sink(self._ring)
        duration = time.perf_counter() - self._start_perf
        snapshot = self.registry.snapshot()
        after = _flatten_counters(snapshot)
        delta = {
            key: value - self._before.get(key, 0.0)
            for key, value in after.items()
            if value != self._before.get(key, 0.0)
        }
        self.report = RunReport(
            label=self.label,
            started_at=self._start_wall,
            duration_s=duration,
            environment=environment_fingerprint(),
            spans=self._ring.spans(),
            metrics=snapshot,
            metrics_delta=delta,
        )
