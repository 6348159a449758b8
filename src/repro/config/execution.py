"""Execution-parameter configuration: how a simulation run behaves.

This is the third CGSim input file: which allocation-policy plugin to load,
how the workload is obtained (a trace file or a synthetic generator), the
monitoring cadence, random seeds, and where outputs go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.utils.errors import ConfigurationError
from repro.utils.units import parse_duration

__all__ = ["MonitoringConfig", "OutputConfig", "StopConfig", "ExecutionConfig"]

#: Comparison operators a metric-predicate stop condition may use.
STOP_OPS = (">", ">=", "<", "<=")


@dataclass
class StopConfig:
    """Declarative early-stop conditions for a run.

    Lives inside :class:`ExecutionConfig` (and therefore inside a scenario
    pack's ``execution`` section).  Each condition is optional; the run stops
    at the *first* one that fires, and the reason is recorded as the
    session's ``stopped_reason`` (surfaced in ``RunResult`` and the scenario
    outcome).  Conditions are evaluated by
    :class:`repro.core.session.SimulationSession` between events, whenever a
    job reaches a terminal state:

    * ``max_simulated_time`` -- stop once the simulated clock reaches this
      horizon (unit strings like ``"12h"`` accepted).  Unlike
      ``max_simulation_time`` -- which runs the clock *to* the deadline even
      if the workload finished long before -- this stops at whichever comes
      first, workload completion or the budget: the bounded-cost semantics
      sweep trials want.
    * ``max_finished_jobs`` / ``max_failed_jobs`` -- stop once that many
      jobs have finished / failed.
    * ``metric`` + ``op`` + ``value`` -- a metric predicate: stop once the
      named :class:`~repro.core.metrics.SimulationMetrics` field (e.g.
      ``"failure_rate"``) compares true against ``value`` under ``op``
      (one of ``>``, ``>=``, ``<``, ``<=``).  Metrics are recomputed every
      ``check_every`` job completions (predicate evaluation is O(jobs), so
      raise this on huge runs).

    Examples
    --------
    >>> from repro import ExecutionConfig
    >>> from repro.config.execution import StopConfig
    >>> execution = ExecutionConfig(
    ...     stop=StopConfig(metric="failure_rate", op=">=", value=0.5))
    >>> execution.stop.metric
    'failure_rate'
    """

    max_simulated_time: Optional[float] = None
    max_finished_jobs: Optional[int] = None
    max_failed_jobs: Optional[int] = None
    metric: Optional[str] = None
    op: str = ">="
    value: Optional[float] = None
    check_every: int = 1

    def __post_init__(self) -> None:
        if self.max_simulated_time is not None:
            self.max_simulated_time = parse_duration(self.max_simulated_time)
            if self.max_simulated_time <= 0:
                raise ConfigurationError("stop: max_simulated_time must be positive")
        for name in ("max_finished_jobs", "max_failed_jobs"):
            bound = getattr(self, name)
            if bound is not None:
                if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
                    raise ConfigurationError(
                        f"stop: {name} must be a positive integer, got {bound!r}"
                    )
        if self.op not in STOP_OPS:
            raise ConfigurationError(
                f"stop: op must be one of {'|'.join(STOP_OPS)}, got {self.op!r}"
            )
        if (self.metric is None) != (self.value is None):
            raise ConfigurationError(
                "stop: 'metric' and 'value' must be given together"
            )
        if self.metric is not None and (not isinstance(self.metric, str) or not self.metric):
            raise ConfigurationError("stop: metric must be a non-empty string")
        if self.value is not None:
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
                raise ConfigurationError(f"stop: value must be a number, got {self.value!r}")
            self.value = float(self.value)
        self.check_every = int(self.check_every)
        if self.check_every < 1:
            raise ConfigurationError("stop: check_every must be >= 1")

    def enabled(self) -> bool:
        """Whether any condition is actually configured."""
        return (
            self.max_simulated_time is not None
            or self.max_finished_jobs is not None
            or self.max_failed_jobs is not None
            or self.metric is not None
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (only the configured conditions)."""
        data: Dict[str, object] = {}
        if self.max_simulated_time is not None:
            data["max_simulated_time"] = self.max_simulated_time
        if self.max_finished_jobs is not None:
            data["max_finished_jobs"] = self.max_finished_jobs
        if self.max_failed_jobs is not None:
            data["max_failed_jobs"] = self.max_failed_jobs
        if self.metric is not None:
            data["metric"] = self.metric
            data["op"] = self.op
            data["value"] = self.value
            if self.check_every != 1:
                data["check_every"] = self.check_every
        return data


@dataclass
class MonitoringConfig:
    """Controls event-level monitoring and periodic snapshots.

    Lives inside :class:`ExecutionConfig` and balances observability against
    speed/memory on huge runs: per-transition rows can be disabled
    (``enable_events``), thinned (``sample_stride``), reduced to per-site
    counters (``detail="aggregate"``) or streamed to sinks instead of
    retained (``keep_in_memory=False``); snapshots fire every
    ``snapshot_interval`` simulated seconds (0 disables them).

    Examples
    --------
    >>> from repro import ExecutionConfig, MonitoringConfig
    >>> execution = ExecutionConfig(
    ...     monitoring=MonitoringConfig(snapshot_interval=0.0, sample_stride=10))
    >>> execution.monitoring.sample_stride
    10
    """

    #: Record per-job state transitions (Table 1 rows).
    enable_events: bool = True
    #: Interval in seconds between site-level snapshots (0 disables them).
    snapshot_interval: float = 300.0
    #: Keep records in memory (needed for the dashboard and ML dataset export).
    keep_in_memory: bool = True
    #: Rows buffered before attached sinks receive a batch.
    batch_size: int = 1024
    #: "full" records every transition row; "aggregate" keeps only the
    #: per-site counters (huge runs that only need site-level aggregates).
    detail: str = "full"
    #: Retain every Nth transition row (1 = all; counters stay exact).
    sample_stride: int = 1

    def __post_init__(self) -> None:
        self.snapshot_interval = parse_duration(self.snapshot_interval)
        if self.snapshot_interval < 0:
            raise ConfigurationError("snapshot_interval must be >= 0")
        if self.detail not in ("full", "aggregate"):
            raise ConfigurationError(
                f"monitoring detail must be 'full' or 'aggregate', got {self.detail!r}"
            )
        if self.batch_size < 1:
            raise ConfigurationError("monitoring batch_size must be >= 1")
        if self.sample_stride < 1:
            raise ConfigurationError("monitoring sample_stride must be >= 1")

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "enable_events": self.enable_events,
            "snapshot_interval": self.snapshot_interval,
            "keep_in_memory": self.keep_in_memory,
            "batch_size": self.batch_size,
            "detail": self.detail,
            "sample_stride": self.sample_stride,
        }


@dataclass
class OutputConfig:
    """Where simulation results are written.

    Lives inside :class:`ExecutionConfig`.  Each destination is optional and
    independent: a SQLite database (``sqlite_path``), a directory of CSV
    exports (``csv_directory``), and the ML-ready event-level dataset dump
    (``ml_dataset``); leaving everything ``None``/``False`` keeps the run
    purely in memory.  E.g.
    ``ExecutionConfig(output=OutputConfig(sqlite_path="run.sqlite"))``
    persists every monitored transition to ``run.sqlite``.
    """

    #: SQLite database path (``None`` disables the SQLite store).
    sqlite_path: Optional[str] = None
    #: Directory for CSV exports (``None`` disables CSV export).
    csv_directory: Optional[str] = None
    #: Also dump the ML-ready event-level dataset.
    ml_dataset: bool = False

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "sqlite_path": self.sqlite_path,
            "csv_directory": self.csv_directory,
            "ml_dataset": self.ml_dataset,
        }


@dataclass
class ExecutionConfig:
    """Run-level parameters of one simulation.

    Parameters
    ----------
    plugin:
        Allocation policy to use.  Either the name of a bundled policy
        (``"round_robin"``, ``"least_loaded"``, ...) or a dotted
        ``"module:ClassName"`` path to a user plugin, mirroring CGSim's
        shared-library plugin loading.
    plugin_options:
        Free-form options handed to the plugin's constructor.
    seed:
        Root random seed for the whole run.
    max_simulation_time:
        Hard stop for the simulated clock (``None`` runs to completion).
    dispatch_interval:
        Minimum simulated time between two dispatch rounds of the main
        server (batching window).
    pending_retry_interval:
        How often the main server re-examines the pending list when no
        resource change has occurred.
    scheduling_overhead:
        Fixed simulated cost (seconds) added per dispatched job, modelling
        the workload-management latency.
    max_retries:
        How many times the main server automatically resubmits a failed job
        (0 disables retries).  This mirrors PanDA's automatic resubmission;
        every attempt appears in the output dataset, so the job failure rate
        metric counts attempts exactly as production monitoring does.
    """

    plugin: str = "round_robin"
    plugin_options: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    max_simulation_time: Optional[float] = None
    dispatch_interval: float = 1.0
    pending_retry_interval: float = 60.0
    scheduling_overhead: float = 0.0
    max_retries: int = 0
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    #: Optional early-stop conditions evaluated between events by sessions
    #: (``None`` disables them; see :class:`StopConfig`).
    stop: Optional[StopConfig] = None

    def __post_init__(self) -> None:
        if not self.plugin:
            raise ConfigurationError("execution config: plugin must be non-empty")
        self.dispatch_interval = parse_duration(self.dispatch_interval)
        self.pending_retry_interval = parse_duration(self.pending_retry_interval)
        self.scheduling_overhead = parse_duration(self.scheduling_overhead)
        if self.max_simulation_time is not None:
            self.max_simulation_time = parse_duration(self.max_simulation_time)
            if self.max_simulation_time <= 0:
                raise ConfigurationError("max_simulation_time must be positive")
        if self.dispatch_interval < 0:
            raise ConfigurationError("dispatch_interval must be >= 0")
        if self.pending_retry_interval <= 0:
            raise ConfigurationError("pending_retry_interval must be positive")
        if self.scheduling_overhead < 0:
            raise ConfigurationError("scheduling_overhead must be >= 0")
        self.max_retries = int(self.max_retries)
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.seed = int(self.seed)
        if isinstance(self.monitoring, dict):
            self.monitoring = MonitoringConfig(**self.monitoring)
        if isinstance(self.output, dict):
            self.output = OutputConfig(**self.output)
        if isinstance(self.stop, dict):
            try:
                self.stop = StopConfig(**self.stop)
            except TypeError as exc:
                raise ConfigurationError(f"execution config: stop: {exc}") from exc

    def to_dict(self) -> dict:
        """JSON-friendly representation (top-level object of the JSON file)."""
        data = {
            "plugin": self.plugin,
            "plugin_options": dict(self.plugin_options),
            "seed": self.seed,
            "max_simulation_time": self.max_simulation_time,
            "dispatch_interval": self.dispatch_interval,
            "pending_retry_interval": self.pending_retry_interval,
            "scheduling_overhead": self.scheduling_overhead,
            "max_retries": self.max_retries,
            "monitoring": self.monitoring.to_dict(),
            "output": self.output.to_dict(),
        }
        # Emitted only when non-default so existing config files / scenario
        # pack canonical JSON stay byte-stable.
        if self.stop is not None:
            data["stop"] = self.stop.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionConfig":
        """Build from the parsed JSON object."""
        known = {
            "plugin",
            "plugin_options",
            "seed",
            "max_simulation_time",
            "dispatch_interval",
            "pending_retry_interval",
            "scheduling_overhead",
            "max_retries",
            "monitoring",
            "output",
            "stop",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"execution config: unknown fields {sorted(unknown)}")
        return cls(**data)
