"""Execution-parameter configuration: how a simulation run behaves.

This is the third CGSim input file: which allocation-policy plugin to load,
how the workload is obtained (a trace file or a synthetic generator), the
monitoring cadence, random seeds, and where outputs go.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.utils.fieldspec import check_declared, declare, fail, load

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

    max_simulated_time: Optional[float] = declare(
        "Stop once the clock reaches this horizon.", default=None, quantity="duration", gt=0)
    max_finished_jobs: Optional[int] = declare(
        "Stop after this many finished jobs.", default=None, ge=1)
    max_failed_jobs: Optional[int] = declare(
        "Stop after this many failed jobs.", default=None, ge=1)
    metric: Optional[str] = declare("Metric-predicate field name.", default=None)
    op: str = declare("Comparison operator of the metric predicate.", default=">=",
                      choices=STOP_OPS)
    value: Optional[float] = declare("Metric-predicate threshold.", default=None)
    check_every: int = declare("Recompute metrics every N job completions.", default=1,
                               ge=1, publish_default=False)

    def _metric_with_value(self, ctx: str) -> None:
        if (self.metric is None) != (self.value is None):
            fail(ctx, "'metric' and 'value' must be given together")
        if self.metric is not None and (not isinstance(self.metric, str) or not self.metric):
            fail(ctx, "metric must be a non-empty string", "metric")
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float, type(None))):
            fail(ctx, f"value must be a number, got {self.value!r}", "value")

    RULES = [(
        _metric_with_value,
        {
            "if": {"properties": {"metric": {"type": "string"}}, "required": ["metric"]},
            "then": {"properties": {"value": {"type": "number"}}, "required": ["value"],
                     "$comment": "'metric' and 'value' must be given together"},
        },
        {
            "if": {"properties": {"value": {"type": "number"}}, "required": ["value"]},
            "then": {"properties": {"metric": {"type": "string", "minLength": 1}},
                     "required": ["metric"],
                     "$comment": "'metric' and 'value' must be given together"},
        },
    )]

    def __post_init__(self) -> None:
        check_declared(self)
        if self.value is not None:
            self.value = float(self.value)

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

    enable_events: bool = declare("Record per-job state transitions.", default=True)
    snapshot_interval: float = declare(
        "Seconds between site snapshots (0 disables).", default=300.0,
        quantity="duration", ge=0)
    keep_in_memory: bool = declare("Retain monitoring rows in memory.", default=True)
    batch_size: int = declare("Rows buffered per sink batch.", default=1024, ge=1)
    detail: str = declare("Transition detail level.", default="full",
                          choices=("full", "aggregate"))
    sample_stride: int = declare("Retain every Nth transition row.", default=1, ge=1)

    def __post_init__(self) -> None:
        check_declared(self)

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return asdict(self)


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

    sqlite_path: Optional[str] = declare("SQLite database path (null disables).", default=None)
    csv_directory: Optional[str] = declare("CSV export directory (null disables).", default=None)
    ml_dataset: bool = declare("Also dump the ML-ready event dataset.", default=False)

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return asdict(self)


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

    plugin: str = declare("Allocation-policy plugin deciding job placement.",
                          default="round_robin", plugin="allocation")
    plugin_options: Dict[str, object] = declare(
        "Options for the policy constructor.", default_factory=dict)
    seed: int = declare("Root random seed of the run.", default=0)
    max_simulation_time: Optional[float] = declare(
        "Hard stop for the simulated clock.", default=None, quantity="duration", gt=0,
        publish_default=True)
    dispatch_interval: float = declare(
        "Minimum time between dispatch rounds.", default=1.0, quantity="duration", ge=0)
    pending_retry_interval: float = declare(
        "Re-examination period of the pending list.", default=60.0,
        quantity="duration", gt=0)
    scheduling_overhead: float = declare(
        "Fixed cost added per dispatched job.", default=0.0, quantity="duration", ge=0)
    max_retries: int = declare("Automatic resubmissions of failed jobs.", default=0, ge=0)
    monitoring: MonitoringConfig = declare(default_factory=MonitoringConfig)
    output: OutputConfig = declare(default_factory=OutputConfig)
    #: Optional early-stop conditions evaluated between events by sessions
    #: (``None`` disables them; see :class:`StopConfig`).
    stop: Optional[StopConfig] = declare(default=None)

    def __post_init__(self) -> None:
        check_declared(self)

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
        return load(cls, data, "execution config")
