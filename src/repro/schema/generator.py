"""Generate the scenario-pack JSON Schema from the configuration dataclasses.

The generator never hand-writes a field list: every ``$defs`` entry is built
by introspecting the corresponding dataclass
(:class:`~repro.scenarios.schema.GridSection`,
:class:`~repro.config.execution.ExecutionConfig`, ...) for defaults and by
reading the class docstring for its ``description``; the eviction /
replication / allocation plugin-name enums are pulled live from
:func:`repro.plugins.registry.available_plugins`.  Cross-field rules the
eager validator enforces (``kind: files`` requires paths, ``trace`` and
``per_site_jobs`` are exclusive, ``calibration`` and ``sweep`` are mutually
exclusive, a stop ``metric`` needs a ``value``, ...) are encoded with
``if``/``then``/``else`` and ``not`` clauses so third-party tooling catches
them too.

The rendered document is committed at ``docs/schema/scenario-pack.schema.json``
and kept in sync by ``repro schema check`` in CI.  The schema is
deliberately *no looser* than :meth:`ScenarioPack.from_dict
<repro.scenarios.ScenarioPack.from_dict>`: everything it accepts the eager
validator accepts too (file-existence, plugin-option values and sweep-axis
dry-runs remain eager-only), and everything :meth:`ScenarioPack.to_dict
<repro.scenarios.ScenarioPack.to_dict>` emits validates against it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_ID",
    "build_schema",
    "schema_json",
    "schema_path",
    "dataclass_schema",
]

#: Version of the scenario-pack schema document.  Bump the major part for
#: breaking changes to the pack format, the minor part for additive ones.
SCHEMA_VERSION = "2.0"

#: Canonical ``$id`` of the published schema document.
SCHEMA_ID = "https://example.invalid/cgsim-repro/schema/scenario-pack.schema.json"

#: Registered-plugin ``"module.path:ClassName"`` reference syntax.
PLUGIN_SPEC_PATTERN = r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*:[A-Za-z_][A-Za-z0-9_]*$"

#: Quantity strings accepted by :func:`repro.utils.units.parse_duration` /
#: :func:`~repro.utils.units.parse_bytes`: a number plus an optional unit.
QUANTITY_PATTERN = r"^\s*[+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?\s*[A-Za-z/]*\s*$"


def schema_path(repo_root: Optional[Path] = None) -> Path:
    """Location of the committed schema document inside the repository.

    ``docs/schema/scenario-pack.schema.json`` relative to ``repo_root``
    (defaulting to the repository this package was imported from); the CLI's
    ``repro schema check``/``emit`` default to this path.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    return repo_root / "docs" / "schema" / "scenario-pack.schema.json"


def _doc(obj: Any) -> str:
    """First paragraph of ``obj``'s docstring, collapsed to one line."""
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0]
    return " ".join(first.split())


def _defaults(cls: Any) -> Dict[str, Any]:
    """JSON-encodable dataclass field defaults (factories invoked if simple)."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            value = f.default
        elif f.default_factory is not dataclasses.MISSING and f.default_factory in (dict, list):
            value = f.default_factory()
        else:
            continue
        if value is None or isinstance(value, (bool, int, float, str, list, dict)):
            out[f.name] = value
    return out


def _with_default(schema: Dict[str, Any], defaults: Dict[str, Any], name: str) -> Dict[str, Any]:
    if name in defaults:
        schema = dict(schema)
        schema["default"] = defaults[name]
    return schema


def _number(minimum: Optional[float] = None, exclusive_minimum: Optional[float] = None,
            maximum: Optional[float] = None, description: str = "") -> Dict[str, Any]:
    schema: Dict[str, Any] = {"type": "number"}
    if minimum is not None:
        schema["minimum"] = minimum
    if exclusive_minimum is not None:
        schema["exclusiveMinimum"] = exclusive_minimum
    if maximum is not None:
        schema["maximum"] = maximum
    if description:
        schema["description"] = description
    return schema


def _integer(minimum: Optional[int] = None, description: str = "") -> Dict[str, Any]:
    schema: Dict[str, Any] = {"type": "integer"}
    if minimum is not None:
        schema["minimum"] = minimum
    if description:
        schema["description"] = description
    return schema


def _string(description: str = "", **extra: Any) -> Dict[str, Any]:
    schema: Dict[str, Any] = {"type": "string", **extra}
    if description:
        schema["description"] = description
    return schema


def _quantity(kind: str, exclusive_minimum: Optional[float] = None,
              minimum: Optional[float] = None, nullable: bool = False,
              description: str = "") -> Dict[str, Any]:
    """A duration/byte quantity: a bounded number or a unit string like ``"4h"``."""
    branches: List[Dict[str, Any]] = [
        _number(minimum=minimum, exclusive_minimum=exclusive_minimum),
        {"type": "string", "pattern": QUANTITY_PATTERN,
         "$comment": f"unit string parsed by repro.utils.units.parse_{kind}"},
    ]
    if nullable:
        branches.append({"type": "null"})
    schema: Dict[str, Any] = {"anyOf": branches}
    if description:
        schema["description"] = description
    return schema


def _plugin_ref(family: str, description: str) -> Dict[str, Any]:
    """Plugin name schema: registered names of ``family`` or ``module:Class``."""
    from repro.plugins.registry import available_plugins

    return {
        "description": description,
        "anyOf": [
            {"enum": list(available_plugins(family)),
             "$comment": f"plugins registered in the {family!r} family"},
            {"type": "string", "pattern": PLUGIN_SPEC_PATTERN,
             "$comment": "dynamic module.path:ClassName plugin reference"},
        ],
    }


def _options_object(description: str) -> Dict[str, Any]:
    return {"type": "object", "description": description, "default": {}}


def _nullable_ref(ref: str) -> Dict[str, Any]:
    return {"anyOf": [{"$ref": ref}, {"type": "null"}]}


def _grid_def() -> Dict[str, Any]:
    from repro.scenarios.schema import GridSection

    d = _defaults(GridSection)
    return {
        "type": "object",
        "description": _doc(GridSection),
        "additionalProperties": False,
        "properties": {
            "kind": _with_default({"enum": ["synthetic", "wlcg", "files"],
                                   "description": "Source of the simulated grid."}, d, "kind"),
            "sites": _with_default(_integer(1, "Number of sites (synthetic/wlcg kinds)."), d, "sites"),
            "layout": _with_default({"enum": ["star", "tiered"],
                                     "description": "Synthetic topology layout."}, d, "layout"),
            "seed": _with_default(_integer(0, "Seed of the synthetic grid generator."), d, "seed"),
            "infrastructure": {"type": ["string", "null"],
                               "description": "Infrastructure file path (kind 'files' only)."},
            "topology": {"type": ["string", "null"],
                         "description": "Topology file path (kind 'files' only)."},
        },
        "allOf": [
            {
                "if": {"properties": {"kind": {"const": "files"}}, "required": ["kind"]},
                "then": {"required": ["infrastructure", "topology"],
                         "properties": {"infrastructure": {"type": "string"},
                                        "topology": {"type": "string"}}},
                "else": {
                    "properties": {"infrastructure": {"type": "null"},
                                   "topology": {"type": "null"}},
                    "$comment": "infrastructure/topology are only valid with kind 'files'",
                },
            }
        ],
    }


def _workload_spec_def() -> Dict[str, Any]:
    from repro.workload.generator import WorkloadSpec

    d = _defaults(WorkloadSpec)
    properties = {
        "multicore_fraction": _number(0, None, 1, "Fraction of jobs requesting multicore_cores cores."),
        "multicore_cores": _integer(2, "Core count of multi-core jobs."),
        "walltime_median": _number(None, 0, None, "Median single-core walltime, seconds."),
        "walltime_sigma": _number(0, None, None, "Lognormal sigma of walltimes."),
        "multicore_walltime_factor": _number(None, 0, None, "Walltime multiplier for multi-core jobs."),
        "mean_input_files": _number(0, None, None, "Poisson mean of input-file counts."),
        "mean_output_files": _number(0, None, None, "Poisson mean of output-file counts."),
        "mean_file_size": _number(0, None, None, "Mean file size in bytes."),
        "memory_per_core": _number(0, None, None, "Memory requested per core, bytes."),
        "arrival_rate": {"anyOf": [_number(None, 0), {"type": "null"}],
                         "description": "Poisson arrival rate (jobs/s); null submits at t=0."},
        "walltime_noise_sigma": _number(0, None, None,
                                        "Lognormal sigma of per-job walltime discrepancy."),
    }
    return {
        "type": "object",
        "description": _doc(WorkloadSpec),
        "additionalProperties": False,
        "properties": {name: _with_default(schema, d, name) for name, schema in properties.items()},
    }


def _workload_def() -> Dict[str, Any]:
    from repro.scenarios.schema import WorkloadSection

    d = _defaults(WorkloadSection)
    return {
        "type": "object",
        "description": _doc(WorkloadSection),
        "additionalProperties": False,
        "properties": {
            "generator": _with_default({"enum": ["synthetic", "panda"],
                                        "description": "Workload generator."}, d, "generator"),
            "jobs": _with_default(_integer(1, "Total job count to generate."), d, "jobs"),
            "seed": _with_default(_integer(0, "Workload generator seed."), d, "seed"),
            "spec": {"$ref": "#/$defs/workload_spec"},
            "mean_task_size": _with_default(
                _number(1, None, None, "Mean jobs per PanDA-like task (panda generator)."),
                d, "mean_task_size"),
            "per_site_jobs": {"anyOf": [_integer(1), {"type": "null"}],
                              "description": "Exactly-N-jobs-per-site mode (synthetic only)."},
            "trace": {"type": ["string", "null"],
                      "description": "CSV trace file to replay instead of generating."},
        },
        "allOf": [
            {
                "if": {"properties": {"per_site_jobs": {"type": "integer"}},
                       "required": ["per_site_jobs"]},
                "then": {"properties": {"generator": {"const": "synthetic"}},
                         "$comment": "per_site_jobs requires the synthetic generator"},
            },
            {
                "not": {"properties": {"trace": {"type": "string"},
                                       "per_site_jobs": {"type": "integer"}},
                        "required": ["trace", "per_site_jobs"]},
                "$comment": "trace and per_site_jobs are exclusive",
            },
        ],
    }


def _faults_def() -> Dict[str, Any]:
    from repro.faults.models import JobFailureModel, SiteOutageModel
    from repro.scenarios.schema import FaultsSection

    job_failures = {
        "type": "object",
        "description": _doc(JobFailureModel),
        "additionalProperties": False,
        "properties": {
            "default_rate": _number(0, None, 1, "Failure probability for unlisted sites."),
            "site_rates": {"type": "object",
                           "additionalProperties": _number(0, None, 1),
                           "description": "Per-site failure probabilities."},
            "mean_failure_fraction": _number(None, 0, 1,
                                             "Mean fraction of execution completed before failing."),
            "seed": _integer(None, "Root seed of the failure draws."),
        },
    }
    outage_window = {
        "type": "object",
        "description": "One explicit site outage interval in simulated seconds.",
        "additionalProperties": False,
        "required": ["site", "start", "end"],
        "properties": {
            "site": _string("Site the outage applies to."),
            "start": _quantity("duration", description="Outage start time."),
            "end": _quantity("duration", description="Outage end time."),
        },
    }
    outage_model = {
        "type": "object",
        "description": _doc(SiteOutageModel),
        "additionalProperties": False,
        "required": ["horizon"],
        "properties": {
            "mean_time_between_failures": _quantity("duration", exclusive_minimum=0,
                                                    description="MTBF per site."),
            "mean_time_to_repair": _quantity("duration", exclusive_minimum=0,
                                             description="MTTR per outage."),
            "horizon": _quantity("duration", exclusive_minimum=0,
                                 description="Schedule horizon for drawn outages."),
            "seed": _integer(None, "Seed of the outage schedule draws."),
        },
    }
    return {
        "type": "object",
        "description": _doc(FaultsSection),
        "additionalProperties": False,
        "properties": {
            "job_failures": {"anyOf": [job_failures, {"type": "null"}]},
            "outages": {"type": "array", "items": outage_window,
                        "description": "Explicit outage windows.", "default": []},
            "outage_model": {"anyOf": [outage_model, {"type": "null"}]},
        },
    }


def _cache_def() -> Dict[str, Any]:
    from repro.scenarios.schema import CacheSection

    d = _defaults(CacheSection)
    return {
        "type": "object",
        "description": _doc(CacheSection),
        "additionalProperties": False,
        "properties": {
            "capacity": _quantity("bytes", exclusive_minimum=0, nullable=True,
                                  description="Per-site cache capacity in bytes (null = unbounded)."),
            "policy": _with_default(_plugin_ref("eviction", "Eviction plugin name."), d, "policy"),
            "policy_options": _options_object("Options for the eviction plugin constructor."),
            "replication": _with_default(
                _plugin_ref("replication", "Replica-placement plugin name."), d, "replication"),
            "replication_options": _options_object("Options for the replication plugin constructor."),
            "prewarm": _with_default({"type": "boolean",
                                      "description": "Pre-populate caches with the datasets jobs read."},
                                     d, "prewarm"),
        },
    }


def _data_def() -> Dict[str, Any]:
    from repro.scenarios.schema import DataSection

    d = _defaults(DataSection)
    return {
        "type": "object",
        "description": _doc(DataSection),
        "additionalProperties": False,
        "properties": {
            "datasets": _with_default(_integer(1, "Number of shared datasets."), d, "datasets"),
            "dataset_size": _with_default(
                _quantity("bytes", exclusive_minimum=0, description="Size of each dataset in bytes."),
                d, "dataset_size"),
            "replication_factor": _with_default(
                _integer(1, "Initial replicas per dataset."), d, "replication_factor"),
            "seed": _with_default(_integer(0, "Placement/assignment seed."), d, "seed"),
            "assignment": _with_default({"enum": ["round_robin", "zipf"],
                                         "description": "How jobs are assigned datasets."},
                                        d, "assignment"),
            "zipf_exponent": _with_default(
                _number(None, 0, None, "Zipf popularity exponent (assignment 'zipf')."),
                d, "zipf_exponent"),
            "cache": _nullable_ref("#/$defs/cache"),
        },
    }


def _calibration_def() -> Dict[str, Any]:
    from repro.scenarios.schema import CalibrationSection

    d = _defaults(CalibrationSection)
    return {
        "type": "object",
        "description": _doc(CalibrationSection),
        "additionalProperties": False,
        "properties": {
            "optimizer": _with_default({"enum": ["random", "bayesian", "cmaes", "brute_force"],
                                        "description": "Black-box optimizer."}, d, "optimizer"),
            "budget": _with_default(_integer(1, "Optimizer evaluations per site."), d, "budget"),
            "mode": _with_default({"enum": ["simulate", "analytic"],
                                   "description": "Objective evaluation mode."}, d, "mode"),
            "seed": _with_default(_integer(0, "Optimizer seed."), d, "seed"),
            "min_jobs_per_site": _with_default(
                _integer(1, "Minimum ground-truth jobs a site needs to be calibrated."),
                d, "min_jobs_per_site"),
            "workers": _with_default(_integer(0, "Worker processes (0 = one per CPU)."), d, "workers"),
        },
    }


def _sweep_def() -> Dict[str, Any]:
    from repro.scenarios.schema import DEFAULT_SWEEP_METRICS, SweepSection

    d = _defaults(SweepSection)
    return {
        "type": "object",
        "description": _doc(SweepSection),
        "additionalProperties": False,
        "required": ["axes"],
        "properties": {
            "axes": {
                "type": "object",
                "description": "Dotted pack paths mapped to the value lists to sweep.",
                "minProperties": 1,
                "propertyNames": {
                    "pattern": r"^(?!(?:name|title|description|tags|sweep)(?:\.|$)).+",
                    "$comment": "axes must target a simulation field "
                                "(grid/workload/execution/faults/data)",
                },
                "additionalProperties": {"type": "array", "minItems": 1},
            },
            "replications": _with_default(
                _integer(1, "Seeded replications per combination."), d, "replications"),
            "workers": _with_default(_integer(0, "Worker processes (0 = one per CPU)."), d, "workers"),
            "metrics": {"type": "array", "items": {"type": "string"},
                        "description": "Metric columns of the aggregate table.",
                        "default": list(DEFAULT_SWEEP_METRICS)},
        },
    }


def _monitoring_def() -> Dict[str, Any]:
    from repro.config.execution import MonitoringConfig

    d = _defaults(MonitoringConfig)
    return {
        "type": "object",
        "description": _doc(MonitoringConfig),
        "additionalProperties": False,
        "properties": {
            "enable_events": _with_default({"type": "boolean",
                                            "description": "Record per-job state transitions."},
                                           d, "enable_events"),
            "snapshot_interval": _with_default(
                _quantity("duration", minimum=0,
                          description="Seconds between site snapshots (0 disables)."),
                d, "snapshot_interval"),
            "keep_in_memory": _with_default({"type": "boolean",
                                             "description": "Retain monitoring rows in memory."},
                                            d, "keep_in_memory"),
            "batch_size": _with_default(_integer(1, "Rows buffered per sink batch."), d, "batch_size"),
            "detail": _with_default({"enum": ["full", "aggregate"],
                                     "description": "Transition detail level."}, d, "detail"),
            "sample_stride": _with_default(_integer(1, "Retain every Nth transition row."),
                                           d, "sample_stride"),
        },
    }


def _output_def() -> Dict[str, Any]:
    from repro.config.execution import OutputConfig

    d = _defaults(OutputConfig)
    return {
        "type": "object",
        "description": _doc(OutputConfig),
        "additionalProperties": False,
        "properties": {
            "sqlite_path": {"type": ["string", "null"],
                            "description": "SQLite database path (null disables)."},
            "csv_directory": {"type": ["string", "null"],
                              "description": "CSV export directory (null disables)."},
            "ml_dataset": _with_default({"type": "boolean",
                                         "description": "Also dump the ML-ready event dataset."},
                                        d, "ml_dataset"),
        },
    }


def _stop_def() -> Dict[str, Any]:
    from repro.config.execution import STOP_OPS, StopConfig

    return {
        "type": "object",
        "description": _doc(StopConfig),
        "additionalProperties": False,
        "properties": {
            "max_simulated_time": _quantity("duration", exclusive_minimum=0, nullable=True,
                                            description="Stop once the clock reaches this horizon."),
            "max_finished_jobs": {"anyOf": [_integer(1), {"type": "null"}],
                                  "description": "Stop after this many finished jobs."},
            "max_failed_jobs": {"anyOf": [_integer(1), {"type": "null"}],
                                "description": "Stop after this many failed jobs."},
            "metric": {"type": ["string", "null"], "description": "Metric-predicate field name."},
            "op": {"enum": list(STOP_OPS), "default": ">=",
                   "description": "Comparison operator of the metric predicate."},
            "value": {"anyOf": [{"type": "number"}, {"type": "null"}],
                      "description": "Metric-predicate threshold."},
            "check_every": _integer(1, "Recompute metrics every N job completions."),
        },
        "allOf": [
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
        ],
    }


def _execution_def() -> Dict[str, Any]:
    from repro.config.execution import ExecutionConfig

    d = _defaults(ExecutionConfig)
    return {
        "type": "object",
        "description": _doc(ExecutionConfig),
        "additionalProperties": False,
        "properties": {
            "plugin": _with_default(
                _plugin_ref("allocation", "Allocation-policy plugin deciding job placement."),
                d, "plugin"),
            "plugin_options": _options_object("Options for the policy constructor."),
            "seed": _with_default(_integer(None, "Root random seed of the run."), d, "seed"),
            "max_simulation_time": _with_default(
                _quantity("duration", exclusive_minimum=0, nullable=True,
                          description="Hard stop for the simulated clock."),
                d, "max_simulation_time"),
            "dispatch_interval": _with_default(
                _quantity("duration", minimum=0,
                          description="Minimum time between dispatch rounds."),
                d, "dispatch_interval"),
            "pending_retry_interval": _with_default(
                _quantity("duration", exclusive_minimum=0,
                          description="Re-examination period of the pending list."),
                d, "pending_retry_interval"),
            "scheduling_overhead": _with_default(
                _quantity("duration", minimum=0,
                          description="Fixed cost added per dispatched job."),
                d, "scheduling_overhead"),
            "max_retries": _with_default(_integer(0, "Automatic resubmissions of failed jobs."),
                                         d, "max_retries"),
            "monitoring": {"$ref": "#/$defs/monitoring"},
            "output": {"$ref": "#/$defs/output"},
            "stop": _nullable_ref("#/$defs/stop"),
        },
    }


def build_schema() -> Dict[str, Any]:
    """Build the scenario-pack JSON Schema document as a Python mapping.

    The document is draft 2020-12, carries :data:`SCHEMA_VERSION` in its
    ``version`` field, and is fully regenerated on every call -- plugin
    enums reflect whatever is registered at call time, which is exactly why
    CI re-runs ``repro schema check`` instead of trusting the committed
    copy.
    """
    from repro.scenarios.schema import ScenarioPack

    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": SCHEMA_ID,
        "title": "CGSim reproduction scenario pack",
        "version": SCHEMA_VERSION,
        "description": _doc(ScenarioPack),
        "type": "object",
        "additionalProperties": False,
        "required": ["name"],
        "properties": {
            "name": _string("Unique pack name (the scenario registry key).", minLength=1),
            "title": _string("One-line human title."),
            "description": _string("Free-form description of the study."),
            "tags": {"type": "array", "items": {"type": "string"},
                     "description": "Free-form labels for filtering pack listings."},
            "grid": {"$ref": "#/$defs/grid"},
            "workload": {"$ref": "#/$defs/workload"},
            "execution": {
                "anyOf": [{"$ref": "#/$defs/execution"},
                          _string("Path to a classic execution config file.")],
                "description": "Execution parameters, inline or as a file reference.",
            },
            "faults": _nullable_ref("#/$defs/faults"),
            "data": _nullable_ref("#/$defs/data"),
            "calibration": _nullable_ref("#/$defs/calibration"),
            "sweep": _nullable_ref("#/$defs/sweep"),
        },
        "allOf": [
            {
                "not": {"properties": {"calibration": {"type": "object"},
                                       "sweep": {"type": "object"}},
                        "required": ["calibration", "sweep"]},
                "$comment": "'calibration' and 'sweep' are mutually exclusive",
            },
            {
                "if": {"properties": {"calibration": {"type": "object"}},
                       "required": ["calibration"]},
                "then": {"properties": {"faults": {"type": "null"}, "data": {"type": "null"}},
                         "$comment": "calibration packs do not support 'faults' or 'data'"},
            },
        ],
        "$defs": {
            "grid": _grid_def(),
            "workload": _workload_def(),
            "workload_spec": _workload_spec_def(),
            "faults": _faults_def(),
            "cache": _cache_def(),
            "data": _data_def(),
            "calibration": _calibration_def(),
            "sweep": _sweep_def(),
            "execution": _execution_def(),
            "monitoring": _monitoring_def(),
            "output": _output_def(),
            "stop": _stop_def(),
        },
    }


def schema_json() -> str:
    """The schema document rendered exactly as committed (stable formatting).

    Two-space indentation, preserved key order (generation order is
    deterministic) and a trailing newline, so ``repro schema check`` can
    compare the committed file byte-for-byte.
    """
    return json.dumps(build_schema(), indent=2) + "\n"


def dataclass_schema(cls: Any) -> Dict[str, Any]:
    """Generic dataclass -> JSON Schema object translation.

    Powers the *service* wire-model schemas (:mod:`repro.service.models`):
    every request/response dataclass becomes a closed object schema
    (``additionalProperties: false``) whose property types come from the
    field annotations -- ``int``/``float``/``str``/``bool``, ``Optional``
    (an ``anyOf`` with ``null``), ``List``/``Dict`` containers and nested
    dataclasses (inlined recursively).  Fields without defaults are
    ``required``; JSON-encodable defaults are recorded; a field's
    ``metadata={"description": ...}`` becomes its ``description`` and the
    class docstring's first paragraph the object's.  The scenario-pack
    schema itself stays hand-assembled (:func:`build_schema`) because it
    encodes cross-field rules; this helper covers the plain-record shapes.
    """
    import typing

    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"dataclass_schema needs a dataclass, got {cls!r}")
    hints = typing.get_type_hints(cls)
    defaults = _defaults(cls)
    properties: Dict[str, Any] = {}
    required: List[str] = []
    for f in dataclasses.fields(cls):
        schema = _annotation_schema(hints.get(f.name, Any))
        description = f.metadata.get("description") if f.metadata else None
        if description:
            schema = {**schema, "description": str(description)}
        properties[f.name] = _with_default(schema, defaults, f.name)
        if (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            required.append(f.name)
    document: Dict[str, Any] = {"type": "object"}
    doc = _doc(cls)
    if doc:
        document["description"] = doc
    document["properties"] = properties
    if required:
        document["required"] = required
    document["additionalProperties"] = False
    return document


def _annotation_schema(annotation: Any) -> Dict[str, Any]:
    """Schema fragment for one type annotation (the dataclass_schema walker)."""
    import typing

    if annotation is Any:
        return {}
    if dataclasses.is_dataclass(annotation):
        return dataclass_schema(annotation)
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:
        branches = []
        for arg in args:
            if arg is type(None):
                branches.append({"type": "null"})
            else:
                branches.append(_annotation_schema(arg))
        return branches[0] if len(branches) == 1 else {"anyOf": branches}
    if origin in (list, tuple):
        items = _annotation_schema(args[0]) if args else {}
        return {"type": "array", "items": items} if items else {"type": "array"}
    if origin is dict:
        return {"type": "object"}
    scalar = {bool: "boolean", int: "integer", float: "number", str: "string"}
    if annotation in scalar:
        return {"type": scalar[annotation]}
    if annotation in (dict, list):
        return {"type": "object" if annotation is dict else "array"}
    # Unknown/exotic annotations stay unconstrained rather than guessed.
    return {}
