"""The declarative scenario-pack schema.

A *scenario pack* is a single YAML/JSON file describing a complete "what if"
study: the grid (generated, the WLCG catalogue, or references to the three
classic config files), the workload, optional fault-injection campaigns and
data placement, the execution parameters, and -- optionally -- either a sweep
over any pack field (fanned across worker processes) or a calibration study.

Every field is declared once, on its dataclass
(:func:`repro.utils.fieldspec.declare`); the mapping loader validates against
that declaration with error messages that name the pack, the field and its
JSON pointer, so a typo in a pack fails at ``repro scenario validate`` time,
never ten minutes into a sweep -- and :mod:`repro.schema` publishes the same
declaration as JSON Schema.

The schema is deliberately data-only: a pack contains parameters, never code,
which is what makes packs diffable, sweepable (axes are dotted paths into the
pack, e.g. ``execution.plugin``) and safe to share.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config.execution import ExecutionConfig
from repro.config.infrastructure import InfrastructureConfig
from repro.config.topology import TopologyConfig
from repro.faults.models import JobFailureModel, OutageWindow, SiteOutageModel
from repro.schema.generator import doc_summary, quantity_schema, typed_schema
from repro.utils.errors import ConfigurationError
from repro.utils.fieldspec import (
    Ctx,
    at,
    child,
    declare,
    errors_under,
    fail,
    load,
    reject_unknown,
    require_mapping,
)
from repro.utils.jsonpointer import join_pointer
from repro.utils.units import parse_duration
from repro.workload.generator import WorkloadSpec
from repro.workload.job import Job

__all__ = [
    "GridSection",
    "WorkloadSection",
    "FaultsSection",
    "DataSection",
    "CacheSection",
    "CalibrationSection",
    "SweepSection",
    "ScenarioPack",
    "apply_override",
    "apply_overrides",
]

#: Default metrics rendered for sweep packs that do not choose their own.
DEFAULT_SWEEP_METRICS = ("makespan", "mean_queue_time", "throughput", "failure_rate")

#: Top-level pack fields a sweep axis may not target (they are not simulation
#: parameters).
_NOT_SWEEPABLE = ("name", "title", "description", "tags", "sweep")


class _Section:
    """What every pack section shares: its fields are declared once with
    :func:`~repro.utils.fieldspec.declare`, and that declaration is what the
    mapping loader, the eager error messages and the published JSON Schema
    read.  A section adds only its cross-field ``RULES``."""

    @classmethod
    def from_dict(cls, data: Any, ctx: str) -> Any:
        """Validate a parsed mapping into the section (errors name ``ctx``)."""
        return load(cls, data, ctx)


@dataclass
class GridSection(_Section):
    """Where the simulated infrastructure and topology come from.

    ``kind`` selects one of three sources:

    * ``"synthetic"`` -- :func:`repro.config.generators.generate_grid` builds a
      heterogeneous grid of ``sites`` sites with the given ``layout``
      (``"star"`` or ``"tiered"``) and ``seed``;
    * ``"wlcg"`` -- the built-in WLCG catalogue
      (:func:`repro.atlas.wlcg.wlcg_grid`) provides the ``sites`` largest
      ATLAS-like sites with their tiered topology;
    * ``"files"`` -- the classic pair of config files: ``infrastructure`` and
      ``topology`` are paths (JSON, or YAML with PyYAML installed), resolved
      relative to the pack file.
    """

    kind: str = declare("Source of the simulated grid.", default="synthetic",
                        choices=("synthetic", "wlcg", "files"))
    sites: int = declare("Number of sites (synthetic/wlcg kinds).", default=10, ge=1)
    layout: str = declare("Synthetic topology layout.", default="star",
                          choices=("star", "tiered"))
    seed: int = declare("Seed of the synthetic grid generator.", default=0, ge=0)
    infrastructure: Optional[str] = declare(
        "Infrastructure file path (kind 'files' only).", default=None)
    topology: Optional[str] = declare("Topology file path (kind 'files' only).", default=None)

    def _paths_go_with_files(self, ctx: str) -> None:
        for name in ("infrastructure", "topology"):
            path = getattr(self, name)
            if self.kind == "files" and not path:
                fail(ctx, f"kind 'files' requires the {name!r} path", name)
            if self.kind != "files" and path is not None:
                fail(ctx, f"{name!r} is only valid with kind 'files'", name)

    RULES = [(
        _paths_go_with_files,
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
        },
    )]

    def build(self, base_dir: Optional[Path]) -> Tuple[InfrastructureConfig, TopologyConfig]:
        """Materialise the infrastructure and topology this section describes."""
        if self.kind == "wlcg":
            from repro.atlas.wlcg import wlcg_grid

            return wlcg_grid(site_count=self.sites)
        if self.kind == "files":
            from repro.config.loaders import (
                load_infrastructure,
                load_topology,
                validate_cross_references,
            )

            base = base_dir or Path.cwd()
            assert self.infrastructure is not None and self.topology is not None
            infrastructure = load_infrastructure(_resolve(base, self.infrastructure))
            topology = load_topology(_resolve(base, self.topology))
            validate_cross_references(infrastructure, topology)
            return infrastructure, topology
        from repro.config.generators import generate_grid

        return generate_grid(self.sites, seed=self.seed, topology=self.layout)

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "files":
            data["infrastructure"] = self.infrastructure
            data["topology"] = self.topology
        else:
            data["sites"] = self.sites
            if self.kind == "synthetic":
                data["layout"] = self.layout
                data["seed"] = self.seed
        return data


def _resolve(base: Path, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else base / path


@dataclass
class WorkloadSection(_Section):
    """How the job trace is produced.

    ``generator`` is ``"synthetic"`` (:class:`SyntheticWorkloadGenerator`) or
    ``"panda"`` (:class:`repro.atlas.panda.PandaWorkloadModel`, which groups
    jobs into PanDA-like tasks).  ``spec`` holds :class:`WorkloadSpec` field
    overrides (``walltime_sigma``, ``multicore_fraction``, ...); unknown keys
    are rejected by name.  ``per_site_jobs`` switches the synthetic generator
    to exactly-N-jobs-per-site mode (the multi-site scaling and calibration
    studies), and ``trace`` replays a CSV trace file instead of generating.
    """

    generator: str = declare("Workload generator.", default="synthetic",
                             choices=("synthetic", "panda"))
    jobs: int = declare("Total job count to generate.", default=1000, ge=1)
    seed: int = declare("Workload generator seed.", default=0, ge=0)
    spec: Dict[str, Any] = declare(default_factory=dict, checked_as=WorkloadSpec)
    mean_task_size: float = declare(
        "Mean jobs per PanDA-like task (panda generator).", default=25.0, ge=1)
    per_site_jobs: Optional[int] = declare(
        "Exactly-N-jobs-per-site mode (synthetic only).", default=None, ge=1)
    trace: Optional[str] = declare(
        "CSV trace file to replay instead of generating.", default=None)

    def _per_site_jobs_is_synthetic(self, ctx: str) -> None:
        if self.per_site_jobs is not None and self.generator != "synthetic":
            fail(ctx, "per_site_jobs requires the synthetic generator", "per_site_jobs")

    def _trace_or_per_site_jobs(self, ctx: str) -> None:
        if self.trace is not None and self.per_site_jobs is not None:
            fail(ctx, "trace and per_site_jobs are exclusive", "trace")

    RULES = [
        (
            _per_site_jobs_is_synthetic,
            {
                "if": {"properties": {"per_site_jobs": {"type": "integer"}},
                       "required": ["per_site_jobs"]},
                "then": {"properties": {"generator": {"const": "synthetic"}},
                         "$comment": "per_site_jobs requires the synthetic generator"},
            },
        ),
        (
            _trace_or_per_site_jobs,
            {
                "not": {"properties": {"trace": {"type": "string"},
                                       "per_site_jobs": {"type": "integer"}},
                        "required": ["trace", "per_site_jobs"]},
                "$comment": "trace and per_site_jobs are exclusive",
            },
        ),
    ]

    def build(self, infrastructure: InfrastructureConfig, base_dir: Optional[Path]) -> List[Job]:
        """Generate (or load) the job list against ``infrastructure``."""
        if self.trace is not None:
            from repro.workload.trace import load_trace

            return load_trace(_resolve(base_dir or Path.cwd(), self.trace))
        spec = WorkloadSpec(**self.spec)
        if self.generator == "panda":
            from repro.atlas.panda import PandaWorkloadModel

            model = PandaWorkloadModel(
                infrastructure, spec=spec, seed=self.seed, mean_task_size=self.mean_task_size
            )
            return model.generate_trace(self.jobs)
        from repro.workload.generator import SyntheticWorkloadGenerator

        generator = SyntheticWorkloadGenerator(infrastructure, spec=spec, seed=self.seed)
        if self.per_site_jobs is not None:
            return generator.generate_per_site(self.per_site_jobs)
        return generator.generate(self.jobs)

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"generator": self.generator, "seed": self.seed}
        if self.trace is not None:
            data["trace"] = self.trace
        elif self.per_site_jobs is not None:
            data["per_site_jobs"] = self.per_site_jobs
        else:
            data["jobs"] = self.jobs
        if self.spec:
            data["spec"] = dict(self.spec)
        if self.generator == "panda" and self.mean_task_size != 25.0:
            data["mean_task_size"] = self.mean_task_size
        return data


#: The three ``faults`` sub-objects map onto plain classes (no dataclass to
#: walk), so their published shapes are assembled by hand here, next to the
#: eager checks in :class:`FaultsSection` that read their key lists.
_JOB_FAILURES = {
    "type": "object",
    "description": doc_summary(JobFailureModel),
    "additionalProperties": False,
    "properties": {
        "default_rate": typed_schema(
            "number", "Failure probability for unlisted sites.", minimum=0, maximum=1),
        "site_rates": {"type": "object",
                       "additionalProperties": typed_schema("number", minimum=0, maximum=1),
                       "description": "Per-site failure probabilities."},
        "mean_failure_fraction": typed_schema(
            "number", "Mean fraction of execution completed before failing.",
            exclusiveMinimum=0, maximum=1),
        "seed": typed_schema("integer", "Root seed of the failure draws."),
    },
}
_OUTAGE_WINDOW = {
    "type": "object",
    "description": "One explicit site outage interval in simulated seconds.",
    "additionalProperties": False,
    "required": ["site", "start", "end"],
    "properties": {
        "site": typed_schema("string", "Site the outage applies to."),
        "start": quantity_schema("duration", description="Outage start time."),
        "end": quantity_schema("duration", description="Outage end time."),
    },
}
_OUTAGE_MODEL = {
    "type": "object",
    "description": doc_summary(SiteOutageModel),
    "additionalProperties": False,
    "required": ["horizon"],
    "properties": {
        "mean_time_between_failures": quantity_schema(
            "duration", exclusive_minimum=0, description="MTBF per site."),
        "mean_time_to_repair": quantity_schema(
            "duration", exclusive_minimum=0, description="MTTR per outage."),
        "horizon": quantity_schema(
            "duration", exclusive_minimum=0, description="Schedule horizon for drawn outages."),
        "seed": typed_schema("integer", "Seed of the outage schedule draws."),
    },
}


@dataclass
class FaultsSection(_Section):
    """Fault-injection campaign: job failures plus site outages.

    ``job_failures`` maps straight onto :class:`JobFailureModel` (per-site
    failure probabilities); ``outages`` lists explicit
    :class:`OutageWindow` intervals (durations accept unit strings such as
    ``"4h"``); ``outage_model`` draws an MTBF/MTTR schedule for every site
    via :class:`SiteOutageModel` over the given ``horizon``.
    """

    job_failures: Optional[Dict[str, Any]] = declare(
        default=None, schema={"anyOf": [_JOB_FAILURES, {"type": "null"}]})
    outages: List[Dict[str, Any]] = declare(
        default_factory=list,
        schema={"type": "array", "items": _OUTAGE_WINDOW,
                "description": "Explicit outage windows.", "default": []})
    outage_model: Optional[Dict[str, Any]] = declare(
        default=None, schema={"anyOf": [_OUTAGE_MODEL, {"type": "null"}]})

    def _job_failures_build(self, ctx: str) -> None:
        if self.job_failures is None:
            return
        ctx = child(ctx, "job_failures", "job_failures")
        reject_unknown(self.job_failures, _JOB_FAILURES["properties"], ctx)
        with errors_under(ctx):
            JobFailureModel(**self.job_failures)

    def _outages_build(self, ctx: str) -> None:
        for index, window in enumerate(self.outages):
            window_ctx = child(ctx, f"outages[{index}]", "outages", index)
            reject_unknown(require_mapping(window, window_ctx),
                           _OUTAGE_WINDOW["properties"], window_ctx)
            for key in _OUTAGE_WINDOW["required"]:
                if key not in window:
                    raise ConfigurationError(
                        f"{window_ctx} requires {key!r}{at(window_ctx, key)}")
            with errors_under(window_ctx):
                _outage_window(window)

    def _outage_model_builds(self, ctx: str) -> None:
        if self.outage_model is None:
            return
        model_ctx = child(ctx, "outage_model", "outage_model")
        reject_unknown(self.outage_model, _OUTAGE_MODEL["properties"], model_ctx)
        if "horizon" not in self.outage_model:
            fail(ctx, "outage_model requires 'horizon'", "outage_model", "horizon")
        with errors_under(model_ctx):
            self._site_outage_model()
            horizon = parse_duration(self.outage_model["horizon"])
        if horizon <= 0:
            fail(model_ctx, "horizon must be positive", "horizon")

    RULES = [(_job_failures_build,), (_outages_build,), (_outage_model_builds,)]

    def _site_outage_model(self) -> SiteOutageModel:
        assert self.outage_model is not None
        params = {k: v for k, v in self.outage_model.items() if k != "horizon"}
        for key in ("mean_time_between_failures", "mean_time_to_repair"):
            if key in params:
                params[key] = parse_duration(params[key])
        return SiteOutageModel(**params)

    def build(
        self, site_names: Sequence[str]
    ) -> Tuple[Optional[JobFailureModel], List[OutageWindow]]:
        """Materialise the failure model and the concrete outage windows."""
        failure_model = None
        if self.job_failures is not None:
            failure_model = JobFailureModel(**self.job_failures)
        windows = [_outage_window(w) for w in self.outages]
        if self.outage_model is not None:
            horizon = parse_duration(self.outage_model["horizon"])
            windows.extend(self._site_outage_model().schedule(site_names, horizon))
        return failure_model, windows

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {}
        if self.job_failures is not None:
            data["job_failures"] = dict(self.job_failures)
        if self.outages:
            data["outages"] = [dict(w) for w in self.outages]
        if self.outage_model is not None:
            data["outage_model"] = dict(self.outage_model)
        return data


def _outage_window(window: Dict[str, Any]) -> OutageWindow:
    return OutageWindow(
        site=window["site"],
        start=parse_duration(window["start"]),
        end=parse_duration(window["end"]),
    )


@dataclass
class CacheSection(_Section):
    """Site-cache configuration inside a pack's ``data`` section.

    ``capacity`` bounds each site's dataset cache in bytes (unit strings
    like ``"200GB"`` accepted; omit for unbounded-with-accounting);
    ``policy`` names an eviction plugin of the ``"eviction"`` family
    (``lru``, ``lfu``, ``size_weighted``, ``pinned``, or
    ``"module:Class"``) and ``replication`` a placement plugin of the
    ``"replication"`` family (``static_n``, ``popularity``,
    ``topology_aware``); both accept an ``*_options`` mapping.
    ``prewarm: true`` pre-populates each site's cache with the datasets its
    jobs read (warm-cache study; the default is a cold start).
    """

    capacity: Optional[float] = declare(
        "Per-site cache capacity in bytes (null = unbounded).", default=None,
        quantity="bytes", gt=0)
    policy: str = declare("Eviction plugin name.", default="lru", plugin="eviction")
    policy_options: Dict[str, Any] = declare(
        "Options for the eviction plugin constructor.", default_factory=dict)
    replication: str = declare(
        "Replica-placement plugin name.", default="static_n", plugin="replication")
    replication_options: Dict[str, Any] = declare(
        "Options for the replication plugin constructor.", default_factory=dict)
    prewarm: bool = declare(
        "Pre-populate caches with the datasets jobs read.", default=False)

    def _plugins_resolve(self, ctx: str) -> None:
        with errors_under(ctx):
            self.build_spec().validate()

    RULES = [(_plugins_resolve,)]

    def build_spec(self):
        """Materialise the validated :class:`repro.data.DataCacheSpec`."""
        from repro.data.spec import DataCacheSpec

        return DataCacheSpec(**asdict(self))

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {"policy": self.policy, "replication": self.replication}
        if self.capacity is not None:
            data["capacity"] = self.capacity
        if self.policy_options:
            data["policy_options"] = dict(self.policy_options)
        if self.replication_options:
            data["replication_options"] = dict(self.replication_options)
        if self.prewarm:
            data["prewarm"] = True
        return data


@dataclass
class DataSection(_Section):
    """Rucio-like dataset placement for data-aware scheduling studies.

    ``datasets`` shared datasets of ``dataset_size`` bytes each (unit strings
    like ``"50GB"`` accepted) are replicated ``replication_factor`` times
    across the grid; every job reads one dataset (round-robin assignment)
    and data transfers are simulated, so allocation decisions have
    WAN-traffic consequences.  Without a ``cache`` sub-section the placement
    is the seeded random :class:`repro.atlas.rucio.RucioCatalog`; with one
    (:class:`CacheSection`) the named replication strategy places the
    replicas and every site gets a finite cache with the configured eviction
    policy, unlocking cache-sizing and replica-placement studies.

    ``assignment`` controls which dataset each job reads:
    ``"round_robin"`` (default) cycles uniformly -- every dataset equally
    popular, the cache-hostile worst case -- while ``"zipf"`` draws from a
    Zipf distribution with the given ``zipf_exponent`` (seeded by ``seed``),
    the skewed popularity real caches exploit.
    """

    datasets: int = declare("Number of shared datasets.", default=20, ge=1)
    dataset_size: float = declare(
        "Size of each dataset in bytes.", default=50e9, quantity="bytes", gt=0)
    replication_factor: int = declare("Initial replicas per dataset.", default=2, ge=1)
    seed: int = declare("Placement/assignment seed.", default=0, ge=0)
    assignment: str = declare("How jobs are assigned datasets.", default="round_robin",
                              choices=("round_robin", "zipf"))
    zipf_exponent: float = declare(
        "Zipf popularity exponent (assignment 'zipf').", default=1.2, gt=0)
    cache: Optional[CacheSection] = declare(default=None)

    def dataset_catalog(self) -> Dict[str, float]:
        """Mapping of dataset name to size in bytes."""
        return {f"dataset_{i:03d}": self.dataset_size for i in range(self.datasets)}

    def to_dict(self) -> dict:
        data: Dict[str, Any] = {
            "datasets": self.datasets,
            "dataset_size": self.dataset_size,
            "replication_factor": self.replication_factor,
            "seed": self.seed,
        }
        if self.assignment != "round_robin":
            data["assignment"] = self.assignment
            data["zipf_exponent"] = self.zipf_exponent
        if self.cache is not None:
            data["cache"] = self.cache.to_dict()
        return data


@dataclass
class CalibrationSection(_Section):
    """Run the per-site walltime calibration instead of a plain simulation.

    The pack's workload becomes the ground truth (``per_site_jobs`` is the
    usual shape) and :class:`repro.calibration.GridCalibrator` tunes every
    site's per-core speed with the chosen black-box ``optimizer`` under the
    per-site evaluation ``budget``.  Sites are independent optimisation
    problems, so ``workers`` processes fan them out (0 = one per CPU) with a
    worker-count-invariant report.
    """

    optimizer: str = declare("Black-box optimizer.", default="random",
                             choices=("random", "bayesian", "cmaes", "brute_force"))
    budget: int = declare("Optimizer evaluations per site.", default=30, ge=1)
    mode: str = declare("Objective evaluation mode.", default="analytic",
                        choices=("simulate", "analytic"))
    seed: int = declare("Optimizer seed.", default=0, ge=0)
    min_jobs_per_site: int = declare(
        "Minimum ground-truth jobs a site needs to be calibrated.", default=5, ge=1)
    workers: int = declare("Worker processes (0 = one per CPU).", default=1, ge=0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepSection(_Section):
    """Fan the pack over a cartesian grid of field values.

    ``axes`` maps dotted paths into the pack (``"execution.plugin"``,
    ``"workload.jobs"``, ``"faults.job_failures.default_rate"``, ...) to the
    list of values to sweep; every combination becomes one scenario, each
    replicated ``replications`` times with derived seeds, executed across
    ``workers`` processes by :class:`repro.experiments.SweepRunner` (0 means
    one per CPU).  ``metrics`` selects the columns of the aggregate table.
    """

    axes: Dict[str, List[Any]] = declare(
        default_factory=dict, required=True,
        schema={
            "type": "object",
            "description": "Dotted pack paths mapped to the value lists to sweep.",
            "minProperties": 1,
            "propertyNames": {
                "pattern": rf"^(?!(?:{'|'.join(_NOT_SWEEPABLE)})(?:\.|$)).+",
                "$comment": "axes must target a simulation field "
                            "(grid/workload/execution/faults/data)",
            },
            "additionalProperties": {"type": "array", "minItems": 1},
        })
    replications: int = declare("Seeded replications per combination.", default=1, ge=1)
    workers: int = declare("Worker processes (0 = one per CPU).", default=1, ge=0)
    metrics: List[str] = declare(
        "Metric columns of the aggregate table.",
        default_factory=lambda: list(DEFAULT_SWEEP_METRICS))

    def _axes_list_values(self, ctx: str) -> None:
        if not self.axes:
            fail(ctx, "axes must name at least one sweep axis", "axes")
        for path, values in self.axes.items():
            if not isinstance(path, str) or not path:
                fail(ctx, "axis names must be dotted paths", "axes")
            if not isinstance(values, list) or not values:
                fail(ctx, f"axis {path!r} must list at least one value", "axes", path)
            if path.split(".")[0] in _NOT_SWEEPABLE:
                fail(ctx, f"axis {path!r} must target a simulation field "
                     "(grid/workload/execution/faults/data)", "axes", path)

    RULES = [(_axes_list_values,)]

    def combinations(self) -> List[Dict[str, Any]]:
        """Every axis combination as an ``{dotted path: value}`` mapping."""
        names = list(self.axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.axes[name] for name in names))
        ]

    def to_dict(self) -> dict:
        return asdict(self)


def apply_override(data: dict, path: str, value: Any) -> None:
    """Set ``path`` (dotted) in the nested mapping ``data`` to ``value``.

    Intermediate mappings are created on demand, so an axis can introduce a
    section the base pack leaves out (e.g. sweeping
    ``faults.job_failures.default_rate`` over a faultless baseline).
    Overriding *through* a non-mapping value is an error: the path must
    descend into mappings all the way down.

    One special case: sweep-axis keys are themselves dotted paths, so
    everything after a ``sweep.axes.`` prefix is treated as a single literal
    key -- ``"sweep.axes.workload.jobs"`` replaces the value list of the
    ``workload.jobs`` axis rather than creating a nested ``workload`` axis.
    """
    if path.startswith("sweep.axes.") and len(path) > len("sweep.axes."):
        parts = ["sweep", "axes", path[len("sweep.axes."):]]
    else:
        parts = path.split(".")
    if not all(parts):
        raise ConfigurationError(f"invalid override path {path!r}")
    node = data
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        elif not isinstance(child, dict):
            raise ConfigurationError(
                f"override path {path!r} descends into non-mapping field {part!r}"
            )
        node = child
    node[parts[-1]] = value


def apply_overrides(data: dict, overrides: Dict[str, Any]) -> dict:
    """Return a deep copy of ``data`` with every dotted-path override applied."""
    result = copy.deepcopy(data)
    for path, value in overrides.items():
        apply_override(result, path, value)
    return result


@dataclass
class ScenarioPack:
    """One validated scenario-pack file.

    The sections mirror the subsystems they configure: ``grid``
    (:class:`GridSection`), ``workload`` (:class:`WorkloadSection`),
    ``execution`` (:class:`~repro.config.ExecutionConfig`, inline or a path
    to the classic execution file), optional ``faults``
    (:class:`FaultsSection`), ``data`` (:class:`DataSection`), and at most
    one of ``sweep`` (:class:`SweepSection`) or ``calibration``
    (:class:`CalibrationSection`).

    Examples
    --------
    >>> from repro.scenarios import ScenarioPack
    >>> pack = ScenarioPack.from_dict({
    ...     "name": "tiny",
    ...     "grid": {"kind": "synthetic", "sites": 2, "seed": 1},
    ...     "workload": {"jobs": 20, "seed": 7},
    ...     "execution": {"plugin": "least_loaded"},
    ... })
    >>> pack.name
    'tiny'
    """

    name: str = declare("Unique pack name (the scenario registry key).", non_empty=True)
    title: str = declare("One-line human title.", default="", publish_default=False)
    description: str = declare(
        "Free-form description of the study.", default="", publish_default=False)
    tags: List[str] = declare("Free-form labels for filtering pack listings.",
                              default_factory=list, publish_default=False)
    grid: GridSection = declare(default_factory=GridSection)
    workload: WorkloadSection = declare(default_factory=WorkloadSection)
    execution: ExecutionConfig = declare(
        default_factory=ExecutionConfig,
        schema={
            "anyOf": [{"$ref": "#/$defs/execution"},
                      typed_schema("string", "Path to a classic execution config file.")],
            "description": "Execution parameters, inline or as a file reference.",
        })
    faults: Optional[FaultsSection] = declare(default=None)
    data: Optional[DataSection] = declare(default=None)
    calibration: Optional[CalibrationSection] = declare(default=None)
    sweep: Optional[SweepSection] = declare(default=None)
    #: Path of the file this pack was loaded from (``None`` for in-memory
    #: packs); relative file references inside the pack resolve against it.
    source_path: Optional[Path] = field(default=None, init=False)

    def _calibration_or_sweep(self, ctx: str) -> None:
        if self.calibration is not None and self.sweep is not None:
            fail(ctx, "'calibration' and 'sweep' are mutually exclusive", "sweep")

    def _calibration_runs_bare(self, ctx: str) -> None:
        if self.calibration is not None and (self.faults or self.data):
            fail(ctx, "calibration packs do not support 'faults' or 'data' sections",
                 "calibration")

    RULES = [
        (
            _calibration_or_sweep,
            {
                "not": {"properties": {"calibration": {"type": "object"},
                                       "sweep": {"type": "object"}},
                        "required": ["calibration", "sweep"]},
                "$comment": "'calibration' and 'sweep' are mutually exclusive",
            },
        ),
        (
            _calibration_runs_bare,
            {
                "if": {"properties": {"calibration": {"type": "object"}},
                       "required": ["calibration"]},
                "then": {"properties": {"faults": {"type": "null"}, "data": {"type": "null"}},
                         "$comment": "calibration packs do not support 'faults' or 'data'"},
            },
        ),
    ]

    @classmethod
    def from_dict(
        cls,
        data: Any,
        source: Optional[Path] = None,
    ) -> "ScenarioPack":
        """Validate a parsed pack mapping into a :class:`ScenarioPack`.

        Raises :class:`ConfigurationError` naming the pack and the offending
        field for every schema violation.  When the pack declares a sweep,
        every axis value is dry-applied and re-validated, so a bad value in
        the middle of an axis list is reported up front.
        """
        data = require_mapping(data, "scenario pack")
        name = data.get("name")
        if not name or not isinstance(name, str):
            where = f" ({source})" if source else ""
            raise ConfigurationError(
                f"scenario pack{where}: 'name' is required and must be a string"
                " (at /name)"
            )
        fields = data
        if isinstance(data.get("execution"), str):
            from repro.config.loaders import load_execution

            base = source.parent if source else Path.cwd()
            fields = {**data, "execution": load_execution(_resolve(base, data["execution"]))}
        pack = load(cls, fields, Ctx(f"scenario pack {name!r}"))
        pack.source_path = Path(source) if source is not None else None
        if pack.sweep is not None:
            pack._validate_sweep_axes(data)
        return pack

    def _validate_sweep_axes(self, data: dict) -> None:
        """Dry-apply every axis value so a bad one fails at validate time."""
        assert self.sweep is not None
        base = {k: v for k, v in data.items() if k != "sweep"}
        axes_pointer = join_pointer(["sweep", "axes"])
        for path, values in self.sweep.axes.items():
            pointer = axes_pointer + join_pointer([path])
            for index, value in enumerate(values):
                try:
                    candidate = apply_overrides(base, {path: value})
                    ScenarioPack.from_dict(candidate, source=self.source_path)
                except ConfigurationError as exc:
                    raise ConfigurationError(
                        f"scenario pack {self.name!r}: sweep: axis {path!r} "
                        f"value {value!r} is invalid: {exc}"
                        f" (at {pointer + join_pointer([index])})"
                    ) from None

    def with_overrides(self, overrides: Dict[str, Any]) -> "ScenarioPack":
        """Return a revalidated copy with dotted-path ``overrides`` applied.

        >>> from repro.scenarios import ScenarioPack
        >>> pack = ScenarioPack.from_dict({"name": "p", "workload": {"jobs": 10}})
        >>> pack.with_overrides({"workload.jobs": 99}).workload.jobs
        99
        """
        if not overrides:
            return self
        return ScenarioPack.from_dict(
            apply_overrides(self.to_dict(), overrides), source=self.source_path
        )

    def base_dir(self) -> Optional[Path]:
        """Directory that relative file references inside the pack resolve against."""
        return self.source_path.parent if self.source_path is not None else None

    def mode(self) -> str:
        """How this pack executes: ``"single"``, ``"sweep"`` or ``"calibration"``."""
        if self.calibration is not None:
            return "calibration"
        if self.sweep is not None:
            return "sweep"
        return "single"

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips through :meth:`from_dict`)."""
        data: Dict[str, Any] = {"name": self.name}
        if self.title:
            data["title"] = self.title
        if self.description:
            data["description"] = self.description
        if self.tags:
            data["tags"] = list(self.tags)
        data["grid"] = self.grid.to_dict()
        data["workload"] = self.workload.to_dict()
        data["execution"] = self.execution.to_dict()
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        if self.data is not None:
            data["data"] = self.data.to_dict()
        if self.calibration is not None:
            data["calibration"] = self.calibration.to_dict()
        if self.sweep is not None:
            data["sweep"] = self.sweep.to_dict()
        return data

    def to_json(self) -> str:
        """The pack as pretty-printed JSON (what ``repro scenario show`` prints)."""
        return json.dumps(self.to_dict(), indent=2)

    def summary_row(self) -> dict:
        """One row for the ``repro scenario list`` table."""
        return {
            "name": self.name,
            "mode": self.mode(),
            "grid": f"{self.grid.kind}:{self.grid.sites}"
            if self.grid.kind != "files"
            else "files",
            "jobs": self.workload.per_site_jobs or self.workload.jobs,
            "title": self.title or self.description.split("\n")[0][:60],
        }
