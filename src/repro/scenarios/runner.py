"""Execute scenario packs end-to-end.

:func:`run_scenario_pack` is the single front door behind ``repro scenario
run``: hand it a pack (or its registry name) and it builds the grid, the
workload and the fault/data models, then executes whichever study the pack
declares --

* a **single run** through :class:`repro.core.Simulator`;
* a **sweep**: every axis combination x replication becomes one
  :class:`~repro.experiments.spec.RunSpec` fanned across worker processes by
  :class:`~repro.experiments.runner.SweepRunner`, with per-replicate seeds
  derived via :func:`repro.utils.rng.derive_seed` (replicate 0 keeps the
  pack's base seeds, so a one-replication sweep reproduces the single-run
  numbers exactly);
* a **calibration** study through :class:`repro.calibration.GridCalibrator`.

Every mode returns a :class:`ScenarioOutcome` that renders itself with the
existing metric/sweep/calibration tables.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.metrics import SimulationMetrics
from repro.core.session import SimulationSession
from repro.core.simulator import SimulationResult, Simulator
from repro.scenarios.schema import ScenarioPack, apply_overrides
from repro.utils.errors import CGSimError
from repro.utils.rng import derive_seed
from repro.workload.job import JobState

if TYPE_CHECKING:
    # Sweeps alone use these; a single run or a served session never does.
    from repro.experiments.runner import SweepResult
    from repro.experiments.spec import RunResult, RunSpec

__all__ = ["ScenarioOutcome", "run_scenario_pack", "sweep_specs", "execute_scenario_spec"]


def _build_simulator(pack: ScenarioPack) -> Tuple[Simulator, List]:
    """Cold build: the pack's grid, its materialised workload, and the wiring."""
    infrastructure, topology = pack.grid.build(pack.base_dir())
    jobs = _materialise_jobs(pack, infrastructure)
    return _wire_simulator(pack, infrastructure, topology, jobs), jobs


def _simulator_for_jobs(pack: ScenarioPack, jobs: List) -> Simulator:
    """The pack's grid and wiring around ``jobs``, which are never generated here.

    A restore passes the blob's wave 0: those jobs already carry the
    ``dataset`` attribute and ``target_site`` :func:`_materialise_jobs` gave
    the original run, which is all the data wiring reads.
    """
    infrastructure, topology = pack.grid.build(pack.base_dir())
    return _wire_simulator(pack, infrastructure, topology, jobs)


def _materialise_jobs(pack: ScenarioPack, infrastructure) -> List:
    """Generate (or load) the pack's workload and assign each job its dataset."""
    jobs = pack.workload.build(infrastructure, pack.base_dir())
    data = pack.data
    if data is None:
        return jobs
    names = sorted(data.dataset_catalog())
    if data.assignment == "zipf":
        import numpy as np

        from repro.utils.rng import RandomSource

        ranks = np.arange(1, len(names) + 1, dtype=float)
        weights = ranks ** -data.zipf_exponent
        weights /= weights.sum()
        generator = RandomSource(data.seed).generator("dataset-assignment")
        draws = generator.choice(len(names), size=len(jobs), p=weights)
        for job, draw in zip(jobs, draws):
            job.attributes["dataset"] = names[int(draw)]
    else:
        for index, job in enumerate(jobs):
            job.attributes["dataset"] = names[index % len(names)]
    return jobs


def _wire_simulator(pack: ScenarioPack, infrastructure, topology, jobs: List) -> Simulator:
    """A simulator for ``jobs`` on the given grid, with the pack's fault and data wiring."""
    failure_model = None
    outages: List = []
    if pack.faults is not None:
        failure_model, outages = pack.faults.build(infrastructure.site_names)

    build_hook = None
    enable_data_transfers = False
    data_cache = None
    if pack.data is not None:
        data = pack.data
        catalog_sizes = data.dataset_catalog()
        site_names = list(infrastructure.site_names)
        enable_data_transfers = True
        if data.cache is not None:
            data_cache = data.cache.build_spec()

        def build_hook(simulator: Simulator) -> None:
            if data_cache is None:
                from repro.atlas.rucio import RucioCatalog

                catalog = RucioCatalog(simulator.data_manager, seed=data.seed)
                catalog.place_datasets(
                    catalog_sizes, site_names, replication_factor=data.replication_factor
                )
                return
            # Cache-aware runs: the configured replication strategy places
            # the pinned replicas of record, then an optional prewarm fills
            # each site's cache with the datasets its jobs will read.
            from repro.data.replication import PlacementContext

            demand: Dict[str, Dict[str, int]] = {}
            for job in jobs:
                dataset = job.attributes.get("dataset")
                if dataset is None or not job.target_site:
                    continue
                per_site = demand.setdefault(str(dataset), {})
                per_site[job.target_site] = per_site.get(job.target_site, 0) + 1
            strategy = data_cache.build_strategy(default_copies=data.replication_factor)
            context = PlacementContext(
                sites=site_names,
                platform=simulator.platform,
                demand=demand,
                seed=data.seed,
            )
            placement = strategy.place(catalog_sizes, context)
            for dataset in sorted(placement):
                for site in placement[dataset]:
                    simulator.data_manager.register_replica(
                        dataset, site, catalog_sizes[dataset]
                    )
            if data_cache.prewarm:
                simulator.data_manager.prewarm(_prewarm_pairs(jobs, site_names))

    simulator = Simulator(
        infrastructure,
        topology,
        pack.execution,
        failure_model=failure_model,
        outages=outages,
        enable_data_transfers=enable_data_transfers,
        data_cache=data_cache,
    )
    if build_hook is not None:
        simulator.on_build(build_hook)
    return simulator


def _prewarm_pairs(jobs: List, site_names: List[str]) -> List[Tuple[str, str]]:
    """Deterministic (dataset, site) prewarm pairs derived from the workload.

    Each job's dataset is warmed at the site the job targets; jobs without a
    recorded target round-robin over the grid so prewarming still covers
    synthetic workloads.  Duplicates are dropped preserving first-seen order.
    """
    pairs: List[Tuple[str, str]] = []
    seen = set()
    for index, job in enumerate(jobs):
        dataset = job.attributes.get("dataset")
        if dataset is None:
            continue
        site = job.target_site or site_names[index % len(site_names)]
        pair = (str(dataset), site)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def _reliability_extras(original_jobs: List, result: SimulationResult) -> Dict[str, float]:
    """Attempt/loss bookkeeping for fault studies (matches the paper's framing)."""
    succeeded_originals = {
        int(job.attributes.get("retry_of", job.job_id))
        for job in result.jobs
        if job.state is JobState.FINISHED
    }
    original_ids = {int(job.job_id) for job in original_jobs}
    wasted_core_hours = (
        sum(
            (job.walltime or 0.0) * job.cores
            for job in result.jobs
            if job.state is JobState.FAILED
        )
        / 3600.0
    )
    return {
        "attempts": float(len(result.jobs)),
        "lost_jobs": float(len(original_ids - succeeded_originals)),
        "wasted_core_hours": wasted_core_hours,
    }


def _data_extras(simulator: Simulator) -> Dict[str, float]:
    """WAN-traffic and cache bookkeeping for data-placement studies.

    Always reports the WAN transfer count/volume; cache-aware runs add the
    aggregate cache counters (``cache_hit_rate``, ``cache_evictions``, ...)
    plus flat per-site keys (``cache_hit_rate[SITE]``,
    ``cache_evictions[SITE]``) so sweep packs can select any of them as
    table metrics.
    """
    data_manager = simulator.data_manager
    transfers = data_manager.transfer_log
    summary = data_manager.cache_summary()
    wan_bytes = summary.get("bytes_wan") if summary else sum(
        t["size"] for t in transfers if t["source"] != t["destination"]
    )
    extras = {
        "wan_transfers": float(len(transfers)),
        "wan_terabytes": wan_bytes / 1e12,
    }
    extras.update(summary)
    for site, stats in sorted(data_manager.cache_stats().items()):
        extras[f"cache_hit_rate[{site}]"] = stats.hit_rate
        extras[f"cache_evictions[{site}]"] = float(stats.evictions)
    return extras


def _resume_pack_session(
    pack: ScenarioPack, pack_dict: Dict[str, Any], checkpoint_dir: Path
) -> Optional[SimulationSession]:
    """Restore the pack's session from ``checkpoint_dir/latest.ckpt`` if it matches.

    The blob is read and decoded once.  Its embedded pack dict must equal
    this run's (overrides included) -- a blob from a different pack or
    configuration is ignored and the study starts cold rather than silently
    resuming the wrong run.  The simulator is wired by
    :func:`_simulator_for_jobs` around the blob's own wave 0, which
    re-registers the pack's build hooks (replica placement) the checkpoint
    itself cannot carry; the workload is not generated again.
    """
    from repro.state import decode_checkpoint

    latest = checkpoint_dir / "latest.ckpt"
    if not latest.exists():
        return None
    payload = decode_checkpoint(latest.read_bytes())
    extra = payload.get("extra") or {}
    if extra.get("scenario_pack") != pack_dict:
        return None
    wave0 = payload["waves"][0]
    return SimulationSession._restore_payload(
        lambda: _simulator_for_jobs(pack, wave0), payload
    )


def _run_single(
    pack: ScenarioPack,
    progress: Optional[Callable[[SimulationSession], None]] = None,
    progress_interval: float = 60.0,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: Optional[float] = None,
) -> Tuple[SimulationMetrics, Dict[str, float], SimulationResult]:
    """One simulation run of a (sweep-free) pack, executed through a session.

    The session lifecycle is what gives packs their ``execution.stop``
    semantics (early termination on simulated-time budgets, job counts or
    metric predicates -- the ``stopped_reason`` lands in the outcome) and,
    when ``progress`` is given, live observation: the callback receives the
    running session every ``progress_interval`` simulated seconds.

    ``checkpoint_dir`` makes the study crash-resumable: checkpoint blobs
    (stamped with the pack's canonical dict) are written there every
    ``checkpoint_every`` simulated seconds, and an existing matching
    ``latest.ckpt`` is restored instead of starting cold.
    """
    session: Optional[SimulationSession] = None
    pack_dict = pack.to_dict()
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        session = _resume_pack_session(pack, pack_dict, checkpoint_dir)
    if session is None:
        simulator, jobs = _build_simulator(pack)
        session = simulator.session(jobs)
    else:
        simulator = session.simulator
    # The first wave (the session replays it on restore) is the original
    # workload the reliability extras compare terminal attempts against.
    original_jobs = session.jobs
    if progress is not None:
        session.on_progress(progress_interval, lambda _snapshot: progress(session))
    try:
        if checkpoint_dir is not None:
            from repro.state import drive_with_checkpoints

            drive_with_checkpoints(
                session,
                checkpoint_dir,
                every=checkpoint_every,
                extra={
                    "scenario_pack": pack_dict,
                    "scenario_source": (
                        str(pack.source_path) if pack.source_path else None
                    ),
                },
            )
            result = session.finalize()
        else:
            result = session.advance_to_completion().finalize()
    except BaseException:
        # Nobody resumes this session in-process: keep run()'s historical
        # contract of not leaking open streaming-sink handles out of a
        # crashed run (sweep workers record the error and keep executing
        # trials).  With a checkpoint directory the run is still resumable
        # from its last written blob.
        simulator._close_live_sinks()
        raise
    extras: Dict[str, float] = {}
    if pack.faults is not None or pack.execution.max_retries:
        extras.update(_reliability_extras(original_jobs, result))
    if pack.data is not None:
        extras.update(_data_extras(simulator))
    return result.metrics, extras, result


def _replicate_seed_overrides(pack: ScenarioPack, spec: RunSpec) -> Dict[str, Any]:
    """Derived-seed overrides for replicate > 0 (replicate 0 keeps base seeds).

    The grid and data-placement seeds stay fixed across replicates -- as in
    :func:`repro.experiments.runner.execute_run`, replication measures
    workload/fault variance on a fixed infrastructure.
    """
    overrides: Dict[str, Any] = {
        "workload.seed": derive_seed(
            pack.workload.seed, spec.scenario, spec.replicate, "workload"
        ),
        "execution.seed": derive_seed(
            pack.execution.seed, spec.scenario, spec.replicate, "execution"
        ),
    }
    if pack.faults is not None and pack.faults.job_failures is not None:
        base = int(pack.faults.job_failures.get("seed", 0))
        overrides["faults.job_failures.seed"] = derive_seed(
            base, spec.scenario, spec.replicate, "faults"
        )
    if pack.faults is not None and pack.faults.outage_model is not None:
        base = int(pack.faults.outage_model.get("seed", 0))
        overrides["faults.outage_model.seed"] = derive_seed(
            base, spec.scenario, spec.replicate, "outages"
        )
    return overrides


def execute_scenario_spec(spec: RunSpec) -> RunResult:
    """Picklable sweep entry point: one axis-combination x replicate run.

    ``spec.params`` carries the sweep-free pack mapping, the axis overrides
    and the pack's source path; the worker revalidates and rebuilds
    everything from that data, so a run's outcome depends only on its spec
    (the determinism contract of :mod:`repro.experiments`).
    """
    from repro.experiments.spec import RunResult

    started = time.perf_counter()
    try:
        source = Path(spec.params["source"]) if spec.params.get("source") else None
        data = apply_overrides(spec.params["pack"], spec.params.get("overrides", {}))
        pack = ScenarioPack.from_dict(data, source=source)
        if spec.replicate:
            pack = pack.with_overrides(_replicate_seed_overrides(pack, spec))
        checkpoint_dir = spec.params.get("checkpoint_dir")
        metrics, extras, result = _run_single(
            pack,
            checkpoint_dir=Path(checkpoint_dir) if checkpoint_dir else None,
            checkpoint_every=spec.params.get("checkpoint_every"),
        )
        merged = metrics.to_dict()
        merged.update(extras)
        return RunResult(
            spec=spec,
            metrics=merged,
            simulated_time=result.simulated_time,
            wallclock_seconds=time.perf_counter() - started,
            stopped_reason=result.stopped_reason,
        )
    except Exception as exc:  # noqa: BLE001 - a sweep must record, not crash
        return RunResult(
            spec=spec,
            error=f"{type(exc).__name__}: {exc}",
            error_traceback=traceback.format_exc(),
            wallclock_seconds=time.perf_counter() - started,
        )


def _axis_labels(axes: List[str]) -> Dict[str, str]:
    """Short display name per axis: the path's leaf, unless leaves collide."""
    leaves = [path.split(".")[-1] for path in axes]
    return {
        path: leaf if leaves.count(leaf) == 1 else path
        for path, leaf in zip(axes, leaves)
    }


def _spec_checkpoint_dir(base: Path, scenario: str, replicate: int) -> str:
    """Per-spec checkpoint subdirectory: ``<base>/<sanitized scenario>/r<n>``.

    Each axis combination x replicate gets its own directory so its
    ``latest.ckpt`` can only ever be matched -- and resumed -- by the same
    combination: the provenance guard in :func:`_resume_pack_session`
    compares the blob's embedded pack dict against the *overridden* per-spec
    pack, so even a blob planted in the wrong subdirectory starts the run
    cold instead of replaying a different combination.
    """
    safe = "".join(c if c.isalnum() or c in "=.-" else "_" for c in scenario)
    return str(Path(base) / (safe or "scenario") / f"r{replicate}")


def sweep_specs(
    pack: ScenarioPack,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: Optional[float] = None,
) -> List[RunSpec]:
    """Expand a sweep pack into the concrete :class:`RunSpec` list it runs.

    Scenario names join ``axis=value`` pairs (axis leaf names when
    unambiguous), and every scenario is replicated ``sweep.replications``
    times -- exactly the :func:`repro.experiments.scenario_grid` convention,
    applied to pack paths instead of :class:`RunSpec` fields.  With
    ``checkpoint_dir`` every spec checkpoints into -- and resumes from --
    its own :func:`_spec_checkpoint_dir` subdirectory, making interrupted
    sweeps crash-resumable run by run.
    """
    from repro.experiments.spec import RunSpec

    if pack.sweep is None:
        raise CGSimError(f"scenario pack {pack.name!r} declares no sweep section")
    pack_dict = pack.to_dict()
    pack_dict.pop("sweep", None)
    source = str(pack.source_path) if pack.source_path is not None else None
    labels = _axis_labels(list(pack.sweep.axes))
    specs: List[RunSpec] = []
    for combo in pack.sweep.combinations():
        scenario = ",".join(f"{labels[path]}={value}" for path, value in combo.items())
        for replicate in range(pack.sweep.replications):
            params = {"pack": pack_dict, "overrides": dict(combo), "source": source}
            if checkpoint_dir is not None:
                params["checkpoint_dir"] = _spec_checkpoint_dir(
                    checkpoint_dir, scenario, replicate
                )
                params["checkpoint_every"] = checkpoint_every
            specs.append(
                RunSpec(
                    scenario=scenario,
                    replicate=replicate,
                    seed=pack.workload.seed,
                    params=params,
                )
            )
    return specs


@dataclass
class ScenarioOutcome:
    """What running a scenario pack produced, in whichever mode it declared.

    ``mode`` is ``"single"`` (``metrics``/``extras`` hold the run),
    ``"sweep"`` (``sweep`` holds the per-run results and aggregates) or
    ``"calibration"`` (``calibration`` holds the per-site report).
    ``stopped_reason`` is set when a single-mode run ended early through a
    pack ``execution.stop`` condition (sweep runs carry theirs on each
    :class:`~repro.experiments.spec.RunResult`).
    :meth:`render` returns the text view ``repro scenario run`` prints, and
    :meth:`to_dict` the JSON written by ``--output``.
    """

    pack: ScenarioPack
    mode: str
    metrics: Optional[SimulationMetrics] = None
    extras: Dict[str, float] = field(default_factory=dict)
    simulated_time: float = 0.0
    sweep: Optional[SweepResult] = None
    calibration: Optional[object] = None  # CalibrationReport (import kept lazy)
    wallclock_seconds: float = 0.0
    stopped_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether every run of the scenario completed successfully."""
        if self.mode == "sweep":
            assert self.sweep is not None
            return not self.sweep.failed
        return True

    def scenario_metrics(self, scenario: Optional[str] = None) -> Dict[str, float]:
        """Flat metrics mapping (grid metrics + extras) of a single-run pack,
        or of one named sweep scenario's first replicate."""
        if self.mode == "single":
            assert self.metrics is not None
            merged = dict(self.metrics.to_dict())
            merged.update(self.extras)
            return merged
        if self.mode == "sweep":
            assert self.sweep is not None
            for result in self.sweep.ok:
                if scenario is None or result.spec.scenario == scenario:
                    assert result.metrics is not None
                    return dict(result.metrics)
            raise CGSimError(f"no successful run for scenario {scenario!r}")
        raise CGSimError("calibration outcomes have no simulation metrics")

    def _sweep_cache_rows(self) -> List[Dict[str, Any]]:
        """Per-site cache rows of each sweep scenario's first replicate.

        Built from the flat ``cache_hit_rate[SITE]`` / ``cache_evictions[SITE]``
        keys :func:`_data_extras` records; empty for cache-less sweeps.
        """
        assert self.sweep is not None
        rows: List[Dict[str, Any]] = []
        for result in self.sweep.ok:
            if result.spec.replicate or result.metrics is None:
                continue
            for key in result.metrics:
                if not (key.startswith("cache_hit_rate[") and key.endswith("]")):
                    continue
                site = key[len("cache_hit_rate["):-1]
                rows.append(
                    {
                        "scenario": result.spec.scenario,
                        "site": site,
                        "cache_hit_rate": result.metrics[key],
                        "cache_evictions": result.metrics.get(
                            f"cache_evictions[{site}]", 0.0
                        ),
                    }
                )
        return rows

    def render(self) -> str:
        """Human-readable report (the ``repro scenario run`` output)."""
        from repro.analysis.reporting import format_table, metrics_table

        lines: List[str] = []
        if self.mode == "single":
            assert self.metrics is not None
            if self.stopped_reason is not None:
                lines.append(f"stopped early: {self.stopped_reason}")
                lines.append("")
            lines.append(metrics_table(self.metrics))
            if self.metrics.cache_per_site:
                from repro.analysis.reporting import cache_table

                lines.append("")
                lines.append("per-site cache (hit rate, evictions, bytes by tier):")
                lines.append(cache_table(self.metrics))
            if self.extras:
                lines.append("")
                lines.append(
                    format_table(
                        [{"extra": key, "value": value} for key, value in self.extras.items()]
                    )
                )
        elif self.mode == "sweep":
            assert self.sweep is not None and self.pack.sweep is not None
            lines.append(self.sweep.table(self.pack.sweep.metrics))
            cache_rows = self._sweep_cache_rows()
            if cache_rows:
                lines.append("")
                lines.append("per-site cache hit rate / evictions (replicate 0):")
                lines.append(format_table(cache_rows))
            lines.append(
                f"\n{len(self.sweep.ok)}/{len(self.sweep)} runs succeeded on "
                f"{self.sweep.n_workers} worker(s) "
                f"in {self.sweep.wallclock_seconds:.2f} s wall-clock"
            )
        else:
            assert self.calibration is not None
            import json as _json

            lines.append(format_table([r.to_row() for r in self.calibration.sites]))
            lines.append("")
            lines.append(_json.dumps(self.calibration.summary(), indent=2))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly representation of the whole outcome."""
        data: Dict[str, Any] = {
            "pack": self.pack.name,
            "mode": self.mode,
            "wallclock_seconds": self.wallclock_seconds,
        }
        if self.mode == "single":
            assert self.metrics is not None
            data["metrics"] = self.metrics.to_dict()
            data["extras"] = dict(self.extras)
            data["simulated_time"] = self.simulated_time
            if self.stopped_reason is not None:
                data["stopped_reason"] = self.stopped_reason
        elif self.mode == "sweep":
            assert self.sweep is not None
            data["sweep"] = self.sweep.to_dict()
        else:
            assert self.calibration is not None
            data["calibration"] = {
                "sites": [r.to_row() for r in self.calibration.sites],
                "summary": self.calibration.summary(),
            }
        return data


def run_scenario_pack(
    pack: Union[ScenarioPack, str],
    workers: Optional[int] = None,
    overrides: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[SimulationSession], None]] = None,
    progress_interval: float = 60.0,
    checkpoint_dir: Optional[Path] = None,
    checkpoint_every: Optional[float] = None,
) -> ScenarioOutcome:
    """Run a scenario pack (by object or registry name) end-to-end.

    ``workers`` overrides the pack's worker count for sweep/calibration
    parallelism (``0`` means one per CPU); ``overrides`` are dotted-path
    pack overrides applied -- and revalidated -- before anything runs.
    ``progress`` (single-run packs only) is called with the live
    :class:`~repro.core.session.SimulationSession` every
    ``progress_interval`` simulated seconds -- the hook behind
    ``repro scenario run --progress``.  ``checkpoint_dir`` (single-run packs
    only) makes the study crash-resumable: blobs land there every
    ``checkpoint_every`` simulated seconds and a matching ``latest.ckpt``
    is resumed instead of starting cold -- the hook behind
    ``repro scenario run --checkpoint-dir``.

    >>> from repro.scenarios import run_scenario_pack
    >>> outcome = run_scenario_pack(
    ...     "wlcg-baseline",
    ...     overrides={"grid.sites": 4, "workload.jobs": 40,
    ...                "sweep.axes": {"execution.plugin": ["round_robin"]}},
    ... )
    >>> outcome.mode
    'sweep'
    """
    if isinstance(pack, str):
        from repro.scenarios.registry import get_scenario_pack

        pack = get_scenario_pack(pack)
    if overrides:
        pack = pack.with_overrides(overrides)

    started = time.perf_counter()
    if pack.calibration is not None:
        from repro.calibration import GridCalibrator

        base_dir = pack.base_dir()
        infrastructure, _ = pack.grid.build(base_dir)
        jobs = pack.workload.build(infrastructure, base_dir)
        calibrator = GridCalibrator(
            infrastructure,
            jobs,
            optimizer=pack.calibration.optimizer,
            budget=pack.calibration.budget,
            mode=pack.calibration.mode,
            seed=pack.calibration.seed,
            min_jobs_per_site=pack.calibration.min_jobs_per_site,
        )
        from repro.experiments.runner import default_workers

        n_workers = pack.calibration.workers if workers is None else workers
        report = calibrator.calibrate(n_workers=n_workers or default_workers())
        return ScenarioOutcome(
            pack=pack,
            mode="calibration",
            calibration=report,
            wallclock_seconds=time.perf_counter() - started,
        )

    if pack.sweep is not None:
        from repro.experiments.runner import SweepRunner

        n_workers = pack.sweep.workers if workers is None else workers
        runner = SweepRunner(run_fn=execute_scenario_spec, n_workers=n_workers or None)
        sweep = runner.run(
            sweep_specs(
                pack, checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every
            )
        )
        return ScenarioOutcome(
            pack=pack,
            mode="sweep",
            sweep=sweep,
            wallclock_seconds=time.perf_counter() - started,
        )

    metrics, extras, result = _run_single(
        pack,
        progress=progress,
        progress_interval=progress_interval,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    return ScenarioOutcome(
        pack=pack,
        mode="single",
        metrics=metrics,
        extras=extras,
        simulated_time=result.simulated_time,
        wallclock_seconds=time.perf_counter() - started,
        stopped_reason=result.stopped_reason,
    )
