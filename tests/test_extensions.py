"""Tests for the extension features layered on the core simulator.

Covers the pieces that go beyond the paper's headline experiments but that a
downstream user of the framework relies on: the ``on_build`` seam, the
DCSim-style streaming-I/O execution mode, and the k-nearest-neighbour
surrogate baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.execution import ExecutionConfig, MonitoringConfig
from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.config.topology import LinkConfig, TopologyConfig
from repro.core.simulator import Simulator
from repro.mldata import KNNSurrogate, build_job_dataset
from repro.utils.errors import CGSimError
from repro.workload.job import Job, JobState


@pytest.fixture
def two_site_infrastructure() -> InfrastructureConfig:
    return InfrastructureConfig(
        sites=[
            SiteConfig(name="NEAR", cores=16, core_speed=1e10),
            SiteConfig(name="FAR", cores=16, core_speed=1e10),
        ]
    )


@pytest.fixture
def slow_topology() -> TopologyConfig:
    # A deliberately slow inter-site link so stage-in times are comparable to
    # compute times and the streaming overlap is measurable.
    return TopologyConfig(
        links=[
            LinkConfig(
                name="NEAR--FAR",
                source="NEAR",
                destination="FAR",
                bandwidth=1e7,  # 10 MB/s
                latency=0.05,
            )
        ]
    )


def _quiet(plugin: str = "follow_trace") -> ExecutionConfig:
    return ExecutionConfig(plugin=plugin, monitoring=MonitoringConfig(snapshot_interval=0.0))


def _remote_input_job(compute_seconds: float, input_gb: float) -> Job:
    # Runs at FAR but its input lives at NEAR, so stage-in crosses the slow link.
    return Job(
        work=compute_seconds * 1e10,
        cores=1,
        input_files=1,
        input_size=input_gb * 1e9,
        target_site="FAR",
        attributes={"dataset": "shared_input"},
    )


class TestSetupHook:
    def test_hook_runs_once_with_the_built_simulator(self, two_site_infrastructure):
        seen = []

        def hook(simulator: Simulator) -> None:
            seen.append(
                (
                    sorted(simulator.sites),
                    simulator.platform is not None,
                    simulator.server is not None,
                )
            )

        simulator = Simulator(two_site_infrastructure, execution=_quiet("least_loaded"))
        simulator.on_build(hook)
        simulator.run([Job(work=1e10)])
        assert seen == [(["FAR", "NEAR"], True, True)]

    def test_hook_can_place_replicas_before_any_dispatch(
        self, two_site_infrastructure, slow_topology
    ):
        def hook(simulator: Simulator) -> None:
            simulator.data_manager.register_replica("shared_input", "NEAR", 2e9)

        simulator = Simulator(
            two_site_infrastructure,
            slow_topology,
            _quiet(),
            enable_data_transfers=True,
        )
        simulator.on_build(hook)
        result = simulator.run([_remote_input_job(compute_seconds=10.0, input_gb=2.0)])
        job = result.jobs[0]
        assert job.state is JobState.FINISHED
        # The stage-in crossed the slow link (200 s at 10 MB/s), so the total
        # time is dominated by the transfer, which proves the replica placed
        # by the hook was actually used.
        assert job.total_time > 150.0


class TestStreamingIO:
    def _run(self, infrastructure, topology, streaming: bool) -> Job:
        def hook(simulator: Simulator) -> None:
            simulator.data_manager.register_replica("shared_input", "NEAR", 2e9)

        simulator = Simulator(
            infrastructure,
            topology,
            _quiet(),
            enable_data_transfers=True,
            streaming_io=streaming,
        )
        simulator.on_build(hook)
        result = simulator.run([_remote_input_job(compute_seconds=150.0, input_gb=2.0)])
        assert result.metrics.finished_jobs == 1
        return result.jobs[0]

    def test_streaming_overlaps_transfer_with_compute(
        self, two_site_infrastructure, slow_topology
    ):
        staged = self._run(two_site_infrastructure, slow_topology, streaming=False)
        streamed = self._run(two_site_infrastructure, slow_topology, streaming=True)
        # Staged: ~200 s transfer + 150 s compute; streamed: ~max(200, 150) s.
        assert streamed.total_time < staged.total_time
        assert staged.total_time > 340.0
        assert streamed.total_time < 260.0

    def test_streaming_job_never_finishes_before_its_transfer(
        self, two_site_infrastructure, slow_topology
    ):
        streamed = self._run(two_site_infrastructure, slow_topology, streaming=True)
        transfer_seconds = 2e9 / 1e7  # size / slow-link bandwidth
        assert streamed.walltime >= transfer_seconds * (1 - 1e-9)

    def test_streaming_without_data_manager_is_a_no_op(self, two_site_infrastructure):
        simulator = Simulator(
            two_site_infrastructure,
            execution=_quiet("least_loaded"),
            streaming_io=True,  # no data transfers enabled: flag has no effect
        )
        result = simulator.run([Job(work=1e10)])
        assert result.metrics.finished_jobs == 1
        assert result.jobs[0].walltime == pytest.approx(1.0)


class TestKNNSurrogate:
    @pytest.fixture
    def dataset(self, small_infrastructure, workload_generator):
        execution = ExecutionConfig(
            plugin="least_loaded", monitoring=MonitoringConfig(snapshot_interval=0.0)
        )
        result = Simulator(small_infrastructure, execution=execution).run(
            workload_generator.generate(150)
        )
        return build_job_dataset(result, small_infrastructure)

    def test_knn_learns_walltime(self, dataset):
        train, test = dataset.train_test_split(test_fraction=0.3, seed=0)
        surrogate = KNNSurrogate(k=5).fit(train)
        evaluation = surrogate.evaluate(test)
        # kNN is a coarser baseline than the ridge surrogate (short jobs blow
        # up the relative error), but it must still explain most of the
        # variance of the heavy-tailed walltime distribution.
        assert evaluation.r2 > 0.5
        assert evaluation.relative_mae < 1.0
        assert evaluation.n_samples == len(test)

    def test_exact_match_returns_the_memorised_value(self, dataset):
        surrogate = KNNSurrogate(k=3).fit(dataset)
        predictions = surrogate.predict(dataset.X[:10])
        assert np.allclose(predictions, dataset.walltime[:10], rtol=1e-9)

    def test_unweighted_average_of_neighbours(self, dataset):
        surrogate = KNNSurrogate(k=len(dataset), weighted=False).fit(dataset)
        # With k == n and no weighting, every prediction is the global mean.
        predictions = surrogate.predict(dataset.X[:5])
        assert np.allclose(predictions, dataset.walltime.mean(), rtol=1e-9)

    def test_k_larger_than_dataset_is_clamped(self, dataset):
        surrogate = KNNSurrogate(k=10_000).fit(dataset)
        assert np.isfinite(surrogate.predict(dataset.X[:3])).all()

    def test_validation_errors(self, dataset):
        with pytest.raises(CGSimError):
            KNNSurrogate(k=0)
        with pytest.raises(CGSimError):
            KNNSurrogate(target="latency")
        with pytest.raises(CGSimError):
            KNNSurrogate().predict(dataset.X[:1])  # not fitted
