"""The synthetic generator's random stream, pinned to its scalar reference.

A job's values depend only on the stream position it starts at, so the
generator may draw a job's file sizes with one ``size=n`` call and hoist
its run constants, but it must produce the very bits the scalar loop below
produced: one ``lognormal`` call per file, added left to right (the draws
are plain ``float`` objects, which the builtin ``sum`` compensates from
CPython 3.12 on, so the loop adds them itself), ``uniform()`` for the
multicore coin, ``np.log`` of each median per job and
a site lookup per job.  That loop is the generator before it drew each job
in one pass; it is kept here as the reference, not in the library.

Also here: Poisson arrivals are plain floats, so the calendar of an
arrival-driven run never holds numpy scalars.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config.generators import generate_grid
from repro.utils.rng import RandomSource
from repro.workload.generator import SyntheticWorkloadGenerator, WorkloadSpec
from repro.workload.patterns import poisson_arrivals

INFRASTRUCTURE, _ = generate_grid(4, seed=3)


def twins(spec, seed):
    """Two generators of one trace: its streams advance as they draw, so the
    library and the reference each need their own."""
    return [SyntheticWorkloadGenerator(INFRASTRUCTURE, spec=spec, seed=seed) for _ in range(2)]


def reference_arrivals(generator, count, start_time):
    """Arrival times of the scalar generator (numpy scalars when Poisson)."""
    spec = generator.spec
    if spec.arrival_rate is None:
        return [start_time] * count
    gaps = RandomSource(generator.seed).generator("poisson-arrivals").exponential(
        1.0 / spec.arrival_rate, size=count
    )
    return list(start_time + np.cumsum(gaps))


def _added_in_order(draws):
    """``0.0 + d0 + d1 + ...`` left to right, on every interpreter (``float(x)``
    keeps numpy scalars of older numpy versions from entering the additions)."""
    total = 0.0
    for draw in draws:
        total += float(draw)
    return total


def reference_job(generator, gen, site_name, submission_time):
    """The static fields of one job, drawn one scalar at a time."""
    spec = generator.spec
    multicore = gen.uniform() < spec.multicore_fraction
    cores = spec.multicore_cores if multicore else 1
    median = spec.walltime_median
    if cores > 1:
        median *= spec.multicore_walltime_factor
    true_walltime = float(gen.lognormal(np.log(median), spec.walltime_sigma))
    noise = 1.0
    if spec.walltime_noise_sigma > 0:
        noise = float(gen.lognormal(0.0, spec.walltime_noise_sigma))
    site = generator.infrastructure.site(site_name)
    work = true_walltime * (site.core_speed * generator.true_speed_bias[site_name]) * cores * noise
    input_files = int(gen.poisson(spec.mean_input_files))
    output_files = int(gen.poisson(spec.mean_output_files))
    input_size = _added_in_order(
        gen.lognormal(np.log(spec.mean_file_size), 0.8) for _ in range(input_files)
    )
    output_size = _added_in_order(
        gen.lognormal(np.log(spec.mean_file_size), 0.8) for _ in range(output_files)
    )
    queue_time = float(gen.exponential(900.0))
    return {
        "work": work, "cores": cores, "memory": spec.memory_per_core * cores,
        "submission_time": submission_time, "input_files": input_files,
        "output_files": output_files, "input_size": input_size, "output_size": output_size,
        "target_site": site_name, "true_walltime": true_walltime,
        "true_queue_time": queue_time, "task_id": None,
    }


def reference_generate(generator, count, start_time):
    gen = generator.rng.generator("jobs")
    site_names = generator.infrastructure.site_names
    site_indices = gen.choice(len(site_names), size=count, p=generator._site_probabilities)
    arrivals = reference_arrivals(generator, count, start_time)
    jobs = [
        reference_job(generator, gen, site_names[int(site_indices[i])], arrivals[i])
        for i in range(count)
    ]
    for index, job in enumerate(jobs):
        job["trace_index"] = index
    return jobs


def reference_generate_for_site(generator, site_name, count, start_time):
    gen = generator.rng.generator(f"jobs:{site_name}")
    arrivals = reference_arrivals(generator, count, start_time)
    jobs = [reference_job(generator, gen, site_name, arrivals[i]) for i in range(count)]
    for index, job in enumerate(jobs):
        job["trace_index"] = f"{site_name}:{index}"
    return jobs


FIELDS = ("work", "cores", "memory", "submission_time", "input_files", "output_files",
          "input_size", "output_size", "target_site", "true_walltime", "true_queue_time",
          "task_id")


def bits(value):
    """A float as its exact hex (type-blind: np.float64 and float agree); else itself."""
    return value.hex() if isinstance(value, float) else value


def static(job):
    record = {name: bits(getattr(job, name)) for name in FIELDS}
    record["trace_index"] = job.attributes["trace_index"]
    return record


def expected(records):
    return [{name: bits(value) for name, value in record.items()} for record in records]


specs = st.builds(
    WorkloadSpec,
    multicore_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    multicore_cores=st.integers(2, 16),
    walltime_median=st.floats(60.0, 1e5),
    walltime_sigma=st.floats(0.0, 1.5),
    multicore_walltime_factor=st.floats(0.5, 3.0),
    mean_input_files=st.floats(0.0, 30.0),
    mean_output_files=st.floats(0.0, 30.0),
    mean_file_size=st.floats(1e3, 1e10),
    arrival_rate=st.one_of(st.none(), st.floats(1e-3, 10.0)),
    walltime_noise_sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)


class TestStreamMatchesScalarReference:
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(0, 40), spec=specs,
           start_time=st.sampled_from([0.0, 3600.0]))
    @example(seed=1, count=40, spec=WorkloadSpec(mean_input_files=30.0, mean_output_files=30.0),
             start_time=0.0)
    @settings(max_examples=60, deadline=None)
    def test_generate(self, seed, count, spec, start_time):
        generator, reference = twins(spec, seed)
        jobs = generator.generate(count, start_time=start_time)
        assert [static(job) for job in jobs] == expected(
            reference_generate(reference, count, start_time)
        )

    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(0, 40), spec=specs,
           site=st.sampled_from(INFRASTRUCTURE.site_names))
    @settings(max_examples=60, deadline=None)
    def test_generate_for_site(self, seed, count, spec, site):
        generator, reference = twins(spec, seed)
        jobs = generator.generate_for_site(site, count, start_time=5.0)
        assert [static(job) for job in jobs] == expected(
            reference_generate_for_site(reference, site, count, 5.0)
        )

    def test_many_files_a_job_are_summed_in_order(self):
        """Twenty-plus files a job: a pairwise sum would round differently here."""
        spec = WorkloadSpec(mean_input_files=25.0, mean_output_files=25.0)
        generator, reference = twins(spec, 11)
        jobs = generator.generate(200)
        assert min(job.input_files for job in jobs) >= 8
        assert [static(job) for job in jobs] == expected(reference_generate(reference, 200, 0.0))

    def test_no_files_leave_log_of_a_zero_size_untaken(self):
        """np.log(0) warns (an error here): a spec that never draws a file never takes it."""
        spec = WorkloadSpec(mean_input_files=0.0, mean_output_files=0.0, mean_file_size=0.0)
        jobs = SyntheticWorkloadGenerator(INFRASTRUCTURE, spec=spec, seed=2).generate(50)
        assert {(job.input_size, job.output_size) for job in jobs} == {(0.0, 0.0)}


class TestArrivalsArePlainFloats:
    @pytest.mark.parametrize("count,rate,start", [(0, 1.0, 0.0), (1, 0.5, 7.0), (300, 0.02, 0.0)])
    def test_values_equal_the_cumulative_gaps(self, count, rate, start):
        arrivals = poisson_arrivals(count, rate, start=start, seed=4)
        gaps = RandomSource(4).generator("poisson-arrivals").exponential(1.0 / rate, size=count)
        assert all(type(value) is float for value in arrivals)
        assert arrivals == list(start + np.cumsum(gaps))

    def test_generated_submission_times_are_floats(self):
        spec = WorkloadSpec(arrival_rate=0.1)
        jobs = SyntheticWorkloadGenerator(INFRASTRUCTURE, spec=spec, seed=1).generate(30)
        assert all(type(job.submission_time) is float for job in jobs)

    def test_calendar_time_stays_float_through_an_arrival_driven_run(self):
        """A policy_stream-shaped run: panda jobs arriving as a Poisson stream on
        the WLCG grid under panda_dispatcher, with event rows and snapshots."""
        from repro.scenarios.runner import _build_simulator
        from repro.scenarios.schema import ScenarioPack

        pack = ScenarioPack.from_dict({
            "name": "arrival-stream",
            "grid": {"kind": "wlcg", "sites": 10},
            "workload": {"generator": "panda", "jobs": 60, "seed": 3,
                         "spec": {"arrival_rate": 0.02, "walltime_median": 900.0,
                                  "walltime_sigma": 0.3}},
            "execution": {"plugin": "panda_dispatcher", "seed": 3,
                          "monitoring": {"enable_events": True, "snapshot_interval": 300.0}},
        })
        simulator, jobs = _build_simulator(pack)
        session = simulator.session(jobs)
        seen = set()
        while not session.done and session.now < jobs[len(jobs) // 2].submission_time:
            session.step()
            seen.add(type(session.env.now))
        assert 0.0 < session.now < jobs[-1].submission_time
        assert seen == {float}
