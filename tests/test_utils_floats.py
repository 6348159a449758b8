"""Float reductions add in order on every interpreter (repro.utils.floats)."""

import math

from repro.core.metrics import compute_metrics
from repro.platform.link import Link
from repro.platform.routing import Route
from repro.utils.floats import ordered_sum
from repro.workload.job import Job, JobState

#: In order, each 1.0 is lost against 1e16 (ties round to even); a compensated
#: sum -- the builtin ``sum()`` of floats from CPython 3.12 on -- keeps both.
ADDENDS = [1e16, 1.0, 1.0]


def test_adds_left_to_right_where_a_compensated_sum_does_not():
    assert ordered_sum(ADDENDS) == (0.0 + 1e16) + 1.0 + 1.0 == 1e16
    assert math.fsum(ADDENDS) == 1e16 + 2.0  # the lists differ: this one tells them apart


def test_empty_and_single():
    assert ordered_sum([]) == 0.0 and isinstance(ordered_sum([]), float)
    assert ordered_sum(iter([2.5])) == 2.5
    assert ordered_sum([-0.0]) == 0.0


def test_core_seconds_are_added_in_order():
    jobs = []
    for walltime in ADDENDS:
        job = Job(work=1.0, job_id=len(jobs) + 1)
        job.advance(JobState.ASSIGNED, 0.0, site="A")
        job.advance(JobState.RUNNING, 0.0)
        job.advance(JobState.FINISHED, walltime)
        jobs.append(job)
    metrics = compute_metrics(jobs)
    assert metrics.cpu_time == 1e16
    assert metrics.per_site["A"].total_core_seconds == 1e16


def test_route_latency_is_added_in_order():
    links = [Link(f"l{index}", bandwidth=1e9, latency=latency)
             for index, latency in enumerate(ADDENDS)]
    assert Route("A", "B", tuple(links)).latency == 1e16
