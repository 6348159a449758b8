"""Fault injection: job failures, site outages and retry behaviour.

Production grids lose jobs -- worker nodes die, storage hiccups, sites drain
for maintenance -- and *job failure rate* is one of the operational metrics
the paper lists as a primary output of the monitoring data (Section 1).  This
package provides the pieces needed to study those effects in simulation:

* :class:`~repro.faults.models.JobFailureModel` -- per-site probabilities
  that a job fails partway through execution (deterministic per seed/job);
* :class:`~repro.faults.models.SiteOutageModel` -- per-site outage schedules
  (mean time between failures / mean time to repair), realised as concrete
  downtime windows;
* :class:`~repro.faults.injector.FaultInjector` -- the runtime process that
  applies an outage schedule to the live site runtimes of a simulation.

Job-level failures are consulted by the site runtime during execution; the
main server optionally retries failed jobs (``ExecutionConfig.max_retries``),
mirroring PanDA's automatic resubmission behaviour.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.models import JobFailureModel, OutageWindow, SiteOutageModel

__all__ = [
    "JobFailureModel",
    "SiteOutageModel",
    "OutageWindow",
    "FaultInjector",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.models": ("JobFailureModel", "OutageWindow", "SiteOutageModel"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
