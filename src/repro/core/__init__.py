"""Simulation core: the CGSim engine built on the DES kernel.

This package reproduces the paper's simulation core (Section 3.2): the
network topology from the input configuration initialises the simulated grid,
each computing site is a zone containing hosts, and two kinds of actors drive
the workflow:

* the **main server** hosts the *sender* actor
  (:class:`~repro.core.server.MainServer`): it receives workload from the job
  manager, consults the allocation-policy plugin, places jobs into the chosen
  site's queue, and parks unplaceable jobs on a pending list that is revisited
  whenever resources free up;
* every site runs a *receiver* actor (:class:`~repro.core.site.SiteRuntime`)
  that retrieves jobs from its local queue and executes them on the site's
  hosts.

The actors are the paper's; here they are chains of callbacks on the
events the paper's actors would block on, not generator processes, so a
job starts no process anywhere on its path.

:class:`~repro.core.simulator.Simulator` is the user-facing facade tying the
input layer, the platform, the actors, monitoring and the output layer
together; :class:`~repro.core.session.SimulationSession` exposes the same
run as a stepped lifecycle (pause/resume, mid-run submission, live progress,
early stop); :class:`~repro.core.metrics.SimulationMetrics` summarises a
completed run with the metrics the paper reports (walltime, queue time,
throughput, utilisation).
"""

from repro.core.data_manager import DataManager, Replica
from repro.core.job_manager import JobManager
from repro.core.metrics import SimulationMetrics, compute_metrics
from repro.core.server import MainServer
from repro.core.session import SessionProgress, SimulationSession
from repro.core.simulator import SimulationResult, Simulator
from repro.core.site import SiteRuntime

__all__ = [
    "Simulator",
    "SimulationSession",
    "SessionProgress",
    "SimulationResult",
    "MainServer",
    "SiteRuntime",
    "JobManager",
    "DataManager",
    "Replica",
    "SimulationMetrics",
    "compute_metrics",
]
