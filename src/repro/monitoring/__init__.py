"""Output layer: event-level monitoring, storage back-ends and dashboard.

CGSim's output layer collects results into SQLite databases, supports CSV
export for statistical analysis, and provides a real-time dashboard.  The
monitoring system records both job-level state transitions and site-level
resource dynamics at each timestep (paper Table 1), producing the event-level
dataset that doubles as ML training data.

* :class:`~repro.monitoring.events.EventRecord` -- one Table 1 row.
* :class:`~repro.monitoring.collector.MonitoringCollector` -- hooks called by
  the simulation core on every transition + periodic snapshots.
* :class:`~repro.monitoring.sqlite_store.SQLiteStore` /
  :class:`~repro.monitoring.csv_export.CSVSink` -- persistence back-ends fed
  row tuples in the column order :mod:`repro.monitoring.events` defines.
* :class:`~repro.monitoring.dashboard.Dashboard` -- textual real-time view of
  per-site load (the reproduction of the web dashboard in Figure 5).
"""

from repro.monitoring.collector import MonitoringCollector
from repro.monitoring.csv_export import (
    CSVSink,
    export_events_csv,
    export_jobs_csv,
    export_snapshots_csv,
)
from repro.monitoring.dashboard import Dashboard
from repro.monitoring.events import EventRecord, SiteSnapshot
from repro.monitoring.sqlite_store import SQLiteStore
from repro.monitoring.trace_buffer import TraceBuffer

__all__ = [
    "EventRecord",
    "SiteSnapshot",
    "TraceBuffer",
    "MonitoringCollector",
    "SQLiteStore",
    "CSVSink",
    "export_events_csv",
    "export_jobs_csv",
    "export_snapshots_csv",
    "Dashboard",
]
