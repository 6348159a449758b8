#!/usr/bin/env python
"""Data-aware scheduling with a Rucio-like replica catalogue.

The ATLAS ecosystem pairs PanDA (workload management) with Rucio (data
management): where data lives constrains where jobs should run.  CGSim's
plugin mechanism covers data-movement policies as well as scheduling ones;
this example exercises that path:

1. builds a WLCG-like grid and registers dataset replicas across it with a
   Rucio-like catalogue (2 copies of each dataset);
2. attaches datasets to jobs and enables simulated data transfers, so every
   job stages its input over the network before running;
3. compares a data-aware allocation policy (run where the data already is)
   against a data-blind one (least-loaded), measuring both the volume of data
   moved across the WAN and the overall makespan.

Run it with::

    python examples/data_aware_scheduling.py
"""
from __future__ import annotations

import argparse

from repro import ExecutionConfig, Simulator
from repro.analysis.reporting import format_table
from repro.atlas import PandaWorkloadModel, RucioCatalog, wlcg_grid
from repro.config.execution import MonitoringConfig


def run_policy(policy: str, infrastructure, topology, jobs, datasets, seed: int) -> dict:
    """Run one policy with data transfers enabled and return its headline numbers."""
    execution = ExecutionConfig(
        plugin=policy, monitoring=MonitoringConfig(snapshot_interval=0.0)
    )

    def place_replicas(simulator: Simulator) -> None:
        # Called by the simulator once the platform and data manager exist,
        # before any job is dispatched: the Rucio-like catalogue spreads two
        # copies of every dataset over the grid (deterministic for the seed).
        catalog = RucioCatalog(simulator.data_manager, seed=seed)
        catalog.place_datasets(datasets, infrastructure.site_names, replication_factor=2)

    simulator = Simulator(
        infrastructure,
        topology,
        execution,
        enable_data_transfers=True,
    )
    simulator.on_build(place_replicas)
    result = simulator.run([job.copy_for_replay() for job in jobs])

    transfers = simulator.data_manager.transfer_log
    wan_bytes = sum(t["size"] for t in transfers if t["source"] != t["destination"])
    return {
        "policy": policy,
        "makespan_h": result.metrics.makespan / 3600.0,
        "mean_queue_min": result.metrics.mean_queue_time / 60.0,
        "wan_transfers": len(transfers),
        "wan_terabytes": wan_bytes / 1e12,
        "finished": result.metrics.finished_jobs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=600)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    infrastructure, topology = wlcg_grid(site_count=args.sites)
    model = PandaWorkloadModel(infrastructure, seed=args.seed)
    jobs = model.generate_trace(args.jobs)

    # 20 shared 50 GB datasets; every job reads one of them (round-robin), so
    # placement decisions have real consequences for WAN traffic.
    datasets = {f"dataset_{i:03d}": 50e9 for i in range(20)}
    for index, job in enumerate(jobs):
        job.attributes["dataset"] = f"dataset_{index % len(datasets):03d}"

    print(f"Grid: {len(infrastructure)} sites; workload: {len(jobs)} jobs, "
          f"each reading one of {len(datasets)} shared 50 GB datasets\n")

    rows = [
        run_policy("least_loaded", infrastructure, topology, jobs, datasets, args.seed),
        run_policy("data_aware", infrastructure, topology, jobs, datasets, args.seed),
    ]
    print(format_table(rows))

    blind, aware = rows
    if aware["wan_terabytes"] < blind["wan_terabytes"]:
        saved = (1 - aware["wan_terabytes"] / max(blind["wan_terabytes"], 1e-9)) * 100
        print(f"\nThe data-aware policy moved {saved:.0f}% less data across the WAN.")
    print("\nBoth policies ran through the identical plugin interface; the data-aware"
          "\none simply reads the replica locations the resource view exposes.")


if __name__ == "__main__":
    main()
