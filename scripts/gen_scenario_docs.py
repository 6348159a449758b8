#!/usr/bin/env python
"""Generate docs/scenarios/cookbook.md from the bundled scenario packs.

The cookbook page is *data-derived documentation*: each bundled pack renders
as a section with its prose, its shape (grid/workload/mode), how to run it,
and its canonical JSON definition.  The committed page must always match the
packs; ``--check`` mode (used by CI and tests/test_docs.py) exits non-zero
with a diff hint when it does not.

Usage::

    python scripts/gen_scenario_docs.py          # rewrite the page
    python scripts/gen_scenario_docs.py --check  # verify it is in sync
"""

from __future__ import annotations

import sys
from pathlib import Path

import _docgen

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "scenarios" / "cookbook.md"

HEADER = """\
# Scenario cookbook

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: python scripts/gen_scenario_docs.py -->

Every pack below ships with the package and reproduces one of the paper's
studies. Run any of them as-is, shrink it with `--set` overrides, or copy its
JSON as the starting point for your own study (the
[schema reference](schema.md) documents every field).

```bash
repro scenario list                 # the catalogue below, as a table
repro scenario show <name>          # a pack's canonical JSON
repro scenario run <name>           # run it (parallel when it sweeps)
```
"""


def _describe_workload(pack) -> str:
    workload = pack.workload
    if workload.trace is not None:
        return f"trace replay of `{workload.trace}`"
    if workload.per_site_jobs is not None:
        shape = f"{workload.per_site_jobs} jobs per site"
    else:
        shape = f"{workload.jobs} jobs"
    return f"{workload.generator}, {shape} (seed {workload.seed})"


def _describe_grid(pack) -> str:
    grid = pack.grid
    if grid.kind == "files":
        return f"from files `{grid.infrastructure}` + `{grid.topology}`"
    if grid.kind == "wlcg":
        return f"WLCG catalogue, {grid.sites} sites"
    return f"synthetic, {grid.sites} sites ({grid.layout} layout, seed {grid.seed})"


def _describe_mode(pack) -> str:
    if pack.calibration is not None:
        cal = pack.calibration
        return (
            f"calibration study ({cal.optimizer} optimizer, "
            f"budget {cal.budget}/site, {cal.mode} mode)"
        )
    if pack.sweep is not None:
        sweep = pack.sweep
        runs = len(sweep.combinations()) * sweep.replications
        return (
            f"sweep: {runs} runs "
            f"({len(sweep.combinations())} combinations x "
            f"{sweep.replications} replication(s))"
        )
    return "single simulation run"


def render_cookbook() -> str:
    """The full cookbook page as a string (deterministic for the pack set)."""
    from repro.scenarios.registry import ScenarioRegistry

    registry = ScenarioRegistry(entry_points=False, search_env=False)
    sections = [HEADER]
    for pack in registry.packs():
        lines = [f"## {pack.name}", ""]
        if pack.title:
            lines += [f"**{pack.title}**", ""]
        if pack.description:
            lines += [pack.description, ""]
        lines += [
            f"- **mode:** {_describe_mode(pack)}",
            f"- **grid:** {_describe_grid(pack)}",
            f"- **workload:** {_describe_workload(pack)}",
        ]
        if pack.faults is not None:
            parts = []
            if pack.faults.job_failures is not None:
                parts.append("job failures")
            if pack.faults.outages:
                parts.append(f"{len(pack.faults.outages)} explicit outage window(s)")
            if pack.faults.outage_model is not None:
                parts.append("MTBF/MTTR outage schedule")
            lines.append(f"- **faults:** {', '.join(parts)}")
        if pack.data is not None:
            data = pack.data
            detail = (
                f"{data.datasets} datasets x "
                f"{data.dataset_size / 1e9:.0f} GB, "
                f"{data.replication_factor} replicas"
            )
            if data.assignment != "round_robin":
                detail += f", {data.assignment} assignment (s={data.zipf_exponent:g})"
            lines.append(f"- **data:** {detail}")
            if data.cache is not None:
                cache = data.cache
                capacity = (
                    "unbounded"
                    if cache.capacity is None
                    else f"{cache.capacity / 1e9:.0f} GB/site"
                )
                warm = ", prewarmed" if cache.prewarm else ""
                lines.append(
                    f"- **cache:** {capacity}, {cache.policy} eviction, "
                    f"{cache.replication} replica placement{warm}"
                )
        if pack.sweep is not None:
            for path, values in pack.sweep.axes.items():
                rendered = ", ".join(str(v) for v in values)
                lines.append(f"- **axis** `{path}`: {rendered}")
            lines.append(f"- **reported metrics:** {', '.join(pack.sweep.metrics)}")
        if pack.tags:
            lines.append(f"- **tags:** {', '.join(pack.tags)}")
        lines += [
            "",
            "```bash",
            f"repro scenario run {pack.name}",
            "```",
            "",
            "<details><summary>Definition (canonical JSON)</summary>",
            "",
            "```json",
            pack.to_json(),
            "```",
            "",
            "</details>",
            "",
        ]
        sections.append("\n".join(lines))
    return "\n".join(sections)


def main(argv=None) -> int:
    return _docgen.run(
        __doc__, lambda: {OUTPUT: render_cookbook()}, script="gen_scenario_docs.py",
        stale="is out of sync with the bundled packs", argv=argv)


if __name__ == "__main__":
    sys.exit(main())
