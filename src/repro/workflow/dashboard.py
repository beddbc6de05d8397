"""The web-dashboard model (Figs 17-18).

Holds what the paper's AJAX dashboard shows: per-machine job queues
(Fig 18), per-variable min/max time traces with their latest plots
(Fig 17), an image registry, and a simple text rendering. The data model is fed by the workflow's dashboard taps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Job:
    job_id: str
    machine: str
    user: str
    state: str = "running"  # running | queued | done | failed
    name: str = "S3D"


class Dashboard:
    """In-memory dashboard state + text renderer."""

    def __init__(self):
        self.jobs: dict = {}
        #: variable -> list of (step, min, max)
        self.series: dict = defaultdict(list)
        #: image path -> metadata
        self.images: dict = {}

    # -- job monitoring (Fig 18) ------------------------------------------
    def submit_job(self, job_id: str, machine: str, user: str, name: str = "S3D") -> Job:
        job = Job(job_id=job_id, machine=machine, user=user, state="queued", name=name)
        self.jobs[job_id] = job
        return job

    def set_job_state(self, job_id: str, state: str) -> None:
        if state not in ("running", "queued", "done", "failed"):
            raise ValueError(f"bad job state {state!r}")
        self.jobs[job_id].state = state

    def jobs_on(self, machine: str) -> list:
        return [j for j in self.jobs.values() if j.machine == machine]

    # -- min/max traces (Fig 17) -------------------------------------------
    def update_series(self, rows) -> None:
        """Ingest MinMaxParser rows ({step, variable, min, max})."""
        for row in rows:
            self.series[row["variable"]].append(
                (row["step"], row["min"], row["max"])
            )

    def trace(self, variable: str):
        """(steps, mins, maxs) arrays for plotting."""
        s = sorted(self.series.get(variable, []))
        steps = [r[0] for r in s]
        return steps, [r[1] for r in s], [r[2] for r in s]

    # -- images --------------------------------------------------------------
    def register_image(self, path: str) -> None:
        self.images[path] = {}

    # -- rendering -----------------------------------------------------------
    def render_text(self) -> str:
        lines = ["=== S3D dashboard ==="]
        machines = sorted({j.machine for j in self.jobs.values()})
        for m in machines:
            lines.append(f"[{m}]")
            for j in self.jobs_on(m):
                lines.append(f"  {j.job_id:<12s} {j.name:<8s} {j.user:<10s} {j.state}")
        if self.series:
            lines.append("[min/max traces]")
            for var in sorted(self.series):
                step, lo, hi = self.series[var][-1]
                lines.append(f"  {var:<12s} step {step:>8d}  min {lo:.6g}  max {hi:.6g}")
        if self.images:
            lines.append(f"[images] {len(self.images)} registered")
        return "\n".join(lines)
