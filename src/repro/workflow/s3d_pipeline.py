"""The Fig 16 S3D monitoring workflow: three parallel pipelines.

1. **restart/analysis** — watch jaguar for completed restart
   directories, move them to ewok (multi-stream ssh), morph N files to
   M, then archive to HPSS and ship to Sandia for post-run analysis.
2. **netCDF** — watch for analysis files (produced more often than
   restarts), transfer, convert, and render images for the dashboard,
   plus forward to the UC Davis visualization partners.
3. **min/max logs** — move the ASCII monitoring files and parse them
   into the dashboard's time traces (Fig 17).

The workflow stays isolated from the simulation: it only ever *reads*
what S3D wrote (via FileWatcher + the completion log), so workflow
failures never touch the running job — the paper's key fault-tolerance
requirement for simulations costing millions of CPU hours.
"""

from __future__ import annotations

import numpy as np

from repro.workflow.actors import (
    Archive,
    Collector,
    FileWatcher,
    MinMaxParser,
    Morph,
    PlotImages,
    ProcessFile,
    Transfer,
)
from repro.workflow.director import ProcessNetworkDirector
from repro.workflow.environment import Environment
from repro.workflow.graph import Workflow

MACHINES = ("jaguar", "ewok", "hpss", "sandia", "ucdavis")


def make_environment() -> Environment:
    """The §9 machine fleet with the ewok-side commands registered."""
    env = Environment(link_bandwidth=100e6, link_latency=0.05)
    for name in MACHINES:
        env.add_machine(name)

    def convert_netcdf(machine, path, out_path):
        data = machine.read(path)
        machine.write(out_path, b"NCCONV" + data)

    env["ewok"].register("convert", convert_netcdf)
    return env


#: files per checkpoint of :func:`simulate_s3d_run`, and the bytes of
#: a restart file (a netCDF file holds a quarter of that)
NETCDF_PER_CHECKPOINT = 2
RESTART_FILES_PER_DIR = 2
PAYLOAD = 4096


def simulate_s3d_run(env: Environment, n_checkpoints: int = 4,
                     seed: int = 0) -> dict:
    """Write the files a (scaled) S3D production run produces on jaguar.

    Restart directories appear roughly hourly, netCDF analysis files
    more often, and the ASCII min/max log continuously (two rows per
    checkpoint); the completion log gets a COMPLETE entry only when a
    file is fully written. Returns a manifest of what was created.
    """
    rng = np.random.default_rng(seed)
    jaguar = env["jaguar"]
    manifest = {"restart": [], "netcdf": [], "minmax": []}
    log_lines = []
    for cid in range(n_checkpoints):
        for k in range(RESTART_FILES_PER_DIR):
            path = f"restart/{cid:04d}/part{k}.dat"
            jaguar.write(path, rng.bytes(PAYLOAD))
            log_lines.append(f"COMPLETE {path}")
            manifest["restart"].append(path)
        for k in range(NETCDF_PER_CHECKPOINT):
            path = f"netcdf/{cid:04d}_{k}.nc"
            jaguar.write(path, rng.bytes(PAYLOAD // 4))
            log_lines.append(f"COMPLETE {path}")
            manifest["netcdf"].append(path)
        rows = [
            (cid * 100, "T", 300.0 + cid, 1500.0 + 10 * cid),
            (cid * 100, "rho", 0.1, 1.2),
        ]
        text = "\n".join(
            f"{step} {var} {lo} {hi}" for step, var, lo, hi in rows
        )
        path = f"minmax/{cid:04d}.txt"
        jaguar.write(path, text.encode())
        log_lines.append(f"COMPLETE {path}")
        manifest["minmax"].append(path)
    jaguar.write("s3d.log", "\n".join(log_lines).encode())
    return manifest


def build_s3d_workflow(env: Environment, checkpoints: dict | None = None):
    """Assemble the three-pipeline workflow (Fig 16).

    ``checkpoints`` is the persistent checkpoint store shared across
    workflow restarts: pass the same dict to a rebuilt workflow and
    completed ProcessFile/Transfer work is skipped.

    Returns (workflow, taps) where taps holds the Collector sinks.
    """
    ck = checkpoints if checkpoints is not None else {}
    wf = Workflow("s3d-monitoring")

    # pipeline 1: restart/analysis
    wf.add(FileWatcher("watch_restart", env, "jaguar", "restart/",
                       completion_log="s3d.log"))
    wf.add(Transfer("move_restart", env, "jaguar", "ewok", streams=4,
                    checkpoint_store=ck.setdefault("move_restart", {})))
    wf.add(Morph("morph", env, "ewok", group_size=2))
    wf.add(Archive("archive", env, src="ewok", archive_machine="hpss"))
    wf.add(Transfer("to_sandia", env, "ewok", "sandia", streams=2,
                    checkpoint_store=ck.setdefault("to_sandia", {})))
    wf.add(Collector("restart_done"))
    wf.connect("watch_restart", "file", "move_restart", "file")
    wf.connect("move_restart", "file", "morph", "file")
    wf.connect("morph", "file", "archive", "file")
    wf.connect("archive", "file", "to_sandia", "file")
    wf.connect("to_sandia", "file", "restart_done", "in")

    # pipeline 2: netCDF transformation + imaging
    wf.add(FileWatcher("watch_netcdf", env, "jaguar", "netcdf/",
                       completion_log="s3d.log"))
    wf.add(Transfer("move_netcdf", env, "jaguar", "ewok", streams=2,
                    checkpoint_store=ck.setdefault("move_netcdf", {})))
    wf.add(ProcessFile("convert", env, "ewok", "convert",
                       checkpoint_store=ck.setdefault("convert", {}),
                       transform_path=lambda p: p + ".conv"))
    wf.add(PlotImages("plot", env, "ewok"))
    wf.add(Transfer("to_ucdavis", env, "ewok", "ucdavis", streams=2,
                    checkpoint_store=ck.setdefault("to_ucdavis", {})))
    wf.add(Collector("images"))
    wf.add(Collector("conversion_errors"))
    wf.connect("watch_netcdf", "file", "move_netcdf", "file")
    wf.connect("move_netcdf", "file", "convert", "file")
    wf.connect("convert", "file", "plot", "file")
    wf.connect("convert", "file", "to_ucdavis", "file")
    wf.connect("convert", "errors", "conversion_errors", "in")
    wf.connect("plot", "image", "images", "in")

    # pipeline 3: min/max monitoring
    wf.add(FileWatcher("watch_minmax", env, "jaguar", "minmax/",
                       completion_log="s3d.log"))
    wf.add(Transfer("move_minmax", env, "jaguar", "ewok", streams=1,
                    checkpoint_store=ck.setdefault("move_minmax", {})))
    wf.add(MinMaxParser("parse_minmax", env, "ewok"))
    wf.add(Collector("dashboard_series"))
    wf.connect("watch_minmax", "file", "move_minmax", "file")
    wf.connect("move_minmax", "file", "parse_minmax", "file")
    wf.connect("parse_minmax", "series", "dashboard_series", "in")

    taps = {
        "restart_done": wf.actors["restart_done"],
        "images": wf.actors["images"],
        "dashboard_series": wf.actors["dashboard_series"],
        "conversion_errors": wf.actors["conversion_errors"],
    }
    return wf, taps


def run_s3d_workflow(env, checkpoints=None, rounds: int | None = None):
    """Convenience: build + run; returns (workflow, taps, director)."""
    wf, taps = build_s3d_workflow(env, checkpoints)
    director = ProcessNetworkDirector(wf)
    director.run(rounds=rounds)
    return wf, taps, director
