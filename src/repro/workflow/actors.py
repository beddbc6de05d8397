"""The S3D workflow actor library (§9).

* :class:`FileWatcher` — "a generic component to regularly check a
  remote directory for new or modified files", creating the indirect
  coupling between the running simulation and the workflow. Follows the
  paper's completion protocol: a file is only emitted once the
  simulation's log records that its time step's output is complete.
* :class:`ProcessFile` — "models the execution of an operation on a
  remote file as a (sub-)workflow": runs a registered command over ssh,
  keeps a checkpoint of successfully processed files (so restarted
  workflows skip completed work), retries failures, and logs errors.
* :class:`Transfer` — multi-stream file movement between machines.
* :class:`Morph` — N restart files -> M merged analysis files.
* :class:`Archive` — copy to the HPSS machine.
* :class:`MinMaxParser` — parse the ASCII min/max monitoring files into
  dashboard time series.
* :class:`PlotImages` — stand-in for the Grace/AVS-Express render step.
"""

from __future__ import annotations

import json

from repro.telemetry import resolve as resolve_telemetry
from repro.telemetry.export import parse_monitor_text
from repro.workflow.actor import Actor, Port, Token
from repro.workflow.environment import RemoteError


class FileWatcher(Actor):
    """Source actor: emits newly completed files of a directory."""

    inputs: list = []
    outputs = ["file"]

    def __init__(self, name: str, env, machine: str, prefix: str,
                 completion_log: str | None = None, telemetry=None):
        super().__init__(name)
        self.env = env
        self.machine = machine
        self.prefix = prefix
        self.completion_log = completion_log
        self.seen: set = set()
        self._c_emitted = resolve_telemetry(telemetry).counter(
            "workflow.files_emitted")

    def _completed(self) -> set | None:
        """Filenames marked complete in the simulation's log (§9: 'the
        workflow watches a log file ... for an entry indicating that the
        output for that timestep is complete')."""
        if self.completion_log is None:
            return None
        m = self.env[self.machine]
        if not m.exists(self.completion_log):
            return set()
        lines = m.read(self.completion_log).decode().splitlines()
        return {l.split()[-1] for l in lines if l.startswith("COMPLETE")}

    def fire(self, inputs):
        m = self.env[self.machine]
        done = self._completed()
        for path in m.listdir(self.prefix):
            if path in self.seen:
                continue
            if done is not None and path not in done:
                continue
            self.seen.add(path)
            self._c_emitted.inc()
            return {"file": Token(path)}
        return None


class ProcessFile(Actor):
    """Checkpointed, retrying remote file operation."""

    inputs = ["file"]
    outputs = ["file", "errors"]
    #: re-executions after a failed first attempt
    MAX_RETRIES = 3

    def __init__(self, name: str, env, machine: str, command: str,
                 checkpoint_store: dict | None = None,
                 transform_path=None, telemetry=None):
        super().__init__(name)
        self.env = env
        self.machine = machine
        self.command = command
        #: persistent record of completed inputs (survives restarts when
        #: the same dict is handed to the rebuilt workflow)
        self.checkpoint = checkpoint_store if checkpoint_store is not None else {}
        self.transform_path = transform_path or (lambda p: p)
        self.log: list = []
        self.skipped = 0
        tel = resolve_telemetry(telemetry)
        self._c_retries = tel.counter("workflow.process.retries")
        self._c_failures = tel.counter("workflow.process.failures")

    def fire(self, inputs):
        token = inputs["file"]
        path = token.value
        out_path = self.transform_path(path)
        key = f"{self.name}:{path}"
        if self.checkpoint.get(key) == "done":
            self.skipped += 1
            self.log.append(("skip", path))
            return {"file": token.derive(out_path, f"{self.name}(cached)")}
        last_error = None
        for attempt in range(1 + self.MAX_RETRIES):
            try:
                self.env.execute(self.machine, self.command, path, out_path)
                self.checkpoint[key] = "done"
                self.log.append(("ok", path, attempt))
                return {"file": token.derive(out_path, self.name)}
            except RemoteError as err:
                last_error = err
                self._c_retries.inc()
                self.log.append(("retry", path, attempt, str(err)))
        self.checkpoint[key] = "failed"
        self._c_failures.inc()
        self.log.append(("failed", path, str(last_error)))
        return {"errors": token.derive(str(last_error), f"{self.name}(error)")}


class Transfer(Actor):
    """Move a file between machines (multi-stream scp/bbcp model)."""

    inputs = ["file"]
    outputs = ["file"]
    #: re-sends after a failed first attempt
    MAX_RETRIES = 3

    def __init__(self, name: str, env, src: str, dst: str, streams: int = 4,
                 checkpoint_store: dict | None = None, telemetry=None):
        super().__init__(name)
        self.env = env
        self.src = src
        self.dst = dst
        self.streams = int(streams)
        self.checkpoint = checkpoint_store if checkpoint_store is not None else {}
        self.skipped = 0
        self.log: list = []
        tel = resolve_telemetry(telemetry)
        self._c_transfers = tel.counter("workflow.transfer.count")
        self._c_retries = tel.counter("workflow.transfer.retries")

    def fire(self, inputs):
        token = inputs["file"]
        path = token.value
        key = f"{self.name}:{path}"
        if self.checkpoint.get(key) == "done":
            self.skipped += 1
            return {"file": token.derive(path, f"{self.name}(cached)")}
        for attempt in range(1 + self.MAX_RETRIES):
            try:
                self.env.transfer(self.src, path, self.dst, path,
                                  streams=self.streams)
                self.checkpoint[key] = "done"
                self._c_transfers.inc()
                self.log.append(("ok", path, attempt))
                return {"file": token.derive(path, self.name)}
            except RemoteError as err:
                self._c_retries.inc()
                self.log.append(("retry", path, attempt, str(err)))
        # leave unmarked so a restarted workflow retries the move
        self.checkpoint[key] = "failed"
        self.log.append(("failed", path))
        return None


class Morph(Actor):
    """Merge N restart files into one analysis file (data morphing).

    Accumulates incoming files until ``group_size`` arrive, then writes
    the concatenated morph output on the target machine.
    """

    inputs = ["file"]
    outputs = ["file"]
    #: output path of the ``index``-th merged file
    OUT_PATTERN = "morph/{index:04d}.dat"

    def __init__(self, name: str, env, machine: str, group_size: int):
        super().__init__(name)
        self.env = env
        self.machine = machine
        self.group_size = int(group_size)
        self._pending: list = []
        self._index = 0

    def fire(self, inputs):
        token = inputs["file"]
        self._pending.append(token)
        if len(self._pending) < self.group_size:
            return None
        m = self.env[self.machine]
        data = b"".join(m.read(t.value) for t in self._pending)
        out = self.OUT_PATTERN.format(index=self._index)
        m.write(out, data)
        self._index += 1
        prov = tuple(
            item for t in self._pending for item in t.provenance
        ) + tuple((self.name, t.uid) for t in self._pending)
        merged = Token(out, provenance=prov)
        self._pending = []
        return {"file": merged}


class Archive(Actor):
    """Copy a file to the archival machine (HPSS)."""

    inputs = ["file"]
    outputs = ["file"]

    def __init__(self, name: str, env, src: str, archive_machine: str = "hpss"):
        super().__init__(name)
        self.env = env
        self.src = src
        self.dst = archive_machine

    def fire(self, inputs):
        token = inputs["file"]
        self.env.transfer(self.src, token.value, self.dst, token.value, streams=2)
        return {"file": token.derive(token.value, self.name)}


class MinMaxParser(Actor):
    """Parse ASCII min/max monitoring files into dashboard series."""

    inputs = ["file"]
    outputs = ["series"]

    def __init__(self, name: str, env, machine: str):
        super().__init__(name)
        self.env = env
        self.machine = machine

    def fire(self, inputs):
        token = inputs["file"]
        text = self.env[self.machine].read(token.value).decode()
        return {"series": token.derive(parse_monitor_text(text), self.name)}


class PlotImages(Actor):
    """Stand-in for the Grace / AVS-Express plotting service: turns a
    netCDF-ish file into an 'image' artifact on the same machine."""

    inputs = ["file"]
    outputs = ["image"]

    def __init__(self, name: str, env, machine: str):
        super().__init__(name)
        self.env = env
        self.machine = machine

    def fire(self, inputs):
        token = inputs["file"]
        m = self.env[self.machine]
        payload = m.read(token.value)
        out = token.value + ".png"
        meta = {"source": token.value, "bytes": len(payload)}
        m.write(out, json.dumps(meta).encode())
        return {"image": token.derive(out, self.name)}


class Collector(Actor):
    """Sink collecting every token it receives (test/dashboard tap)."""

    inputs = ["in"]
    outputs: list = []

    def __init__(self, name: str):
        super().__init__(name)
        self.items: list = []

    def fire(self, inputs):
        self.items.append(inputs["in"])
        return None
