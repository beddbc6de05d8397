"""Simulated multi-machine environment for the S3D workflow (§9).

Machines (jaguar, ewok, HPSS, Sandia, UC Davis) each carry a simple
file store and a registry of executable commands (the stand-ins for the
tar/scp/Python scripts the real workflow runs over ssh). Transfers
between machines charge a per-link bandwidth (the paper moves restart
data at ~100 MB/s over parallel ssh streams). Fault injection makes
commands or transfers fail on demand so the ProcessFile
checkpoint/retry machinery can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.faults import resolve_injector


class RemoteError(RuntimeError):
    """A remote command or transfer failed."""


class RemoteTimeoutError(RemoteError):
    """A remote command or transfer timed out (retryable like any
    RemoteError; kept distinct so logs can tell hangs from faults)."""


@dataclass
class Machine:
    """One host: a flat file store plus registered commands."""

    name: str
    files: dict = field(default_factory=dict)  # path -> bytes
    commands: dict = field(default_factory=dict)

    def write(self, path: str, data: bytes) -> None:
        self.files[path] = bytes(data)

    def read(self, path: str) -> bytes:
        try:
            return self.files[path]
        except KeyError:
            raise RemoteError(f"{self.name}: no such file {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self.files

    def listdir(self, prefix: str) -> list:
        return sorted(p for p in self.files if p.startswith(prefix))

    def register(self, name: str, fn) -> None:
        """Register a command: fn(machine, *args) -> result."""
        self.commands[name] = fn


class Environment:
    """The machine fleet plus the wide-area network between them.

    Fault injection: :meth:`fail_next` arms one-shot failures by name
    (the original knob the ProcessFile tests use); a seeded
    :class:`~repro.resilience.faults.FaultInjector` arms *scheduled*
    failures at the sites ``workflow.transfer`` and
    ``workflow.command`` (or ``workflow.command.<name>`` for one
    command), with mode ``timeout`` raising
    :class:`RemoteTimeoutError` instead of a plain failure.
    """

    #: simulated seconds one remote command costs
    COMMAND_COST = 0.01

    def __init__(self, link_bandwidth: float = 100e6, link_latency: float = 0.05,
                 fault_injector=None):
        self.machines: dict = {}
        self.link_bandwidth = float(link_bandwidth)
        self.link_latency = float(link_latency)
        self.faults = resolve_injector(fault_injector)
        self.transfer_time = 0.0
        self.transfer_bytes = 0
        self.command_time = 0.0
        self._fail_queue: dict = {}
        self.failures_injected = 0

    def add_machine(self, name: str) -> Machine:
        if name in self.machines:
            raise ValueError(f"duplicate machine {name!r}")
        m = Machine(name)
        self.machines[name] = m
        return m

    def __getitem__(self, name: str) -> Machine:
        return self.machines[name]

    # ------------------------------------------------------------------
    def fail_next(self, kind: str, count: int = 1) -> None:
        """Arm fault injection: the next ``count`` operations whose name
        matches ``kind`` (command name or "transfer") raise."""
        self._fail_queue[kind] = self._fail_queue.get(kind, 0) + count

    def _maybe_fail(self, kind: str) -> None:
        if self._fail_queue.get(kind, 0) > 0:
            self._fail_queue[kind] -= 1
            self.failures_injected += 1
            raise RemoteError(f"injected failure in {kind!r}")
        if self.faults.enabled:
            site = ("workflow.transfer" if kind == "transfer"
                    else f"workflow.command.{kind}")
            spec = self.faults.decide(site) or (
                None if kind == "transfer" else self.faults.decide("workflow.command")
            )
            if spec is not None:
                self.failures_injected += 1
                if spec.mode == "timeout":
                    raise RemoteTimeoutError(f"injected timeout in {kind!r}")
                raise RemoteError(f"injected failure in {kind!r}")

    # ------------------------------------------------------------------
    def transfer(self, src: str, src_path: str, dst: str, dst_path: str,
                 streams: int = 1) -> float:
        """Copy one file between machines; returns elapsed link time.

        ``streams`` models the paper's multi-ssh parallel mover (the
        restart pipeline moves data at 100 MB/s via multiple
        connections, 350 MB/s theoretical with more).
        """
        self._maybe_fail("transfer")
        data = self.machines[src].read(src_path)
        self.machines[dst].write(dst_path, data)
        elapsed = self.link_latency + len(data) / (self.link_bandwidth * max(1, streams))
        self.transfer_time += elapsed
        self.transfer_bytes += len(data)
        return elapsed

    def execute(self, machine: str, command: str, *args):
        """Run a registered command remotely ("ssh machine command"),
        charging :attr:`COMMAND_COST` seconds."""
        self._maybe_fail(command)
        m = self.machines[machine]
        if command not in m.commands:
            raise RemoteError(f"{machine}: unknown command {command!r}")
        self.command_time += self.COMMAND_COST
        return m.commands[command](m, *args)
