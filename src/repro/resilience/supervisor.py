"""Self-healing run driver: supervision around the one run loop.

:func:`run_resilient` advances a solver, serial or decomposed, through
the loop ``solver.run`` steps through (``S3DSolver._loop``) and adds
what supervision is: a verified ring the loop checkpoints into every
``checkpoint_interval`` steps (:mod:`repro.resilience.checkpoint`, or
the shard ring of :mod:`repro.resilience.distributed`), the baseline
save, the :class:`RunReport` and recovery: any recoverable fault — an
injected computational fault at the ``solver.step`` site, silent
corruption a watchdog trips on, an I/O fault that survived its retry
budget, a corrupt checkpoint, a dead or hung rank — triggers a recovery
*action* followed by a deterministic replay:

===========  ======================  ===================================
action       chosen when             what it does
===========  ======================  ===================================
``rollback`` no rank died            reinstall the newest checkpoint
                                     that verifies
``respawn``  ranks died              revive them on the same
                                     decomposition, then roll back
===========  ======================  ===================================

Because the conserved-state restart is bit-exact, a recovered run
reaches the same final state, bit for bit, as an undisturbed run of the
same step count (in-process; within round-off on multiprocessing) — the
property the resilience suites assert for both solvers. Liveness
detection (heartbeats, :class:`RankUnresponsiveError`) lives in the
transports (:mod:`repro.parallel.shm`); here a hung rank is just
another rank failure.

Telemetry: ``resilience.recoveries`` / ``.replayed_steps`` /
``.ranks_respawned`` counters and a ``RECOVERY`` span per recovery
(the loop spans every ring save ``CHECKPOINT``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.config import resolve
from repro.resilience.errors import (
    FaultInjectedError,
    RankFailedError,
    ResilienceExhaustedError,
    RestartCorruptionError,
    TransientIOError,
)
from repro.resilience.faults import resolve_injector
from repro.observability.watchdogs import WatchdogTripError
from repro.telemetry import resolve as resolve_telemetry

__all__ = ["RECOVERABLE", "RecoveryEvent", "RunReport", "run_resilient"]

#: fault classes the supervisor answers with recovery. A watchdog trip
#: is recoverable too — the health observatory detects silent corruption
#: (NaN, bounds, drift) that never raises on its own — and so is a rank
#: failure (crash or missed heartbeat)
RECOVERABLE = (FaultInjectedError, TransientIOError, RestartCorruptionError,
               WatchdogTripError, RankFailedError)


@dataclass
class RecoveryEvent:
    """One recovery: what failed, which action answered, where the run
    resumed from (``policy`` is the action taken: ``"rollback"`` or
    ``"respawn"``)."""

    at_step: int
    error: str
    restored_step: int
    restored_path: str
    fallbacks: int
    policy: str = "rollback"
    dead_ranks: tuple = ()


@dataclass
class RunReport:
    """Outcome of a supervised run."""

    steps_completed: int = 0
    recoveries: int = 0
    replayed_steps: int = 0
    checkpoints_written: int = 0
    checkpoint_fallbacks: int = 0
    faults_seen: int = 0
    ranks_respawned: int = 0
    history: list = field(default_factory=list)
    #: the checkpoint ring the run checkpointed into (inspect/restore)
    ring: object = None

    @property
    def clean(self) -> bool:
        return self.recoveries == 0


def run_resilient(solver, fs, n_steps: int, *, dt: float | None = None,
                  policy=None, checkpoint_interval: int = 5, ring=None,
                  keep: int = 3, max_recoveries: int = 20, injector=None,
                  monitor_interval: int = 0, telemetry=None) -> RunReport:
    """Advance ``solver`` ``n_steps`` steps, recovering from faults.

    Parameters
    ----------
    solver:
        An :class:`~repro.core.solver.S3DSolver`, a world of one or a
        decomposed domain (advanced in place).
    fs:
        The :class:`~repro.io.filesystem.SimFileSystem` holding the
        checkpoint ring (and, when fault injection is armed on it, the
        source of I/O faults).
    dt:
        Step size; ``None`` lets the solver choose (``compute_dt``).
    policy:
        How a dead rank is answered (the module table); ``"off"`` is a
        plain ``solver.run``, the same loop without a ring: no
        supervision, no checkpoint traffic.
        Default: the solver's ``recovery_policy`` (the
        ``parallel_recovery`` knob; always rollback on a serial solver).
    checkpoint_interval:
        Steps between ring checkpoints; also the worst-case replay
        distance after a recovery.
    monitor_interval:
        Steps between min/max monitor records (0: none), as in
        ``solver.run``.
    ring:
        An existing ring to resume into (default: a fresh one of the
        solver's kind on ``fs`` keeping ``keep`` entries).
    max_recoveries:
        Recovery budget; exceeding it raises
        :class:`ResilienceExhaustedError` (a genuinely sick run must
        surface, not spin). Faults that strike *during* a recovery are
        charged to the same budget.
    injector:
        Fault injector consulted at the ``solver.step`` site each step
        (models a node crash mid-integration) and at the
        ``solver.state`` site after each step (models silent data
        corruption: the conserved state is poisoned with NaN, which
        only the health observatory's watchdogs can detect). Defaults
        to the injector armed on the solver's transport world, else the
        one attached to ``fs``, so one armed injector drives every
        layer.

    An enabled health monitor's watchdogs run after every step and
    *before* the checkpoint save, so a poisoned state trips — after the
    monitor has dumped its flight record (sink: ``fs`` by default) —
    and rolls back instead of being archived; the recovery is logged in
    the black box via ``health.on_recovery``.
    """
    if policy is None:
        policy = solver.recovery_policy
    elif policy != "rollback":
        policy = resolve("parallel_recovery", policy)
    if policy == "off":
        solver.run(n_steps, dt, monitor_interval)
        return RunReport(steps_completed=solver.step_count)
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    tel = resolve_telemetry(telemetry if telemetry is not None
                            else solver.telemetry)
    if injector is None:
        faults = solver.world.faults
        injector = faults if faults.enabled else getattr(fs, "faults", None)
    inj = resolve_injector(injector)
    if ring is None:
        ring = solver.checkpoint_ring(fs, keep=keep, telemetry=tel)
    report = RunReport(ring=ring)
    c_recoveries = tel.counter("resilience.recoveries")
    c_respawned = tel.counter("resilience.ranks_respawned")
    c_replayed = tel.counter("resilience.replayed_steps")
    health = solver.health
    if health.enabled and health.fs is None:
        health.attach_sink(fs)

    target = solver.step_count + int(n_steps)
    # the baseline checkpoint guarantees rollback is always possible,
    # even before the first interval boundary; it must succeed
    # un-supervised, there being nothing to roll back to yet
    solver._checkpoint(ring, report)

    while solver.step_count < target:
        try:
            solver._loop(target - solver.step_count, dt, monitor_interval,
                         ring, checkpoint_interval, inj, report)
        except RECOVERABLE as err:
            failed_at = solver.step_count
            # the recovery actions themselves run collectives (cache
            # install) and I/O, so a persistent fault can strike again
            # mid-recovery: keep retrying under the same budget until a
            # recovery completes or the budget converts the fault into
            # ResilienceExhaustedError
            while True:
                report.recoveries += 1
                report.faults_seen += 1
                if report.recoveries > max_recoveries:
                    raise ResilienceExhaustedError(
                        f"recovery budget ({max_recoveries}) exhausted at "
                        f"step {solver.step_count}; last fault: {err}"
                    ) from err
                dead = tuple(sorted(solver.failed_ranks()))
                action = "respawn" if dead else "rollback"
                if dead:
                    report.ranks_respawned += len(dead)
                    c_respawned.inc(len(dead))
                try:
                    with tel.span("RECOVERY"):
                        restored = solver.recover(action, ring, dead)
                    break
                except RECOVERABLE as again:
                    err = again
            replay = max(0, failed_at - restored["step"])
            report.replayed_steps += replay
            report.checkpoint_fallbacks += restored["fallbacks"]
            event = RecoveryEvent(
                at_step=failed_at,
                error=f"{type(err).__name__}: {err}",
                restored_step=restored["step"],
                restored_path=restored["path"],
                fallbacks=restored["fallbacks"],
                policy=action,
                dead_ranks=dead,
            )
            report.history.append(event)
            c_recoveries.inc()
            c_replayed.inc(replay)
            health.on_recovery(asdict(event))

    report.steps_completed = solver.step_count
    if health.enabled and report.recoveries:
        # refresh the black box so the dump includes the recovery trail
        health.dump("run complete after recovery")
    return report
