"""Fault injection, retry, checkpoint integrity, self-healing runs.

The robustness layer a terascale campaign needs (§6-§7 run for millions
of CPU-hours; §9's workflow exists to shepherd restart files through an
unreliable pipeline): every simulated substrate — MPI, file system,
workflow environment — can be made to fail on a deterministic schedule,
and every consumer knows how to survive it.

* :mod:`repro.resilience.faults` — seedable :class:`FaultInjector`
  consulted at named sites (``fs.write``, ``mpi.send``,
  ``workflow.transfer``, ``solver.step``, ...); off by default and
  zero-cost when disabled (null-object, mirroring telemetry).
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` with
  exponential backoff and deterministic jitter, applied to the I/O
  write paths.
* :mod:`repro.resilience.checkpoint` — the ring core and
  :class:`CheckpointRing`: CRC-verified, atomically-renamed
  conserved-state checkpoints with fallback to the previous good one on
  corruption.
* :mod:`repro.resilience.distributed` —
  :class:`DistributedCheckpointRing`: coordinated two-phase distributed
  checkpoints (one CRC-guarded shard per rank, manifest as commit
  record) on the same ring core.
* :mod:`repro.resilience.supervisor` — :func:`run_resilient`: the
  supervisor around the solver's one run loop, driving a serial or
  rank-parallel solver through injected faults and rank failures
  (rollback / ``respawn``) to a bit-identical final state.

Telemetry counters: ``resilience.faults_injected``,
``resilience.retries``, ``resilience.recoveries``,
``resilience.ranks_respawned``, ``resilience.replayed_steps``,
``resilience.checkpoints_written``,
``resilience.checkpoint_fallbacks`` (see docs/RESILIENCE.md).
"""

from repro.resilience.errors import (
    FaultInjectedError,
    MessageNotFoundError,
    RankFailedError,
    RankUnresponsiveError,
    ResilienceExhaustedError,
    RestartCorruptionError,
    TornWriteError,
    TransientIOError,
)
from repro.resilience.faults import (
    NULL_INJECTOR,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    NullFaultInjector,
    resolve_injector,
)
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy, fs_backoff_sleep

__all__ = [
    "TransientIOError",
    "TornWriteError",
    "RestartCorruptionError",
    "FaultInjectedError",
    "RankFailedError",
    "RankUnresponsiveError",
    "MessageNotFoundError",
    "ResilienceExhaustedError",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_INJECTOR",
    "resolve_injector",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "fs_backoff_sleep",
    "CheckpointRing",
    "RecoveryEvent",
    "RunReport",
    "run_resilient",
    "DistributedCheckpointRing",
]

#: names resolved lazily (PEP 562): these modules import repro.io, which
#: itself imports the leaf modules above — eager imports here would
#: close that cycle while repro.io is still initializing
_LAZY = {
    "CheckpointRing": "repro.resilience.checkpoint",
    "RecoveryEvent": "repro.resilience.supervisor",
    "RunReport": "repro.resilience.supervisor",
    "run_resilient": "repro.resilience.supervisor",
    "DistributedCheckpointRing": "repro.resilience.distributed",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
