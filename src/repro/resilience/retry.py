"""Retry with exponential backoff and deterministic jitter.

:class:`RetryPolicy` classifies exceptions into retryable and fatal,
and schedules reissues with exponentially growing delays. Because the
I/O substrate runs on *simulated* time, the backoff delay is handed to
a caller-supplied ``sleep`` callable — file-system paths charge it to
``fs.time.overhead`` (see :func:`fs_backoff_sleep`) so retries show up
in the cost model exactly like real stalls would; the default sleep is
a no-op.

Jitter is deterministic: attempt ``k`` of operation ``label`` always
jitters by the same fraction (a hash of ``(label, k)``), so a seeded
fault schedule replays to the identical timeline — the property the
``REPRO_FAULT_SEED`` CI lane asserts.

Every retry increments the ``resilience.retries`` telemetry counter;
exhausting the budget re-raises the last error unchanged.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.resilience.errors import TornWriteError, TransientIOError
from repro.telemetry import resolve as resolve_telemetry

__all__ = ["RetryPolicy", "DEFAULT_RETRY", "fs_backoff_sleep"]

#: error classes reissuing is safe for (write phases are idempotent:
#: fixed offsets, so replaying overwrites any torn region)
DEFAULT_RETRYABLE = (TransientIOError, TornWriteError)


def _jitter_fraction(label: str, attempt: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1) for one attempt."""
    h = zlib.crc32(f"{label}:{attempt}".encode())
    return (h & 0xFFFF) / 65536.0


def fs_backoff_sleep(fs):
    """A ``sleep`` callable charging backoff to a SimFileSystem clock."""

    def sleep(delay: float) -> None:
        fs.time.overhead += delay

    return sleep


@dataclass
class RetryPolicy:
    """Bounded retry: ``max_attempts`` tries, exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (1 = no retry).
    base_delay:
        Backoff before the first retry [s, simulated].
    backoff:
        Multiplier per subsequent retry.
    max_delay:
        Backoff ceiling.
    jitter:
        Fractional jitter amplitude; the realized delay is
        ``delay * (1 + jitter * j)`` with deterministic ``j in [0, 1)``.
    retryable:
        Exception classes worth reissuing; anything else propagates
        immediately.
    """

    max_attempts: int = 5
    base_delay: float = 1e-3
    backoff: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.25
    retryable: tuple = field(default_factory=lambda: DEFAULT_RETRYABLE)

    def is_retryable(self, err: BaseException) -> bool:
        return isinstance(err, tuple(self.retryable))

    def delay(self, attempt: int, label: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.base_delay * self.backoff ** (attempt - 1), self.max_delay)
        return raw * (1.0 + self.jitter * _jitter_fraction(label, attempt))

    # ------------------------------------------------------------------
    def call(self, fn, *args, label: str = "", telemetry=None, sleep=None,
             **kwargs):
        """Run ``fn(*args, **kwargs)`` under this policy.

        ``sleep(delay)`` is invoked before each reissue (no-op by
        default — simulated environments charge their own clocks).
        """
        tel = resolve_telemetry(telemetry)
        c_retries = tel.counter("resilience.retries")
        last = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(*args, **kwargs)
            except Exception as err:  # noqa: BLE001 — classified below
                if not self.is_retryable(err):
                    raise
                last = err
                if attempt >= self.max_attempts:
                    raise
                c_retries.inc()
                if sleep is not None:
                    sleep(self.delay(attempt, label or getattr(fn, "__name__", "")))
        raise last  # pragma: no cover — loop always returns or raises


#: shared default policy for the I/O write paths (retries are free when
#: no faults are armed: the first attempt simply succeeds)
DEFAULT_RETRY = RetryPolicy()
