"""Verified checkpoint ring: atomic writes, CRC validation, fallback.

Long DNS campaigns never trust a single restart file: a checkpoint that
tears during a node failure must not take the previous good one with
it. :class:`CheckpointRing` keeps the last ``keep`` *verified*
conserved-state checkpoints of a solver on a simulated file system:

* **atomic write-then-rename** — each save lands in a ``.tmp`` file,
  is read back and CRC-verified, and only then renamed to its final
  ring slot, so a torn or interrupted save can never shadow a good
  checkpoint;
* **bounded retry** — transient/torn write faults during the save are
  reissued under a :class:`~repro.resilience.retry.RetryPolicy`
  (write phases are idempotent: fixed offsets), with backoff charged
  to the simulated FS clock;
* **verified fallback** — :meth:`restore_state` walks the ring newest
  to oldest, restoring from the first checkpoint that passes
  validation and reporting which one it used and how many corrupt ones
  it skipped.

Telemetry: ``resilience.checkpoints_written``,
``resilience.checkpoint_fallbacks``, ``resilience.retries`` (via the
retry policy), and a ``CHECKPOINT_VERIFY`` span per verification.
"""

from __future__ import annotations

from repro.resilience.errors import (
    ResilienceExhaustedError,
    RestartCorruptionError,
    TransientIOError,
)
from repro.resilience.retry import RetryPolicy, fs_backoff_sleep
from repro.telemetry import resolve as resolve_telemetry

__all__ = ["CheckpointRing", "VerifiedRing"]

#: what a ring entry may fail with and still leave an older one usable
UNUSABLE = (RestartCorruptionError, TransientIOError, FileNotFoundError)


class VerifiedRing:
    """What every checkpoint ring does, whatever one entry is made of.

    Entries are tuples ``(step, path, ...)``, oldest first. The core
    owns the bookkeeping (verified writes, keep-k eviction,
    replace-don't-duplicate, the newest-to-oldest walk of a restore); a
    ring kind supplies what one entry *is*: how it is written
    (``save``), loaded (the ``load(entry)`` it hands to
    :meth:`_newest_usable`) and unlinked (:meth:`_unlink_entry`).
    """

    #: file-name prefix of a ring built without one
    default_prefix = "ring"

    def __init__(self, fs, prefix: str | None = None, keep: int = 3,
                 retry: RetryPolicy | None = None, telemetry=None):
        if keep < 1:
            raise ValueError("checkpoint ring must keep at least 1 entry")
        self.fs = fs
        self.prefix = prefix if prefix is not None else self.default_prefix
        self.keep = int(keep)
        self.retry = retry if retry is not None else RetryPolicy()
        self.telemetry = resolve_telemetry(telemetry)
        self._c_written = self.telemetry.counter("resilience.checkpoints_written")
        self._c_fallbacks = self.telemetry.counter("resilience.checkpoint_fallbacks")
        self._entries: list = []

    def entries(self) -> list:
        """Ring contents (verified / committed entries), oldest first."""
        return list(self._entries)

    @property
    def newest_step(self) -> int | None:
        return self._entries[-1][0] if self._entries else None

    def _write_verified(self, write, verify, label: str) -> None:
        """Write + read-back verification as one retryable unit: a
        transient or torn write fault simply reissues the attempt."""
        def attempt():
            write()
            with self.telemetry.span("CHECKPOINT_VERIFY"):
                verify()

        self.retry.call(attempt, label=label, telemetry=self.telemetry,
                        sleep=fs_backoff_sleep(self.fs))

    def _commit(self, entry: tuple) -> None:
        """Enter a written checkpoint into the ring.

        A rollback-and-replay pass re-saves steps the abandoned timeline
        already checkpointed: replace, don't duplicate (a same-step
        entry was just overwritten in place). Then evict down to
        ``keep``.
        """
        step = entry[0]
        for old in self._entries:
            if old[0] > step:
                self._unlink_entry(old)
        self._entries = [e for e in self._entries if e[0] < step] + [entry]
        while len(self._entries) > self.keep:
            self._unlink_entry(self._entries.pop(0))
        self._c_written.inc()

    def _unlink(self, path: str) -> None:
        if self.fs.exists(path):
            self.fs.unlink(path)

    def _newest_usable(self, load):
        """Walk the ring newest to oldest; returns ``(entry, load(entry),
        skipped)`` for the first entry whose ``load`` does not raise one
        of :data:`UNUSABLE`. Skipped entries are counted as fallbacks
        and listed as ``(path, reason)``; when nothing loads,
        :class:`ResilienceExhaustedError` carries the whole list."""
        skipped: list = []
        for entry in reversed(self._entries):
            try:
                return entry, load(entry), skipped
            except UNUSABLE as err:
                skipped.append((entry[1], f"{type(err).__name__}: {err}"))
                self._c_fallbacks.inc()
        raise ResilienceExhaustedError(
            f"no usable checkpoint in ring {self.prefix!r}: "
            + (f"all {len(skipped)} candidates failed: {skipped}"
               if skipped else "ring is empty")
        )


class CheckpointRing(VerifiedRing):
    """Ring of the last ``keep`` verified solver checkpoints: entries
    ``(step, path)``, each one ``.ckpt`` file written to a ``.tmp`` slot,
    verified, then renamed."""

    default_prefix = "resilient"

    def path_for(self, step: int) -> str:
        return f"{self.prefix}.{step:08d}.ckpt"

    @property
    def tmp_path(self) -> str:
        return f"{self.prefix}.tmp"

    def save(self, solver) -> str:
        """Checkpoint ``solver`` into the ring; returns the final path.
        Only a checkpoint that verifies is renamed into the ring."""
        from repro.io.restart import save_solver_state, verify_solver_state

        tmp, step = self.tmp_path, solver.step_count
        self._write_verified(
            lambda: save_solver_state(self.fs, solver, tmp,
                                      telemetry=self.telemetry),
            lambda: verify_solver_state(self.fs, tmp), f"ckpt.{step}")
        final = self.path_for(step)
        self.fs.rename(tmp, final)
        self._commit((step, final))
        return final

    def _unlink_entry(self, entry) -> None:
        self._unlink(entry[1])

    def restore_state(self, solver) -> dict:
        """Restore the newest checkpoint that passes validation.

        Returns a report ``{"step", "path", "fallbacks", "skipped"}``
        naming the checkpoint actually used and the corrupt or
        unreadable ones skipped on the way, or raises
        :class:`ResilienceExhaustedError` when nothing verifies.
        """
        from repro.io.restart import load_solver_state

        (step, path), _, skipped = self._newest_usable(
            lambda entry: load_solver_state(self.fs, solver, entry[1]))
        return {"step": step, "path": path, "fallbacks": len(skipped),
                "skipped": skipped}

    def drop_corrupt(self) -> int:
        """Prune ring entries that no longer verify; returns the count
        removed (a scrub pass a maintenance window would run)."""
        from repro.io.restart import verify_solver_state

        kept = []
        for entry in self._entries:
            try:
                verify_solver_state(self.fs, entry[1])
                kept.append(entry)
            except UNUSABLE:
                self._unlink_entry(entry)
        removed = len(self._entries) - len(kept)
        self._entries = kept
        return removed
