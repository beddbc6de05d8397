"""Distributed checkpoints: what a decomposed domain adds to the
resilience layer (the supervisor itself is
:func:`repro.resilience.supervisor.run_resilient`, shared with the
serial solver).

:class:`DistributedCheckpointRing` is coordinated distributed
checkpointing: every rank writes its owned conserved block (plus the
Newton temperature cache) as a CRC-guarded shard
(:func:`repro.io.restart.save_state_shard`), under a two-phase commit:
phase one writes and *verifies* every shard in a ``.tmp`` slot, phase
two renames them into place and only then writes the manifest — the
commit record — so a checkpoint torn by a failure mid-write is
invisible to recovery and can never be loaded. A failed job restarts
from it on the same decomposition.
"""

from __future__ import annotations

from repro.resilience.checkpoint import VerifiedRing
from repro.resilience.errors import RestartCorruptionError

__all__ = ["DistributedCheckpointRing"]


class DistributedCheckpointRing(VerifiedRing):
    """Ring of the last ``keep`` *committed* distributed checkpoints:
    entries ``(step, manifest_path, n_ranks)``.

    Each checkpoint is one shard per rank plus a manifest; the manifest
    is written last and is the sole commit record — recovery never
    trusts shards without one, so a save interrupted at any point
    leaves the previous committed checkpoint untouched.
    """

    default_prefix = "parallel"

    def shard_path(self, step: int, rank: int) -> str:
        return f"{self.prefix}.{step:08d}.r{rank:04d}.shard"

    def tmp_path(self, step: int, rank: int) -> str:
        return f"{self.prefix}.{step:08d}.r{rank:04d}.tmp"

    def manifest_path(self, step: int) -> str:
        return f"{self.prefix}.{step:08d}.manifest"

    def save(self, solver) -> str:
        """Coordinated checkpoint of every rank; returns the manifest
        path.

        Phase 1 writes each rank's shard to a ``.tmp`` slot and
        verifies it. Phase 2 renames every verified shard into place
        and writes the manifest *last*. A failure anywhere before the
        manifest write leaves no commit record, so recovery falls back
        to the previous checkpoint instead of installing a torn one.
        """
        from repro.io.restart import (
            save_state_shard,
            verify_state_shard,
            write_checkpoint_manifest,
        )

        step, size = solver.step_count, solver.decomp.size
        blocks, caches = solver.locals, solver.caches
        for rank in range(size):
            tmp = self.tmp_path(step, rank)
            self._write_verified(
                lambda: save_state_shard(
                    self.fs, tmp, step, solver.time, blocks[rank],
                    cache_block=caches[rank], telemetry=self.telemetry,
                    retry=self.retry),
                lambda: verify_state_shard(self.fs, tmp),
                f"ckpt.{step}.r{rank}")
        # phase 2: every shard verified — rename all, then commit
        shards = [self.shard_path(step, rank) for rank in range(size)]
        for rank, shard in enumerate(shards):
            self.fs.rename(self.tmp_path(step, rank), shard)
        manifest = self.manifest_path(step)
        write_checkpoint_manifest(
            self.fs, manifest,
            {
                "step": int(step),
                "time": float(solver.time),
                "n_ranks": int(size),
                "global_shape": list(solver.decomp.global_shape),
                "proc_shape": list(solver.decomp.proc_shape),
                "periodic": [bool(p) for p in solver.decomp.periodic],
                "shards": shards,
            },
            telemetry=self.telemetry, retry=self.retry,
        )
        self._commit((step, manifest, size))
        return manifest

    def _unlink_entry(self, entry) -> None:
        step, manifest, n_ranks = entry
        self._unlink(manifest)
        for rank in range(n_ranks):
            self._unlink(self.shard_path(step, rank))

    def _load_entry(self, entry, proc_shape):
        """Manifest + fully-verified shard arrays for one ring entry
        checkpointed on ``proc_shape``.

        Raises on any integrity failure so the walk can fall back: a
        torn or corrupt entry — any bad shard, any bad manifest, another
        decomposition — is skipped whole."""
        from repro.io.restart import (
            load_state_shard,
            read_checkpoint_manifest,
        )

        step, manifest_path = entry[:2]
        meta = read_checkpoint_manifest(self.fs, manifest_path)
        if int(meta["step"]) != step:
            raise RestartCorruptionError(
                f"{manifest_path!r}: manifest step {meta['step']} does not "
                f"match ring entry {step}"
            )
        shards = [load_state_shard(self.fs, p) for p in meta["shards"]]
        for p, s in zip(meta["shards"], shards):
            if s["step"] != step:
                raise RestartCorruptionError(
                    f"{p!r}: shard step {s['step']} does not match "
                    f"manifest step {step}"
                )
        if tuple(meta["proc_shape"]) != proc_shape:
            raise RestartCorruptionError(
                f"{manifest_path!r}: checkpoint decomposition "
                f"{tuple(meta['proc_shape'])} does not match the "
                f"solver's {proc_shape}"
            )
        return meta, shards

    def restore(self, solver) -> dict:
        """Install the newest committed checkpoint that fully verifies.

        Requires the solver's decomposition to match the checkpoint's.
        Returns ``{"step", "path",
        "fallbacks", "skipped"}``.
        """
        (step, path, _), (meta, shards), skipped = self._newest_usable(
            lambda entry: self._load_entry(entry, solver.decomp.proc_shape))
        solver.install_shards(step, meta["time"],
                              [s["u"] for s in shards],
                              [s["cache"] for s in shards])
        return {"step": step, "path": path, "fallbacks": len(skipped),
                "skipped": skipped}
