"""Distributed checkpoints and the shrink re-decomposition.

What a decomposed domain adds to the resilience layer (the supervised
loop itself is :func:`repro.resilience.supervisor.run_resilient`, shared
with the serial solver):

* **coordinated distributed checkpointing** —
  :class:`DistributedCheckpointRing`: every rank writes its owned
  conserved block (plus the Newton temperature cache) as a CRC-guarded
  shard (:func:`repro.io.restart.save_state_shard`), under a two-phase
  commit: phase one writes and *verifies* every shard in a ``.tmp``
  slot, phase two renames them into place and only then writes the
  manifest — the commit record — so a checkpoint torn by a failure
  mid-write is invisible to recovery and can never be loaded;
* **the shrink policy's decomposition** — :func:`shrink_decomposition`
  re-decomposes the domain over the surviving rank count, so the run
  continues on a smaller world.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import KNOBS
from repro.resilience.checkpoint import VerifiedRing
from repro.resilience.errors import (
    ResilienceExhaustedError,
    RestartCorruptionError,
)

__all__ = [
    "DistributedCheckpointRing",
    "RECOVERY_POLICIES",
    "shrink_decomposition",
]

#: recognised parallel-recovery policies, in documentation order
RECOVERY_POLICIES = KNOBS["parallel_recovery"].choices


def shrink_decomposition(decomp, new_size: int):
    """A decomposition of the same grid over at most ``new_size`` ranks.

    Only 1-D slab decompositions (at most one axis with more than one
    process) can shrink — redistributing a general Cartesian split
    over an arbitrary survivor count has no unique answer. The slab
    axis keeps shrinking until every block is at least
    ``FILTER_HALF_WIDTH`` cells deep — a block must be able to hand its
    neighbour the five rows of a filter ghost zone; a grid too small to
    split at all continues on a single rank.
    """
    from repro.core.filters import FILTER_HALF_WIDTH
    from repro.parallel.decomp import CartesianDecomposition

    new_size = int(new_size)
    if new_size < 1:
        raise ValueError("cannot shrink to an empty world")
    split = [a for a, p in enumerate(decomp.proc_shape) if p > 1]
    if len(split) > 1:
        raise ResilienceExhaustedError(
            f"shrink supports 1-D slab decompositions only; "
            f"{decomp.proc_shape} splits {len(split)} axes"
        )
    axis = split[0] if split else int(np.argmax(decomp.global_shape))
    n = decomp.global_shape[axis]
    while new_size > 1 and n // new_size < FILTER_HALF_WIDTH:
        new_size -= 1
    proc = [1] * decomp.ndim
    proc[axis] = new_size
    return CartesianDecomposition(decomp.global_shape, tuple(proc),
                                  periodic=decomp.periodic)


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

    def _load_entry(self, entry):
        """Manifest + fully-verified shard arrays for one ring entry.

        Raises on any integrity failure so the walk can fall back: a
        torn or corrupt entry — any bad shard, any bad manifest — is
        skipped whole."""
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
        return meta, shards

    def restore(self, solver) -> dict:
        """Install the newest committed checkpoint that fully verifies.

        Requires the solver's decomposition to match the checkpoint's
        (the rollback and respawn paths). Returns ``{"step", "path",
        "fallbacks", "skipped"}``.
        """
        def load(entry):
            meta, shards = self._load_entry(entry)
            if tuple(meta["proc_shape"]) != solver.decomp.proc_shape:
                raise RestartCorruptionError(
                    f"{entry[1]!r}: checkpoint decomposition "
                    f"{tuple(meta['proc_shape'])} does not match the "
                    f"solver's {solver.decomp.proc_shape}"
                )
            return meta, shards

        (step, path, _), (meta, shards), skipped = self._newest_usable(load)
        solver.install_shards(step, meta["time"],
                              [s["u"] for s in shards],
                              [s["cache"] for s in shards])
        return {"step": step, "path": path, "fallbacks": len(skipped),
                "skipped": skipped}

    def load_global(self) -> dict:
        """Newest committed checkpoint gathered to a *global* state.

        Rebuilds the checkpoint's own decomposition from its manifest
        and gathers the shards, so the result can be re-scattered under
        any new decomposition (the shrink path). Returns ``{"step",
        "time", "u", "cache", "path", "fallbacks"}`` with ``cache``
        None when any rank checkpointed cold.
        """
        from repro.parallel.decomp import CartesianDecomposition

        (step, path, _), (meta, shards), skipped = self._newest_usable(
            self._load_entry)
        old = CartesianDecomposition(
            tuple(meta["global_shape"]), tuple(meta["proc_shape"]),
            periodic=tuple(meta["periodic"]),
        )
        caches = [s["cache"] for s in shards]
        return {"step": step, "time": float(meta["time"]),
                "u": old.gather([s["u"] for s in shards], leading_axes=1),
                "cache": (None if any(c is None for c in caches)
                          else old.gather(caches, leading_axes=0)),
                "path": path, "fallbacks": len(skipped)}
