"""Tests for solver restart (closing the §5/§9 loop: the restart files
the workflow moves are actually restartable)."""

import numpy as np
import pytest

from repro.io import SimFileSystem, lustre


# ---------------------------------------------------------------------------
# restart format v2: one codec, pinned bytes, fuzzed reader
# ---------------------------------------------------------------------------
import hashlib  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.io.restart import (  # noqa: E402
    load_solver_state,
    load_state_shard,
    read_checkpoint_manifest,
    save_solver_state,
    save_state_shard,
    verify_solver_state,
    verify_state_shard,
    write_checkpoint_manifest,
)
from repro.parallel.decomp import CartesianDecomposition  # noqa: E402
from repro.resilience import (  # noqa: E402
    CheckpointRing,
    ResilienceExhaustedError,
    RestartCorruptionError,
    TransientIOError,
)
from repro.resilience.distributed import DistributedCheckpointRing  # noqa: E402


class _State:
    """What the restart codec touches of a ``State``."""

    def __init__(self, u, cache):
        self.u, self._t_cache, self.version = u, cache, 0

    def mark_modified(self):
        self.version += 1


def _content(step: int):
    """A conserved array and Newton cache that are a function of the
    step alone — like a deterministic replay, a re-save of a step
    writes the bytes the first save wrote."""
    rng = np.random.default_rng(1000 + step)
    return rng.standard_normal((6, 8)), 300.0 + rng.random(8)


class _Target:
    """The slice of a solver a ring reads and installs into; with a
    ``decomp`` it is the rank-parallel one (blocks, caches, shards)."""

    def __init__(self, decomp=None):
        self.decomp = decomp
        self.goto(0)

    def goto(self, step: int) -> None:
        u, cache = _content(step)
        self.state = _State(u, cache)
        self.step_count, self.time = step, 1e-7 * step

    # -- what DistributedCheckpointRing asks of a decomposed solver ------
    @property
    def locals(self):
        return self.decomp.scatter(self.state.u, 1)

    @property
    def caches(self):
        return self.decomp.scatter(self.state._t_cache, 0)

    def install_shards(self, step, time, blocks, caches):
        self.state = _State(self.decomp.gather(blocks, 1),
                            self.decomp.gather(caches, 0))
        self.step_count, self.time = step, time

    def holds(self, step: int) -> bool:
        u, cache = _content(step)
        return (self.step_count == step and self.time == 1e-7 * step
                and np.array_equal(self.state.u, u)
                and np.array_equal(self.state._t_cache, cache))


def _fixed_files():
    """One ``.ckpt``, two ``.shard`` s and their manifest from a fixed
    state: ``(fs, target)``."""
    rng = np.random.default_rng(20061)
    target = _Target()
    target.state = _State(rng.standard_normal((6, 5, 7)),
                          300.0 + rng.random((5, 7)))
    target.step_count, target.time = 11, 3.25e-7
    u, cache = target.state.u, target.state._t_cache
    fs = SimFileSystem(lustre())
    save_solver_state(fs, target, "a.ckpt")
    save_state_shard(fs, "a.shard", 11, 3.25e-7, u[:, :3], cache_block=cache[:3])
    save_state_shard(fs, "b.shard", 11, 3.25e-7, u[:, 3:])
    write_checkpoint_manifest(fs, "a.manifest", {
        "step": 11, "time": 3.25e-7, "n_ranks": 2, "global_shape": [5, 7],
        "proc_shape": [2, 1], "periodic": [True, True],
        "shards": ["a.shard", "b.shard"]})
    return fs, target


class TestRestartV2Bytes:
    #: sha256 of the files :func:`_fixed_files` writes, computed at the
    #: commit before the one-codec refactor (PR 16) — "bytes unchanged"
    #: as a test
    PINNED = {
        "a.ckpt": "f9ff316e58f4562b9c034dc98bfb7e52f2dda42489e646a1f5df740f0ba2b0b2",
        "a.shard": "1f17a6f5ead8560371d0da64040baa0054fd1c5e9ff00b45840a5d609928b324",
        "b.shard": "d60fb213b77e9d98115884ba74db04d0eaffdf76e92781ee2cec5696173598b4",
        "a.manifest": "77325a6f13aaed7df127850ccda3effe4e80569bc96331993001461e5a187b13",
    }

    def test_on_disk_bytes_are_pinned(self):
        fs, _ = _fixed_files()
        got = {p: hashlib.sha256(fs.file_bytes(p)).hexdigest()
               for p in self.PINNED}
        assert got == self.PINNED

    def test_a_shard_is_not_a_state_file_and_vice_versa(self):
        fs, target = _fixed_files()
        before = target.state.u.copy()
        for read, path in ((verify_solver_state, "a.shard"),
                           (verify_state_shard, "a.ckpt"),
                           (load_state_shard, "a.ckpt")):
            with pytest.raises(RestartCorruptionError, match="is not a"):
                read(fs, path)
        with pytest.raises(RestartCorruptionError, match="is not a"):
            load_solver_state(fs, target, "a.shard")
        assert np.array_equal(target.state.u, before)

    def test_verify_is_load_without_arrays(self):
        fs, _ = _fixed_files()
        meta = verify_state_shard(fs, "a.shard")
        full = load_state_shard(fs, "a.shard")
        assert "u" not in meta and meta == {k: full[k] for k in meta}
        assert meta["shape"] == (3, 7) and meta["has_cache"]


_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 400)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 255)),
        min_size=1, max_size=4)),
)
#: bytes of the v2 header's ``step`` word — the one field outside the
#: CRC (rings guard it by file name / manifest instead)
_STEP_WORD = range(16, 24)


class TestRestartV2Fuzz:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(["a.ckpt", "a.shard", "a.manifest"]),
           mutation=_MUTATIONS)
    def test_mutated_file_loads_identically_or_is_rejected(self, path,
                                                           mutation):
        fs, target = _fixed_files()
        good = bytes(fs.file_bytes(path))
        kind, arg = mutation
        buf, step_hit = bytearray(good), False
        if kind == "truncate":
            del buf[min(arg, len(buf) - 1):]
        elif kind == "extend":
            buf += arg
        else:
            for at, mask in arg:
                buf[at % len(buf)] ^= mask
                step_hit |= at % len(buf) in _STEP_WORD
        fs._files[path] = buf
        u0, cache0 = target.state.u.copy(), target.state._t_cache.copy()
        target.state.u[...] = 0.0  # a reload must put every bit back
        zeroed = target.state.u.copy()
        try:
            if path == "a.manifest":
                fresh, _ = _fixed_files()
                assert (read_checkpoint_manifest(fs, path)
                        == read_checkpoint_manifest(fresh, path))
            elif path == "a.shard":
                got = load_state_shard(fs, path)
                assert np.array_equal(got["u"], u0[:, :3])
                assert np.array_equal(got["cache"], cache0[:3])
                assert got["time"] == 3.25e-7
                assert step_hit or got["step"] == 11
            else:
                load_solver_state(fs, target, path)
                assert np.array_equal(target.state.u, u0)
                assert np.array_equal(target.state._t_cache, cache0)
                assert target.time == 3.25e-7
                assert step_hit or target.step_count == 11
        except (RestartCorruptionError, FileNotFoundError):
            # rejected: and the target was not touched on the way
            assert bytes(buf) != good
            assert np.array_equal(target.state.u, zeroed)
            assert (target.step_count, target.time) == (11, 3.25e-7)


class _RingMachine(RuleBasedStateMachine):
    """save / corrupt-newest / tear-mid-save / restore sequences against
    a model of the ring: restore installs the newest entry that verifies
    and never a torn one, keep-k holds, a replay re-save replaces."""

    KEEP = 3
    decomp = None       # set by the distributed flavour
    writes_per_save = 1

    def __init__(self):
        super().__init__()
        self.fs = SimFileSystem(lustre())
        self.target = _Target(self.decomp)
        self.ring = self.make_ring()
        #: committed entries, oldest first: [step, corrupt?]
        self.model: list = []

    def _files_of(self, entry) -> list:
        raise NotImplementedError

    @rule()
    def advance(self):
        self.target.goto(self.target.step_count + 1)

    @rule()
    def save(self):
        step = self.target.step_count
        self.ring.save(self.target)
        self.model = [m for m in self.model if m[0] < step] + [[step, False]]
        del self.model[:-self.KEEP]

    @precondition(lambda self: self.model and not self.model[-1][1])
    @rule(data=st.data())
    def corrupt_newest(self, data):
        path = data.draw(st.sampled_from(self._files_of(self.ring.entries()[-1])))
        self.fs.corrupt(path, offset=self.fs.file_size(path) - 9)
        self.model[-1][1] = True

    @precondition(lambda self: self.target.step_count
                  not in [m[0] for m in self.model])
    @rule(data=st.data())
    def tear_mid_save(self, data):
        """The file system dies at the k-th write of a save and stays
        dead past the retry budget: nothing of it may become visible."""
        k = data.draw(st.integers(0, self.writes_per_save - 1))
        real, calls = self.fs.phase_write, []

        def dying(requests):
            calls.append(1)
            if len(calls) > k:
                raise TransientIOError("injected: file system gone")
            return real(requests)

        self.fs.phase_write = dying
        try:
            with pytest.raises(TransientIOError):
                self.ring.save(self.target)
        finally:
            del self.fs.phase_write

    @rule()
    def restore(self):
        usable = [m[0] for m in self.model if not m[1]]
        if not usable:
            before = self.target.step_count
            with pytest.raises(ResilienceExhaustedError):
                self.restore_into(self.target)
            assert self.target.holds(before)
            return
        report = self.restore_into(self.target)
        assert report["step"] == usable[-1]
        assert report["fallbacks"] == sum(
            1 for step, bad in self.model if bad and step > usable[-1])
        assert self.target.holds(usable[-1])

    @invariant()
    def ring_matches_model(self):
        entries = self.ring.entries()
        assert [e[0] for e in entries] == [m[0] for m in self.model]
        assert len(entries) <= self.KEEP
        for entry in entries:
            assert all(self.fs.exists(p) for p in self._files_of(entry))


class _SerialRingMachine(_RingMachine):
    def make_ring(self):
        return CheckpointRing(self.fs, prefix="ring", keep=self.KEEP)

    def restore_into(self, target):
        return self.ring.restore_state(target)

    def _files_of(self, entry):
        return [entry[1]]


class _ShardRingMachine(_RingMachine):
    decomp = CartesianDecomposition((8,), (2,), periodic=(True,))
    writes_per_save = 3  # two shards, then the manifest

    def make_ring(self):
        return DistributedCheckpointRing(self.fs, prefix="ring",
                                         keep=self.KEEP)

    def restore_into(self, target):
        return self.ring.restore(target)

    def _files_of(self, entry):
        step, manifest, n_ranks = entry
        return [manifest] + [self.ring.shard_path(step, r)
                             for r in range(n_ranks)]


_RING_SETTINGS = settings(max_examples=40, stateful_step_count=24,
                          deadline=None)
TestCheckpointRingMachine = _SerialRingMachine.TestCase
TestCheckpointRingMachine.settings = _RING_SETTINGS
TestDistributedRingMachine = _ShardRingMachine.TestCase
TestDistributedRingMachine.settings = _RING_SETTINGS
