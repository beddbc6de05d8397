"""Tests for the parallel I/O substrate: functional byte correctness of
every write path, lock semantics, caching/write-behind invariants."""

import numpy as np
import pytest

from repro.io import (
    BlockLayout,
    MPIIOCache,
    S3DCheckpoint,
    SimFileSystem,
    TwoStageWriteBehind,
    collective_write,
    fortran_write_checkpoint,
    gpfs,
    independent_write,
    lustre,
)
from repro.io.filesystem import FSConfig, WriteRequest
from repro.io.iomodel import run_io_model


def small_fs(lock_unit=256):
    return SimFileSystem(FSConfig(name="test", lock_unit=lock_unit, n_servers=4))


class TestFileSystem:
    def test_write_read_roundtrip(self):
        fs = small_fs()
        fs.open("f")
        fs.phase_write([WriteRequest(0, "f", 10, b"hello")])
        assert fs.read("f", 10, 5) == b"hello"
        assert fs.read("f", 0, 10) == b"\x00" * 10

    def test_overlapping_writes_last_phase_wins_within_order(self):
        fs = small_fs()
        fs.open("f")
        fs.phase_write([WriteRequest(0, "f", 0, b"aaaa")])
        fs.phase_write([WriteRequest(1, "f", 2, b"bb")])
        assert fs.file_bytes("f") == b"aabb"

    def test_conflict_detection(self):
        """Two clients in the same lock unit conflict even when their
        bytes are disjoint — the §5 false-sharing mechanism."""
        fs = small_fs(lock_unit=256)
        fs.open("f")
        fs.phase_write([
            WriteRequest(0, "f", 0, b"x" * 64),
            WriteRequest(1, "f", 128, b"y" * 64),
        ])
        assert fs.conflict_units == 1
        assert fs.time.lock_wait > 0

    def test_aligned_writes_no_conflict(self):
        fs = small_fs(lock_unit=256)
        fs.open("f")
        fs.phase_write([
            WriteRequest(0, "f", 0, b"x" * 256),
            WriteRequest(1, "f", 256, b"y" * 256),
        ])
        assert fs.conflict_units == 0
        assert fs.time.lock_wait == 0.0

    def test_open_costs_accumulate(self):
        fs = SimFileSystem(gpfs())
        t0 = fs.time.open
        fs.open("a")
        fs.open("b")
        assert fs.time.open > t0

    def test_gpfs_creation_superlinear(self):
        """Marginal creation cost grows on GPFS, flat on Lustre."""
        g = SimFileSystem(gpfs())
        costs = []
        for i in range(200):
            before = g.time.open
            g.open(f"f{i}")
            costs.append(g.time.open - before)
        assert costs[-1] > 2 * costs[0]
        l = SimFileSystem(lustre())
        lcosts = []
        for i in range(200):
            before = l.time.open
            l.open(f"f{i}")
            lcosts.append(l.time.open - before)
        assert lcosts[-1] == pytest.approx(lcosts[0])

    def test_meta_path_matches_functional_costs(self):
        """phase_write and phase_write_meta charge identical time for
        the same request set."""
        reqs = [
            WriteRequest(0, "f", 0, b"x" * 300),
            WriteRequest(1, "f", 100, b"y" * 500),
            WriteRequest(2, "f", 900, b"z" * 100),
        ]
        fs_a = small_fs()
        fs_a.open("f")
        t_func = fs_a.phase_write(reqs)
        fs_b = small_fs()
        fs_b.open("f")
        t_meta = fs_b.phase_write_meta(
            "f", [r.client for r in reqs], [r.offset for r in reqs],
            [len(r.data) for r in reqs],
        )
        assert t_meta == pytest.approx(t_func, rel=1e-12)
        assert fs_b.conflict_units == fs_a.conflict_units

    def test_missing_file_meta(self):
        fs = small_fs()
        with pytest.raises(FileNotFoundError):
            fs.phase_write_meta("nope", [0], [0], [10])


class TestBlockLayout:
    def test_runs_cover_file_exactly(self):
        layout = BlockLayout((4, 4, 2), (2, 2, 1), fourth_dim=3)
        seen = np.zeros(layout.total_bytes // 8, dtype=int)
        for rank in range(layout.n_ranks):
            for off, x0, y, z, m, lx in layout.local_runs(rank):
                e = off // 8
                seen[e : e + lx] += 1
        assert np.all(seen == 1)

    def test_pack_matches_requests(self):
        layout = BlockLayout((4, 6, 2), (2, 3, 1), fourth_dim=2)
        rng = np.random.default_rng(0)
        arr = rng.random((4, 6, 2, 2))
        oracle = layout.pack_global(arr)
        buf = bytearray(len(oracle))
        for rank in range(layout.n_ranks):
            block = layout.local_block(arr, rank)
            for off, data in layout.rank_requests(rank, block):
                buf[off : off + len(data)] = data
        assert bytes(buf) == oracle

    def test_run_offsets_match_local_runs(self):
        layout = BlockLayout((6, 4, 4), (2, 2, 2), fourth_dim=2)
        for rank in (0, 3, 7):
            offs, rl = layout.run_offsets(rank)
            runs = layout.local_runs(rank)
            np.testing.assert_array_equal(
                np.sort(offs), np.sort([r[0] for r in runs])
            )
            assert rl == runs[0][5] * 8

    def test_shape_mismatch_rejected(self):
        layout = BlockLayout((4, 4, 4), (2, 2, 2))
        with pytest.raises(ValueError):
            layout.rank_requests(0, np.zeros((3, 2, 2, 1)))


class TestWritePathCorrectness:
    """Every write path produces byte-identical canonical files."""

    @pytest.fixture(scope="class")
    def checkpoint(self):
        return S3DCheckpoint(proc_shape=(2, 2, 1), block=(4, 4, 4))

    @pytest.fixture(scope="class")
    def arrays(self, checkpoint):
        return checkpoint.synthetic_arrays(seed=1)

    @pytest.mark.parametrize(
        "method", ["fortran", "independent", "collective", "caching", "writebehind"]
    )
    def test_bytes_verified(self, checkpoint, arrays, method):
        fs = SimFileSystem(lustre())
        checkpoint.write_checkpoint(fs, method, arrays, 0)
        assert checkpoint.verify(fs, method, arrays, 0)

    def test_unknown_method(self, checkpoint, arrays):
        fs = SimFileSystem(lustre())
        with pytest.raises(ValueError):
            checkpoint.write_checkpoint(fs, "mystery", arrays, 0)

    def test_independent_conflicts_heavily(self, checkpoint, arrays):
        # a lock unit smaller than the file so alignment effects show
        cfg = FSConfig(name="t", lock_unit=512, n_servers=4)
        fs_i = SimFileSystem(cfg)
        independent_write(fs_i, checkpoint.layouts[0], arrays[0], "shared")
        fs_c = SimFileSystem(cfg)
        collective_write(fs_c, checkpoint.layouts[0], arrays[0], "shared")
        assert fs_i.conflict_units > 5 * max(fs_c.conflict_units, 1)


class TestMPIIOCache:
    def test_single_copy_invariant(self):
        fs = small_fs(lock_unit=256)
        cache = MPIIOCache(fs, "f", n_ranks=4, page_size=256)
        rng = np.random.default_rng(2)
        for rank in range(4):
            cache.write(rank, rank * 100, bytes(rng.bytes(150)))
        for page in cache.page_owner:
            assert cache.cached_copies(page) <= 1
        cache.close()

    def test_bytes_land_after_close(self):
        fs = small_fs(lock_unit=128)
        cache = MPIIOCache(fs, "f", n_ranks=2, page_size=128)
        cache.write(0, 0, b"a" * 200)
        cache.write(1, 200, b"b" * 56)
        cache.close()
        assert fs.file_bytes("f") == b"a" * 200 + b"b" * 56

    def test_remote_forwarding_counted(self):
        fs = small_fs(lock_unit=128)
        cache = MPIIOCache(fs, "f", n_ranks=2, page_size=128)
        cache.write(0, 0, b"x" * 128)   # rank 0 owns page 0
        cache.write(1, 64, b"y" * 32)   # rank 1 forwards into page 0
        assert cache.remote_forwards == 1
        cache.close()
        assert fs.file_bytes("f")[64:96] == b"y" * 32

    def test_eviction_under_pressure(self):
        fs = small_fs(lock_unit=64)
        class _TwoPages(MPIIOCache):
            CACHE_BOUND = 128

        cache = _TwoPages(fs, "f", n_ranks=1, page_size=64)
        cache.write(0, 0, b"a" * 64)
        cache.write(0, 64, b"b" * 64)
        cache.write(0, 128, b"c" * 64)  # exceeds 2-page bound -> evict
        assert cache.evictions >= 1
        cache.close()
        assert fs.file_bytes("f") == b"a" * 64 + b"b" * 64 + b"c" * 64

    def test_flushes_are_aligned(self):
        """All FS requests from the cache start on page boundaries."""
        fs = small_fs(lock_unit=256)
        cache = MPIIOCache(fs, "f", n_ranks=3, page_size=256)
        rng = np.random.default_rng(4)
        flush = []
        for rank in range(3):
            cache.write(rank, 13 + rank * 333, bytes(rng.bytes(300)),
                        flush_requests=flush)
        reqs = list(flush)
        cache_close_reqs = []
        cache.close()
        for r in reqs:
            # dirty high-water flushes start within their page
            assert r.offset // 256 * 256 <= r.offset < r.offset + len(r.data) <= (r.offset // 256 + 1) * 256 + 256


class TestTwoStageWriteBehind:
    def test_bytes_land(self):
        fs = small_fs(lock_unit=128)
        wb = TwoStageWriteBehind(fs, "f", n_ranks=3, page_size=128,
                                 subbuffer_size=64)
        payload = {}
        rng = np.random.default_rng(5)
        pos = 0
        for rank in range(3):
            data = bytes(rng.bytes(200))
            wb.write(rank, pos, data)
            payload[pos] = data
            pos += 200
        wb.close()
        out = fs.file_bytes("f")
        for off, data in payload.items():
            assert out[off : off + len(data)] == data

    def test_round_robin_ownership(self):
        fs = small_fs()
        wb = TwoStageWriteBehind(fs, "f", n_ranks=4)
        assert [wb.page_owner(p) for p in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_local_writes_skip_network(self):
        fs = small_fs(lock_unit=128)
        wb = TwoStageWriteBehind(fs, "f", n_ranks=2, page_size=128)
        wb.write(0, 0, b"z" * 128)  # page 0 owned by rank 0 itself
        assert wb.stage1_flushes == 0
        wb.close()

    def test_subbuffer_flush_threshold(self):
        fs = small_fs(lock_unit=128)
        wb = TwoStageWriteBehind(fs, "f", n_ranks=2, page_size=128,
                                 subbuffer_size=96)
        wb.write(0, 128, b"a" * 64)   # page 1 -> remote, buffered
        assert wb.stage1_flushes == 0
        wb.write(0, 384, b"b" * 64)   # page 3 -> remote, exceeds 96
        assert wb.stage1_flushes == 1


class TestIOModelShapes:
    """Fig 9 orderings at a reduced scale (fast smoke checks; the
    benchmark reproduces the full figure)."""

    def test_lustre_ordering(self):
        res = {
            m: run_io_model(lambda: SimFileSystem(lustre()), m, (2, 2, 2),
                            n_checkpoints=3, block=(20, 20, 20))
            for m in ("fortran", "independent", "collective", "caching",
                      "writebehind")
        }
        bw = {m: r["bandwidth"] for m, r in res.items()}
        assert bw["fortran"] > bw["writebehind"] > bw["caching"] > bw["collective"]
        # independent is catastrophically slow in absolute terms
        assert bw["independent"] < 0.4 * bw["collective"]
        assert bw["independent"] < 20e6

    def test_gpfs_ordering(self):
        res = {
            m: run_io_model(lambda: SimFileSystem(gpfs()), m, (2, 2, 2),
                            n_checkpoints=3, block=(20, 20, 20))
            for m in ("independent", "collective", "caching", "writebehind")
        }
        bw = {m: r["bandwidth"] for m, r in res.items()}
        assert bw["caching"] > bw["collective"] > bw["writebehind"] > bw["independent"]

    def test_gpfs_opens_dwarf_lustre(self):
        g = run_io_model(lambda: SimFileSystem(gpfs()), "fortran", (4, 2, 2),
                         n_checkpoints=5, block=(10, 10, 10))
        l = run_io_model(lambda: SimFileSystem(lustre()), "fortran", (4, 2, 2),
                         n_checkpoints=5, block=(10, 10, 10))
        assert g["open_time"] > 3 * l["open_time"]
