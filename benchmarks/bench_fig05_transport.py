"""Figure 5 on our own kernel: the Wilke / eq. (17) species-pair nest.

The paper's LoopTool study (Figs 4-5) wins 2.94x on the diffusive-flux
loops by not materialising intermediates. The same transformation was
applied by hand to ``MixtureAveragedTransport.evaluate``; this script
writes the pair nest of that evaluator in the :mod:`repro.loopopt` IR
both ways — *materialised* (the parent commit: ``(Ns, Ns)`` pair arrays
and three ``Ns (Ns + 1) / 2`` triangles, each NumPy pass a full sweep
over all pairs) and *streamed* (one ``(Ns - 1 - i)``-row block per
species ``i`` inside a point tile, accumulated into per-species rows) —
replays both through the cache simulator, and prints the simulated
memory traffic next to the measured time and arena bytes of the real
kernel.

The model is scaled so that the cache holds 8 field rows, as a 2 MB L2
holds 8 rows of a 32^3 field, and the tile is a quarter of the field
(8192 of 32 768 points). Only the pair work is modelled; the per-species
parts (mole fractions, Omega22, conductivity) are the same 9-row passes
in both forms.
"""

import time

import numpy as np

from conftest import write_result
from repro.chemistry import h2_li2004
from repro.core.workspace import Workspace
from repro.loopopt import ArrayRef, Assign, Loop, Program, simulate_trace, trace_accesses
from repro.transport import MixtureAveragedTransport

NS = 9
POINTS = 1024          # model field: one row is 8 kB
CACHE = 8 * POINTS * 8  # 8 rows, as L2 / (32^3 * 8 B)
TILE = POINTS // 4


def _sweep(n, lhs, *rhs, accumulate=False):
    """One NumPy pass: ``lhs[p] (+)= f(rhs[p]...)`` over ``n`` points."""
    ref = lambda name, row: ArrayRef(name, (row, ("p", 0)))
    return Loop("p", n, [Assign(ref(*lhs), tuple(ref(*r) for r in rhs),
                                accumulate=accumulate)])


def materialised_program(ns=NS, n=POINTS) -> Program:
    """The parent evaluator's pair work: every pass sweeps all pairs."""
    full = [(i, j) for i in range(ns) for j in range(ns)]
    tri = [(i, j) for i in range(ns) for j in range(i, ns)]
    at = lambda i, j: i * ns + j
    body = []
    # Wilke: pair = sqrt(mu_i / mu_j) ... five in-place passes, then einsum
    body += [_sweep(n, ("pair", at(i, j)), ("mu", i), ("mu", j)) for i, j in full]
    for _ in range(5):
        body += [_sweep(n, ("pair", at(i, j)), ("pair", at(i, j))) for i, j in full]
    body += [_sweep(n, ("den", i), ("X", j), ("pair", at(i, j)), accumulate=True)
             for i, j in full]
    # Omega11 on the triangle: T*, pow, scale, 3 x (mul, exp, scale, add)
    body += [_sweep(n, ("ts", t), ("T", 0)) for t in range(len(tri))]
    body += [_sweep(n, ("om", t), ("ts", t)) for t in range(len(tri))]
    body += [_sweep(n, ("om", t), ("om", t)) for t in range(len(tri))]
    for _ in range(3):
        body += [_sweep(n, ("scr", t), ("ts", t)) for t in range(len(tri))]
        for _ in range(2):
            body += [_sweep(n, ("scr", t), ("scr", t)) for t in range(len(tri))]
        body += [_sweep(n, ("om", t), ("scr", t), accumulate=True) for t in range(len(tri))]
    # D_ij = pref T^1.5 / (p Omega11), mirrored into the full matrix
    body += [_sweep(n, ("scr", t), ("om", t), ("T", 0)) for t in range(len(tri))]
    body += [_sweep(n, ("ts", t), ("T", 0)) for t in range(len(tri))]
    body += [_sweep(n, ("ts", t), ("scr", t), accumulate=True) for t in range(len(tri))]
    for swap in (False, True):
        body += [_sweep(n, ("dd", at(j, i) if swap else at(i, j)), ("ts", t))
                 for t, (i, j) in enumerate(tri)]
    # eq. 17: full sum minus the diagonal
    body += [_sweep(n, ("pair", at(i, j)), ("X", j), ("dd", at(i, j))) for i, j in full]
    body += [_sweep(n, ("inv", i), ("pair", at(i, j)), accumulate=True) for i, j in full]
    body += [_sweep(n, ("tmp", i), ("X", i), ("dd", at(i, i))) for i in range(ns)]
    body += [_sweep(n, ("inv", i), ("tmp", i), accumulate=True) for i in range(ns)]
    arrays = {"mu": (ns, n), "X": (ns, n), "T": (1, n), "den": (ns, n), "inv": (ns, n),
              "tmp": (ns, n), "pair": (ns * ns, n), "dd": (ns * ns, n),
              "ts": (len(tri), n), "om": (len(tri), n), "scr": (len(tri), n)}
    return Program(arrays=arrays, flags={}, body=body)


def streamed_program(ns=NS, n=POINTS, tile=TILE) -> Program:
    """The streamed kernel: per tile, per species ``i``, one block of
    partner rows ``j > i`` feeding the accumulators of ``i`` and ``j``."""
    def sweep(lhs, *rhs, accumulate=False):
        # the scratch blocks are tile-sized and do not move with the tile
        ref = lambda name, row: ArrayRef(
            name, (row, 0 if name in ("blk", "term") else ("t", 0), ("p", 0)))
        return Loop("p", tile, [Assign(ref(*lhs), tuple(ref(*r) for r in rhs),
                                       accumulate=accumulate)])

    body = []
    for i in range(ns - 1):
        partners = range(i + 1, ns)
        blk = lambda j: ("blk", j - i - 1)
        term = lambda j: ("term", j - i - 1)
        # Wilke: Phi_ij for the block, into den_i and low_j
        body += [sweep(blk(j), ("inv_root", j), ("root", i)) for j in partners]
        for _ in range(3):
            body += [sweep(blk(j), blk(j)) for j in partners]
        body += [sweep(term(j), blk(j), ("X", j)) for j in partners]
        body += [sweep(("den", i), term(j), accumulate=True) for j in partners]
        body += [sweep(blk(j), blk(j), ("xw", i)) for j in partners]
        body += [sweep(("low", j), blk(j), accumulate=True) for j in partners]
    for i in range(ns - 1):
        partners = range(i + 1, ns)
        blk = lambda j: ("blk", j - i - 1)
        term = lambda j: ("term", j - i - 1)
        # eq. 17: G_ij for the block, into acc_i and acc_j
        body += [sweep(blk(j), ("tpow", 0)) for j in partners]
        for _ in range(3):
            body += [sweep(term(j), ("T", 0)) for j in partners]
            for _ in range(2):
                body += [sweep(term(j), term(j)) for j in partners]
            body += [sweep(blk(j), term(j), accumulate=True) for j in partners]
        body += [sweep(term(j), blk(j), ("X", j)) for j in partners]
        body += [sweep(("acc", i), term(j), accumulate=True) for j in partners]
        body += [sweep(blk(j), blk(j), ("X", i)) for j in partners]
        body += [sweep(("acc", j), blk(j), accumulate=True) for j in partners]
    ntiles = n // tile
    shape = lambda rows: (rows, ntiles, tile)
    arrays = {name: shape(ns) for name in ("X", "root", "inv_root", "xw", "den", "low", "acc")}
    arrays.update({"T": shape(1), "tpow": shape(1),
                   "blk": (ns - 1, 1, tile), "term": (ns - 1, 1, tile)})
    return Program(arrays=arrays, flags={}, body=[Loop("t", ntiles, body)])


def _passes(prog) -> float:
    """Field-sized row passes (a tile pass counts for its share of a row)."""
    def count(nodes):
        return sum(n.extent / POINTS if n.var == "p" else n.extent * count(n.body)
                   for n in nodes if isinstance(n, Loop))
    return count(prog.body)


def _measured(n=32768, repeats=5):
    mech = h2_li2004()
    tr = MixtureAveragedTransport(mech)
    rng = np.random.default_rng(0)
    T = 300.0 + 2000.0 * rng.random(n)
    Y = rng.random((mech.n_species, n)) + 0.05
    Y /= Y.sum(axis=0)
    ws = Workspace()
    tr.evaluate(T, 101325.0, Y, workspace=ws)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        tr.evaluate(T, 101325.0, Y, workspace=ws)
        best = min(best, time.perf_counter() - t0)
    return best / n * 1e6, ws.nbytes / 1e6


def test_fig05_transport_pair_nest(benchmark):
    def study():
        out = {}
        for name, prog in (("materialised", materialised_program()),
                           ("streamed", streamed_program())):
            stats = simulate_trace(trace_accesses(prog), size_bytes=CACHE)
            out[name] = (_passes(prog), stats)
        return out

    out = benchmark.pedantic(study, rounds=1, iterations=1)
    us_per_point, arena_mb = _measured()
    lines = ["Figure 5 on the transport pair nest (Wilke + eq. 17), cache simulation",
             f"model: {NS} species, {POINTS} points, cache = 8 field rows, tile = {TILE}", ""]
    for name, (passes, stats) in out.items():
        lines.append(f"{name:<13} row passes {passes:5.0f}   misses {stats.misses:8d}   "
                     f"traffic {stats.misses * 64 / POINTS:8.0f} B/point   "
                     f"miss rate {stats.miss_rate:.4f}")
    mat, stream = out["materialised"][1], out["streamed"][1]
    lines += ["", f"simulated traffic reduction: {mat.misses / stream.misses:.1f}x",
              f"measured (this host, 32 768 points, warm arena): "
              f"{us_per_point:.3f} us/point, arena {arena_mb:.1f} MB",
              "parent commit, same call: 1.51 us/point, arena 103.3 MB "
              "(docs/PERFORMANCE.md, Memory traffic)"]
    write_result("fig05_transport_pair_nest.txt", "\n".join(lines) + "\n")
    benchmark.extra_info["traffic_reduction"] = mat.misses / stream.misses
    assert stream.misses * 3 < mat.misses  # streaming must cut traffic decisively
