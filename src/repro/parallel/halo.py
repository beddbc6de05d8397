"""Ghost-zone (halo) exchange between nearest neighbours.

S3D constructs a ghost zone at processor boundaries with non-blocking
MPI sends/receives among nearest neighbours in the 3D topology (§2.6).
The 8th-order derivative stencil needs 4 ghost layers, the 10th-order
filter 5; :class:`HaloExchanger` defaults to the larger.

A ghost zone here is a pair of *slabs* per decomposed axis — the rows a
rank's two neighbours own just beyond its faces — that travel as message
payloads and land in the ghost pad of one stencil sweep
(:func:`repro.core.stencil.flat_source`); no rank ever holds a
ghost-extended array. An exchange runs in two bulk-synchronous phases —
post all sends, then drain receives — matching the non-blocking overlap
pattern of the original code. Face-only messages suffice because all
stencils here are axis-aligned.
"""

from __future__ import annotations

from repro.core.filters import FILTER_HALF_WIDTH
from repro.core.stencil import along
from repro.telemetry import resolve as resolve_telemetry


def edge_slabs(block, axis: int, width: int) -> tuple:
    """``(lo, hi)``: the first and last ``width`` rows of ``block`` along
    ``axis`` — what its two neighbours need as ghosts."""
    n = block.shape[axis]
    return block[along(axis, 0, width)], block[along(axis, n - width, n)]


class HaloExchanger:
    """Exchanges ghost slabs for block-decomposed fields.

    Parameters
    ----------
    decomp:
        A :class:`~repro.parallel.decomp.CartesianDecomposition`.
    world:
        A :class:`~repro.parallel.comm.Transport` world of matching size.
    width:
        Ghost-layer count per face of :meth:`exchange` (default: the
        filter's 5, which covers the derivative's 4).
    telemetry:
        Telemetry backend; each exchange runs under a ``HALO_EXCHANGE``
        span and accumulates ``halo.bytes`` / ``halo.messages`` counters
        (the communication observables of §2.6/§4).
    """

    def __init__(self, decomp, world, width: int = FILTER_HALF_WIDTH,
                 telemetry=None):
        if world.size != decomp.size:
            raise ValueError(
                f"world size {world.size} != decomposition size {decomp.size}"
            )
        self.decomp = decomp
        self.world = world
        self.width = int(width)
        if self.width < 1:
            raise ValueError("ghost width must be >= 1")
        #: the decomposed axes: along the others a rank is its own
        #: neighbour (or has none) and its sweeps wrap (or close)
        self.axes = tuple(a for a, p in enumerate(decomp.proc_shape) if p > 1)
        #: per axis and rank, the (low, high) neighbour to exchange with:
        #: None at a wall, and when the neighbour is the rank itself
        self._peers = [
            [[nb if nb != rank else None
              for nb in (decomp.neighbor(rank, axis, d) for d in (-1, 1))]
             for rank in range(decomp.size)]
            for axis in range(decomp.ndim)
        ]
        self.telemetry = resolve_telemetry(telemetry)
        self._bytes = self.telemetry.counter("halo.bytes")
        self._messages = self.telemetry.counter("halo.messages")

    def extended_shape(self, rank: int) -> tuple:
        """Shape of the block ``rank`` allocates and evaluates physics
        on: the block it owns — ghost slabs are message payloads and pad
        rows of a sweep, never resident array layers."""
        return self.decomp.local_shape(rank)

    # ------------------------------------------------------------------
    def exchange(self, blocks: list, leading_axes: int = 0, axis=None) -> list:
        """Per-rank ``(lo, hi)`` ghost slabs of the owned ``blocks``
        along one axis (default: the first decomposed one), ``width``
        rows deep — the exchange a filter pass of the conserved stack
        performs. (A send copies its payload, so the blocks may be
        filtered in place while a neighbour holds their old edge rows.)
        """
        if axis is None:
            axis = self.axes[0] if self.axes else 0
        edges = [edge_slabs(b, leading_axes + axis, self.width) for b in blocks]
        with self.telemetry.span("HALO_EXCHANGE"):
            return self._route(axis, edges)

    def route(self, edges: list, axis=None) -> list:
        """Deliver every rank's edge slabs to its neighbours.

        ``edges[rank]`` is flat — ``(lo, hi)`` of the first decomposed
        axis, then of the next, or of ``axis`` alone when one is named;
        the result has the same layout and holds, per axis, the slabs
        lying beyond the rank's low and high face.
        """
        axes = self.axes if axis is None else (axis,)
        with self.telemetry.span("HALO_EXCHANGE"):
            ghosts = [
                self._route(axis, [e[2 * i : 2 * i + 2] for e in edges])
                for i, axis in enumerate(axes)
            ]
        return [sum(per_rank, ()) for per_rank in zip(*ghosts)]

    def _route(self, axis: int, edges: list) -> list:
        """The one-axis slab exchange: rank ``r`` sends ``edges[r][0]``
        to its low neighbour and ``edges[r][1]`` to its high one, and
        receives ``(lo, hi)`` — the high edge of the former, the low
        edge of the latter. A side without a neighbour (a wall), or
        whose neighbour is the rank itself (an undecomposed periodic
        axis: its sweep wraps), sends nothing and receives ``None``.
        """
        world, peers = self.world, self._peers[axis]
        ranks = range(self.decomp.size)
        # phase 1: all ranks post sends of their edge slabs
        for rank in ranks:
            comm = world.comm(rank)
            for nb, slab, tag in zip(peers[rank], edges[rank],
                                     (2 * axis, 2 * axis + 1)):
                if nb is not None:
                    comm.Isend(slab, dest=nb, tag=tag)
                    self._bytes.inc(slab.nbytes)
                    self._messages.inc()
        # phase 2: all ranks drain receives — a low ghost is what the low
        # neighbour sent upward, and the other way round
        return [
            tuple(None if nb is None else world.comm(rank).Recv(source=nb, tag=tag)
                  for nb, tag in zip(peers[rank], (2 * axis + 1, 2 * axis)))
            for rank in ranks
        ]
