"""A small loop-nest IR with reference interpreter and access tracing.

The IR models the structure LoopTool operates on (§4.1): perfect or
imperfect nests of counted loops containing guarded array assignments
with affine single-variable subscripts. Semantics are deliberately
simple — each assignment computes the sum of its right-hand-side
references (optionally accumulating into the destination) — which is
enough to *verify* that source-to-source transformations preserve
results, and to generate exact memory-access traces for the cache
simulator.

IR nodes
--------
``ArrayRef(name, idx)``
    ``idx`` is a tuple whose entries are either an ``int`` constant or
    a ``(var, offset)`` pair meaning ``value_of(var) + offset``.
``Assign(lhs, rhs, accumulate=False, guard=None)``
    ``lhs = sum(rhs)`` (or ``lhs += sum(rhs)``); ``guard`` names a
    program flag that must be True for the statement to execute.
``Loop(var, extent, body)``
    ``for var in range(extent): body``.
``Guard(flag, body, negate=False)``
    an explicit conditional region (what unswitching hoists).
``Program(arrays, flags, body)``
    ``arrays`` maps names to shapes; ``flags`` maps flag names to bools.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class ArrayRef:
    name: str
    idx: tuple

    def resolve(self, env: dict) -> tuple:
        out = []
        for e in self.idx:
            if isinstance(e, tuple):
                var, off = e
                out.append(env[var] + off)
            else:
                out.append(int(e))
        return tuple(out)

    def substitute(self, var: str, new_offset_base) -> "ArrayRef":
        """Replace ``(var, off)`` entries by ``(new_var, f*i + off)`` style.

        ``new_offset_base`` is a ``(new_var, scale_note, add)`` — for
        unroll-and-jam we only need ``var -> (var, add)`` rewrites, so
        this substitutes ``(var, off)`` with ``(var, off + add)``.
        """
        add = new_offset_base
        out = []
        for e in self.idx:
            if isinstance(e, tuple) and e[0] == var:
                out.append((var, e[1] + add))
            else:
                out.append(e)
        return ArrayRef(self.name, tuple(out))


@dataclass(frozen=True)
class Assign:
    lhs: ArrayRef
    rhs: tuple
    accumulate: bool = False
    guard: str | None = None

    def substitute(self, var: str, add: int) -> "Assign":
        return Assign(
            lhs=self.lhs.substitute(var, add),
            rhs=tuple(r.substitute(var, add) for r in self.rhs),
            accumulate=self.accumulate,
            guard=self.guard,
        )


@dataclass(frozen=True)
class Loop:
    var: str
    extent: int
    body: tuple

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True)
class Guard:
    flag: str
    body: tuple
    negate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass
class Program:
    arrays: dict
    flags: dict
    body: tuple

    def __post_init__(self):
        self.body = tuple(self.body)


# ----------------------------------------------------------------------
# interpreter
# ----------------------------------------------------------------------
def interpret(program: Program, inputs: dict | None = None) -> dict:
    """Execute the program; returns the final array store.

    ``inputs`` seeds named arrays (copied); unspecified arrays start at
    a deterministic pseudo-random state so transforms are checked on
    non-trivial data.
    """
    store = {}
    rng = np.random.default_rng(12345)
    for name, shape in program.arrays.items():
        if inputs and name in inputs:
            store[name] = np.array(inputs[name], dtype=float, copy=True)
            if store[name].shape != tuple(shape):
                raise ValueError(f"input {name} has shape {store[name].shape}, want {shape}")
        else:
            store[name] = rng.random(shape)
    _run(program.body, {}, store, program.flags)
    return store


def _run(nodes, env, store, flags):
    for node in nodes:
        if isinstance(node, Loop):
            for i in range(node.extent):
                env[node.var] = i
                _run(node.body, env, store, flags)
            env.pop(node.var, None)
        elif isinstance(node, Guard):
            taken = bool(flags.get(node.flag, False))
            if node.negate:
                taken = not taken
            if taken:
                _run(node.body, env, store, flags)
        elif isinstance(node, Assign):
            if node.guard is not None and not flags.get(node.guard, False):
                continue
            value = sum(store[r.name][r.resolve(env)] for r in node.rhs)
            tgt = node.lhs.resolve(env)
            if node.accumulate:
                store[node.lhs.name][tgt] += value
            else:
                store[node.lhs.name][tgt] = value
        else:
            raise TypeError(f"unknown IR node {node!r}")


# ----------------------------------------------------------------------
# memory-access tracing
# ----------------------------------------------------------------------
#: bytes per array element in :func:`trace_accesses` (double precision)
WORD_BYTES = 8


def trace_accesses(program: Program):
    """Byte-address access trace ``[(address, is_write), ...]``.

    Arrays are laid out contiguously one after another (C order), which
    is how the cache simulator sees the reuse structure.
    """
    bases = {}
    offset = 0
    strides = {}
    for name, shape in program.arrays.items():
        bases[name] = offset
        shape = tuple(shape)
        size = int(np.prod(shape))
        offset += size * WORD_BYTES
        s = []
        acc = 1
        for dim in reversed(shape):
            s.append(acc)
            acc *= dim
        strides[name] = tuple(reversed(s))

    trace = []

    def addr(ref: ArrayRef, env):
        idx = ref.resolve(env)
        flat = sum(i * s for i, s in zip(idx, strides[ref.name]))
        return bases[ref.name] + flat * WORD_BYTES

    def walk(nodes, env):
        for node in nodes:
            if isinstance(node, Loop):
                for i in range(node.extent):
                    env[node.var] = i
                    walk(node.body, env)
                env.pop(node.var, None)
            elif isinstance(node, Guard):
                taken = bool(program.flags.get(node.flag, False))
                if node.negate:
                    taken = not taken
                if taken:
                    walk(node.body, env)
            elif isinstance(node, Assign):
                if node.guard is not None and not program.flags.get(node.guard, False):
                    continue
                for r in node.rhs:
                    trace.append((addr(r, env), False))
                if node.accumulate:
                    trace.append((addr(node.lhs, env), False))
                trace.append((addr(node.lhs, env), True))

    walk(program.body, {})
    return trace
