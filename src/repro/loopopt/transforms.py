"""LoopTool-style source-to-source loop transformations (§4.1, Fig 5).

The transform set the paper applies to the diffusive-flux nest:

* :func:`unswitch` — hoist loop-invariant conditionals out of a nest,
  yielding one specialized nest per flag setting;
* :func:`fuse_adjacent_loops` — merge consecutive loops with the same
  induction variable and extent (legality: no fused statement may read
  an array element written by a *later* original statement at a
  different offset — we conservatively require all cross-statement
  dependences to be offset-identical);
* :func:`unroll_and_jam` — unroll an outer loop and jam the copies into
  its inner loop body, creating register/cache reuse across outer
  iterations; remainder iterations are peeled.

All transforms are checked semantics-preserving by interpreting the
program before and after (see the test suite) — the same guarantee
LoopTool's validation provides.
"""

from __future__ import annotations

from repro.loopopt.ir import Assign, Guard, Loop, Program


def _contains_guard(nodes) -> bool:
    for n in nodes:
        if isinstance(n, Guard):
            return True
        if isinstance(n, Loop) and _contains_guard(n.body):
            return True
    return False


def _strip_guards(nodes, setting: dict):
    """Resolve Guard nodes under a given flag setting."""
    out = []
    for n in nodes:
        if isinstance(n, Guard):
            taken = setting[n.flag] if not n.negate else not setting[n.flag]
            if taken:
                out.extend(_strip_guards(n.body, setting))
        elif isinstance(n, Loop):
            out.append(Loop(n.var, n.extent, _strip_guards(n.body, setting)))
        elif isinstance(n, Assign):
            if n.guard is not None:
                if setting[n.guard]:
                    out.append(
                        Assign(n.lhs, n.rhs, accumulate=n.accumulate, guard=None)
                    )
            else:
                out.append(n)
        else:
            out.append(n)
    return out


def _collect_flags(nodes, found: set):
    for n in nodes:
        if isinstance(n, Guard):
            found.add(n.flag)
            _collect_flags(n.body, found)
        elif isinstance(n, Loop):
            _collect_flags(n.body, found)
        elif isinstance(n, Assign) and n.guard is not None:
            found.add(n.guard)


def unswitch(program: Program) -> Program:
    """Hoist all conditionals: one specialized body per flag setting.

    The result contains nested Guard regions at the *top* level (outside
    all loops), each holding a fully despecialized copy of the body —
    Fig 5's "unswitching the two conditionals yields four loop nests".
    """
    flags: set = set()
    _collect_flags(program.body, flags)
    flags = sorted(flags)
    if not flags:
        return program

    def build(setting_flags, remaining):
        if not remaining:
            return tuple(_strip_guards(program.body, setting_flags))
        flag, rest = remaining[0], remaining[1:]
        on = build({**setting_flags, flag: True}, rest)
        off = build({**setting_flags, flag: False}, rest)
        return (
            Guard(flag, on, negate=False),
            Guard(flag, off, negate=True),
        )

    return Program(program.arrays, program.flags, build({}, flags))


# ----------------------------------------------------------------------
def _writes_reads(nodes):
    """All (array, idx) writes and reads in a subtree."""
    writes, reads = [], []
    for n in nodes:
        if isinstance(n, Loop):
            w, r = _writes_reads(n.body)
            writes += w
            reads += r
        elif isinstance(n, Guard):
            w, r = _writes_reads(n.body)
            writes += w
            reads += r
        elif isinstance(n, Assign):
            writes.append(n.lhs)
            reads.extend(n.rhs)
            if n.accumulate:
                reads.append(n.lhs)
    return writes, reads


def _may_conflict(a, b) -> bool:
    """Whether two refs to the same array may touch a common element
    under loop fusion.

    Disjoint when some dimension has two unequal constants; a
    loop-carried hazard when a shared-variable dimension has different
    offsets; identical-subscript pairs are fine (offset-exact
    dependence, preserved by fusion).
    """
    if a.name != b.name:
        return False
    if a.idx == b.idx:
        return False
    for ea, eb in zip(a.idx, b.idx):
        if isinstance(ea, tuple) or isinstance(eb, tuple):
            if (
                isinstance(ea, tuple)
                and isinstance(eb, tuple)
                and ea[0] == eb[0]
                and ea[1] != eb[1]
            ):
                return True  # loop-carried distance != 0
            if isinstance(ea, tuple) != isinstance(eb, tuple):
                return True  # constant vs variable: may coincide
        else:
            if int(ea) != int(eb):
                return False  # provably distinct elements
    return False


def _fusable(a: Loop, b: Loop) -> bool:
    if a.var != b.var or a.extent != b.extent:
        return False
    w_a, r_a = _writes_reads(a.body)
    w_b, r_b = _writes_reads(b.body)

    def clean(deps_w, deps_r):
        return not any(_may_conflict(w, r) for w in deps_w for r in deps_r)

    return clean(w_a, r_b) and clean(w_b, r_a) and clean(w_a, w_b)


def fuse_adjacent_loops(nodes) -> tuple:
    """Fuse runs of adjacent same-shape loops (recursively)."""
    out = []
    for n in nodes:
        if isinstance(n, Loop):
            n = Loop(n.var, n.extent, fuse_adjacent_loops(n.body))
            if out and isinstance(out[-1], Loop) and _fusable(out[-1], n):
                prev = out.pop()
                out.append(Loop(prev.var, prev.extent, prev.body + n.body))
                continue
        elif isinstance(n, Guard):
            n = Guard(n.flag, fuse_adjacent_loops(n.body), negate=n.negate)
        out.append(n)
    return tuple(out)


def fuse_program(program: Program) -> Program:
    return Program(program.arrays, program.flags, fuse_adjacent_loops(program.body))


# ----------------------------------------------------------------------
def _substitute_subtree(nodes, var: str, add: int):
    out = []
    for n in nodes:
        if isinstance(n, Loop):
            out.append(Loop(n.var, n.extent, _substitute_subtree(n.body, var, add)))
        elif isinstance(n, Guard):
            out.append(Guard(n.flag, _substitute_subtree(n.body, var, add), n.negate))
        elif isinstance(n, Assign):
            out.append(n.substitute(var, add))
        else:
            out.append(n)
    return out


def _bind_subtree(nodes, var: str, value: int):
    """Replace every ``(var, off)`` subscript with the constant
    ``value + off`` (binds the loop variable to a concrete iteration)."""
    from repro.loopopt.ir import ArrayRef

    def bind_ref(ref):
        idx = []
        for e in ref.idx:
            if isinstance(e, tuple) and e[0] == var:
                idx.append(value + e[1])
            else:
                idx.append(e)
        return ArrayRef(ref.name, tuple(idx))

    out = []
    for n in nodes:
        if isinstance(n, Loop):
            out.append(Loop(n.var, n.extent, _bind_subtree(n.body, var, value)))
        elif isinstance(n, Guard):
            out.append(Guard(n.flag, _bind_subtree(n.body, var, value), n.negate))
        elif isinstance(n, Assign):
            out.append(
                Assign(
                    bind_ref(n.lhs),
                    tuple(bind_ref(r) for r in n.rhs),
                    accumulate=n.accumulate,
                    guard=n.guard,
                )
            )
        else:
            out.append(n)
    return out


def unroll_and_jam(loop: Loop, factor: int) -> tuple:
    """Unroll ``loop`` by ``factor``, jamming copies into the inner body.

    LoopTool applies this to the short direction (m, extent 3) and
    species (n) loops of the diffusive-flux nest; the unrolled copies of
    the inner statements sit adjacent in the jammed body, creating the
    register/cache reuse Fig 4 highlights. Short loops are expanded
    fully — faithful to the real transform's code growth ("35 lines ->
    445 lines", Fig 5). Remainder iterations are peeled.
    """
    if factor < 2:
        return (loop,)
    main_trips = loop.extent // factor
    rem = loop.extent % factor
    # jam: for each trip j, copies k = 0..factor-1 of the body with the
    # loop variable bound to j*factor + k, interleaved statement-wise so
    # matching statements of the copies sit together (the "jam").
    nodes = []
    for j in range(main_trips):
        copies = [
            _bind_subtree(loop.body, loop.var, j * factor + k)
            for k in range(factor)
        ]
        for stmt_idx in range(len(loop.body)):
            for k in range(factor):
                nodes.append(copies[k][stmt_idx])
    for r in range(rem):
        nodes.extend(_bind_subtree(loop.body, loop.var, main_trips * factor + r))
    return tuple(nodes)


def apply_to_loops(nodes, var: str, fn):
    """Replace every ``Loop(var, ...)`` in the tree by ``fn(loop)``.

    ``fn`` returns a tuple of replacement nodes — the shape
    :func:`unroll_and_jam` produces. Used to drive transforms on inner
    loops of a program, e.g. ``apply_to_loops(p.body, "n", lambda l:
    unroll_and_jam(l, 2))``.
    """
    out = []
    for n in nodes:
        if isinstance(n, Loop):
            if n.var == var:
                out.extend(fn(n))
            else:
                out.append(Loop(n.var, n.extent, apply_to_loops(n.body, var, fn)))
        elif isinstance(n, Guard):
            out.append(Guard(n.flag, apply_to_loops(n.body, var, fn), n.negate))
        else:
            out.append(n)
    return tuple(out)


def looptool_pipeline(program: Program) -> Program:
    """The full Fig 5 transform sequence.

    unswitch (2 conditionals -> specialized nests) -> fuse (merge the
    scalarized sweeps) -> unroll-and-jam the species loop ``n`` by 2 ->
    fuse the jammed copies. Semantics-preserving end to end.
    """
    p = unswitch(program)
    p = fuse_program(p)
    body = apply_to_loops(p.body, "n", lambda l: unroll_and_jam(l, 2))
    p = Program(p.arrays, p.flags, body)
    return fuse_program(p)
