"""The tolerances the suite relies on, each with a name and a reason.

Everything compared bit for bit needs no entry here (``np.array_equal``
is its own statement); everything compared at a tolerance imports the
tolerance from this module, so loosening one is a one-line, visible
diff. The rule that goes with it is in docs/TESTING.md ("Bits and
tolerances"). The registry starts with the classes PR 23 touched; a
bare literal elsewhere in ``tests/`` is a candidate for a row, not a
second convention.
"""

#: The folded per-cell Newton temperature solve against the frozen
#: whole-batch species-sum iteration it replaced (relative, in T): both
#: apply the update that passed their test, so both sit at the round-off
#: of evaluating e(T) — a few 1e-14 on random mixtures.
NEWTON_VS_ORACLE_RTOL = 1e-12

#: Golden scenario summaries (tests/goldens/*.json) against a re-run:
#: absorbs library differences across NumPy builds and last-digit moves
#: of the explicit path, fails on any genuine change to the numerics.
GOLDEN_SUMMARY_RTOL = 1e-9

#: ``stable_dt`` of the batched engine against the naive engine's: the
#: naive path re-runs the Newton solve from a converged guess where the
#: batched path memoizes, so agreement is round-off, not bits.
STABLE_DT_ENGINES_RTOL = 1e-10

#: A recovered multiprocessing-transport run against the fault-free
#: run (relative, per conserved variable): in practice bitwise, the
#: contract leaves room for a respawned worker's libm.
MP_TRANSPORT_RTOL = 1e-12
