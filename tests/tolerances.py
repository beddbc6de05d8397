"""The tolerances the suite relies on, each with a name and a reason.

Everything compared bit for bit needs no entry here (``np.array_equal``
is its own statement); everything compared at a tolerance imports the
tolerance from this module, so loosening one is a one-line, visible
diff. The rule that goes with it is in docs/TESTING.md ("Bits and
tolerances"). A bare literal elsewhere in ``tests/`` is a candidate for
a row, not a second convention.
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

#: ``stable_dt`` after ``CompressibleRHS.reference`` against ``stable_dt``
#: after a call: the oracle leaves a converged Newton guess that
#: ``stable_dt`` re-solves from, a call leaves its memoized properties,
#: so agreement is round-off, not bits.
STABLE_DT_ENGINES_RTOL = 1e-10

#: A recovered multiprocessing-transport run against the fault-free
#: run (relative, per conserved variable): in practice bitwise, the
#: contract leaves room for a respawned worker's libm.
MP_TRANSPORT_RTOL = 1e-12

#: The streamed, pair-symmetric transport kernel against the pair-array
#: evaluator it replaced and against the readable per-property formulas
#: (relative, per field): the kernel reassociates products and
#: approximates nothing — measured a few ulp over 250-3500 K.
TRANSPORT_KERNEL_RTOL = 1e-13

#: The analytical source-term Jacobian against central differences, as
#: max |J - J_fd| / max |J| per cell: the bound is the difference
#: quotient's own error at a 1e-5 relative step (O(h^2) truncation,
#: O(eps / h) round-off), not the Jacobian's.
FD_JACOBIAN_RTOL = 1e-6
