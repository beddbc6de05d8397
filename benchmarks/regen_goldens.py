#!/usr/bin/env python
"""Regenerate the golden scenario summaries under tests/goldens/, or
compute / check the three explicit sha256 pins.

Run after an *intentional* change to the numerics (discretization,
chemistry, transport, boundaries, integrator):

    PYTHONPATH=src python benchmarks/regen_goldens.py

and explain the regeneration in the commit message. A refactor that is
supposed to preserve the solution bit-for-bit (engine swaps, chemistry
load balancing, loop restructures) must NOT need this script — if
tests/test_golden.py fails after such a change, the refactor is wrong,
not the goldens.

The hash pins (``GOLDEN_EXPLICIT_HASH`` in benchmarks/bench_implicit.py,
``EXPLICIT_5_STEPS`` and ``STRANG_3_STEPS`` in tests/test_scenarios.py)
move together or not at all (docs/TESTING.md, "Bits and tolerances"):

    python benchmarks/regen_goldens.py --pins           # print the three values
    python benchmarks/regen_goldens.py --pins --check   # exit 1 if a constant drifted
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]

from repro.analysis.golden import GOLDEN_SCENARIOS, write_golden  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "goldens"


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, builder in GOLDEN_SCENARIOS.items():
        summary = builder()
        path = GOLDEN_DIR / f"{name}.json"
        write_golden(path, summary)
        print(f"wrote {path}  (T mean {summary['T']['mean']:.3f} K, "
              f"{summary['step_count']} steps to t={summary['time']:.3e} s)")


def pins() -> list:
    """``(where, committed constant, value computed now)`` of every
    sha256 pin, each from the scenario its owner runs."""
    import bench_implicit
    from tests.test_scenarios import TestLiftedJetStateHashes as jet

    return [
        ("benchmarks/bench_implicit.py::GOLDEN_EXPLICIT_HASH",
         bench_implicit.GOLDEN_EXPLICIT_HASH, bench_implicit.explicit_hash()),
        ("tests/test_scenarios.py::EXPLICIT_5_STEPS",
         jet.EXPLICIT_5_STEPS, jet.explicit_hash()),
        ("tests/test_scenarios.py::STRANG_3_STEPS",
         jet.STRANG_3_STEPS, jet.strang_hash()),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pins", action="store_true",
                        help="compute the three sha256 pins instead of "
                             "regenerating the golden summaries")
    parser.add_argument("--check", action="store_true",
                        help="with --pins: exit 1 unless every committed "
                             "constant equals its computed value")
    args = parser.parse_args(argv)
    if args.check and not args.pins:
        parser.error("--check goes with --pins")
    if not args.pins:
        regenerate()
        return 0
    drifted = 0
    for where, committed, computed in pins():
        moved = committed != computed
        drifted += moved
        print(f"{where} = {computed}"
              + (f"   (committed: {committed})" if moved else ""))
    if args.check and drifted:
        print(f"{drifted} of 3 pins differ from their committed constants",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
