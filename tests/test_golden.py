"""Golden-file regression tests for the two paper scenarios.

Re-runs the tiny lifted-jet and Bunsen-box configurations of
:mod:`repro.analysis.golden` and compares their summary statistics
against the committed JSON under ``tests/goldens/``. Tolerances are
tight (``GOLDEN_SUMMARY_RTOL``, 1e-9 relative): loose enough to absorb
run-to-run library differences across NumPy builds, tight enough that
any genuine change to the numerics fails. Regenerate intentionally with
``python benchmarks/regen_goldens.py`` (see that script's docstring for
when that is and is not appropriate).
"""

import pathlib

import pytest

from repro.analysis.golden import GOLDEN_SCENARIOS, GOLDEN_VERSION, load_golden
from tests.tolerances import GOLDEN_SUMMARY_RTOL

pytestmark = pytest.mark.golden

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: statistics compared against zero get this absolute floor, scaled by
#: the golden field's magnitude range
ATOL_FLOOR = 1e-300


def _compare(got, want, path=""):
    """Recursively compare summary dicts with tight tolerances."""
    if isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: expected dict, got {type(got)}"
        assert set(got) == set(want), (
            f"{path}: keys differ: {sorted(set(got) ^ set(want))}"
        )
        for key in want:
            _compare(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=GOLDEN_SUMMARY_RTOL, abs=ATOL_FLOOR), (
            f"{path}: {got!r} != golden {want!r}"
        )
    else:
        assert got == want, f"{path}: {got!r} != golden {want!r}"


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_scenario_matches_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden {path}; generate with benchmarks/regen_goldens.py"
    )
    golden = load_golden(path)
    assert golden["version"] == GOLDEN_VERSION, (
        "golden schema version mismatch; regenerate with "
        "benchmarks/regen_goldens.py"
    )
    summary = GOLDEN_SCENARIOS[name]()
    _compare(summary, golden, path=name)


def test_goldens_committed():
    """Every scenario has a committed golden (fast lane guard)."""
    for name in GOLDEN_SCENARIOS:
        assert (GOLDEN_DIR / f"{name}.json").exists(), (
            f"tests/goldens/{name}.json is missing; run "
            "benchmarks/regen_goldens.py and commit the result"
        )
