"""The statistics of ``benchmarks/ab_pairs.py`` on synthetic numbers
(the tool itself runs once, ``--pairs 1 --smoke``, in the CI
``e2e-ledger`` job)."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _result(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {"us_per_point_step": {"value": value, "unit": "us"}}}


MANIFEST = {"end_to_end": [
    {"name": "us_per_point_step", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert ab.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)
        assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestCompare:
    PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]

    def test_clear_gain_is_claimable(self):
        change = [p - 2.0 for p in self.PARENT]
        m = ab.compare(self.PARENT, change, "lower", bound=0.25)
        assert (m["wins"], m["losses"], m["ties"]) == (10, 0, 0)
        assert m["claimable"] and not m["regressed"] and m["resolved"]
        assert m["change_vs_parent"] == pytest.approx(-2.0 / 10.05)

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [p - 2.0 for p in self.PARENT]
        change[3] = self.PARENT[3] + 0.5
        assert ab.compare(self.PARENT, change)["claimable"]
        change[4] = self.PARENT[4] + 0.5
        m = ab.compare(self.PARENT, change)
        assert m["wins"] == 8 and not m["claimable"]

    def test_ties_count_for_neither_side(self):
        change = [p - 2.0 for p in self.PARENT]
        change[0], change[1] = self.PARENT[0], self.PARENT[1]
        m = ab.compare(self.PARENT, change)
        assert (m["wins"], m["ties"]) == (8, 2) and not m["claimable"]

    def test_gain_inside_the_parents_own_spread_is_not_claimable(self):
        # wins every pair, but by less than the parent's quartile distance
        change = [p - 0.05 for p in self.PARENT]
        m = ab.compare(self.PARENT, change)
        assert m["wins"] == 10 and m["parent_iqr"] > 0.05 and not m["claimable"]

    def test_fewer_than_ten_pairs_never_claim(self):
        m = ab.compare(self.PARENT[:5], [p - 5.0 for p in self.PARENT[:5]])
        assert m["wins"] == 5 and not m["claimable"]

    def test_higher_is_better(self):
        m = ab.compare(self.PARENT, [p + 2.0 for p in self.PARENT], "higher", bound=0.05)
        assert m["wins"] == 10 and m["claimable"] and not m["regressed"]
        m = ab.compare(self.PARENT, [p - 2.0 for p in self.PARENT], "higher", bound=0.05)
        assert m["losses"] == 10 and m["regressed"] and not m["claimable"]

    def test_regression_is_judged_against_the_bound(self):
        m = ab.compare(self.PARENT, [p * 1.2 for p in self.PARENT], bound=0.25)
        assert not m["regressed"]
        m = ab.compare(self.PARENT, [p * 1.3 for p in self.PARENT], bound=0.25)
        assert m["regressed"]

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [10.0, 14.0, 8.0, 13.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0]
        m = ab.compare(noisy, [v + 0.1 for v in noisy], bound=0.05)
        assert not m["resolved"]
        # ... unless every run of the change beats every run of the parent
        m = ab.compare(noisy, [v - 10.0 for v in noisy], bound=0.05)
        assert m["resolved"]

    def test_rejects_unpaired_input(self):
        with pytest.raises(ValueError):
            ab.compare([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            ab.compare([], [])
        with pytest.raises(ValueError):
            ab.compare([1.0], [1.0], better="sideways")


class TestSummarize:
    def test_alternation_and_failure_accounting(self, monkeypatch):
        calls = []

        def fake_run(checkout, workload, seed, seconds, smoke, env=None):
            calls.append((checkout, workload, seed, smoke, env))
            return _result(10.0 if checkout == "P" else 8.0,
                           correct=not (checkout == "C" and seed == 102 and workload == "b"))

        monkeypatch.setattr(ab, "run_once", fake_run)
        runs = ab.run_pairs("P", "C", ["a", "b"], pairs=3, seed0=100, seconds=None,
                            smoke=False, log=lambda line: None)
        # one untimed smoke-size warm-up per side and workload comes first
        warm, calls = calls[:4], calls[4:]
        assert [(c[0], c[1], c[3]) for c in warm] == [
            ("P", "a", True), ("P", "b", True), ("C", "a", True), ("C", "b", True)]
        assert not any(c[3] for c in calls)
        # each side keeps one bytecode cache of its own through every run
        caches = {c[0]: c[4]["PYTHONPYCACHEPREFIX"] for c in warm}
        assert caches["P"] != caches["C"]
        assert all(c[4]["PYTHONPYCACHEPREFIX"] == caches[c[0]] for c in calls)
        # both sides see the same seed; who goes first alternates per pair
        assert [c[0] for c in calls if c[1] == "a"] == ["P", "C", "C", "P", "P", "C"]
        assert [p["seed"] for p in runs["a"]] == [100, 101, 102]
        summary = ab.summarize(runs, MANIFEST)
        assert summary["a"]["ok"] and not summary["b"]["ok"]
        m = summary["a"]["metrics"]["us_per_point_step"]
        assert m["wins"] == 3 and m["change"]["median"] == 8.0
        assert "setup_s" not in summary["a"]["metrics"]  # not in the fake result
        assert "us_per_point_step" in ab.render(summary)


class TestChildEnvironment:
    def test_both_sides_get_equal_bytecode_cache_conditions(self):
        base = {"PATH": "/bin", "PYTHONDONTWRITEBYTECODE": "1",
                "PYTHONPYCACHEPREFIX": "/somewhere/else"}
        env = ab.child_env("/tmp/x/parent", base)
        assert env["PYTHONPYCACHEPREFIX"] == "/tmp/x/parent"
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PATH"] == "/bin"
        assert base["PYTHONDONTWRITEBYTECODE"] == "1"  # the caller's is untouched

    def test_run_once_hands_the_environment_to_the_child(self, monkeypatch):
        seen = {}

        def fake_subprocess_run(cmd, **kw):
            seen.update(kw, cmd=cmd)
            return type("P", (), {"stdout": '{"correct": true}', "stderr": ""})()

        monkeypatch.setattr(ab.subprocess, "run", fake_subprocess_run)
        env = ab.child_env("/tmp/x/change", {})
        assert ab.run_once("/co", "w", 3, 1.5, True, env=env) == {"correct": True}
        assert seen["env"] is env and seen["cwd"] == "/co"
        assert seen["cmd"][-2:] == ["1.5", "--smoke"]
