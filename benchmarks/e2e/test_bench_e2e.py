"""Self-test of the end-to-end benchmark (``--smoke`` sizes, < 60 s).

    python -m pytest benchmarks/e2e -q

Smoke runs stamp ``smoke: true`` and are never comparable with real
runs; they only prove that every declared workload and metric is
emitted, that a wrong reference fails the run, and that the span and
ledger arithmetic is right.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(*argv):
    return subprocess.run([sys.executable, RUN, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """Every workload, untraced and traced, at smoke size."""
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    proc = run("--smoke", "--out", str(out), "--trace-out", str(out.parent))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fh:
        return json.load(fh)["runs"]


def test_manifest_is_in_the_prescribed_schema():
    m = manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert m["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    names = ([w["name"] for w in m["workloads"]]
             + [x["name"] for x in m["end_to_end"] + m["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for x in m["end_to_end"]:
        assert set(x) == {"name", "unit", "better", "bound"}
        assert 0 < x["bound"] <= 0.25
    for x in m["per_layer"]:
        assert set(x) == {"name", "unit", "better"}
    for x in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(x["unit"]) and x["better"] in ("lower", "higher")
    setup = [x for x in m["end_to_end"] if x["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(x["bound"] for x in m["end_to_end"])


def test_every_workload_and_metric_is_emitted(smoke_records):
    m = manifest()
    by_key = {(r["workload"], r["trace"]): r for r in smoke_records}
    assert set(by_key) == {(w["name"], t) for w in m["workloads"]
                           for t in (0, 1)}
    applicable = set()
    for (workload, trace), rec in by_key.items():
        declared = m["per_layer" if trace else "end_to_end"]
        assert rec["smoke"] is True
        assert rec["correct"] and rec["failed"] == 0, rec["failures"]
        assert rec["attempted"] >= 1
        assert list(rec["metrics"]) == [x["name"] for x in declared]
        for x in declared:
            got = rec["metrics"][x["name"]]
            assert got["unit"] == x["unit"]
            assert isinstance(got["value"], float)
        assert rec["host"]["usable_cores"] >= 1
        assert rec["missing"] == [] if trace else True
        if trace:
            applicable |= set(rec["metrics"]) - set(rec["not_applicable"])
        else:
            assert all(v["value"] > 0 for v in rec["metrics"].values())
    # no declared per-layer metric is dead on every workload
    assert applicable == {x["name"] for x in m["per_layer"]}


def test_result_line_of_one_run(smoke_records):
    proc = run("--workload", "bunsen2d_ch4_periodic", "--smoke", "--seed",
               "5", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {x["name"]
                                    for x in manifest()["end_to_end"]}


def test_wrong_reference_fails_the_run(smoke_records, tmp_path):
    name = "bunsen2d_ch4_periodic"
    summary = next(r["summary"] for r in smoke_records
                   if r["workload"] == name and r["trace"] == 0)
    path = tmp_path / f"{name}.smoke.json"
    argv = ("--workload", name, "--smoke", "--trace", "0",
            "--reference-dir", str(tmp_path))
    path.write_text(json.dumps(summary))
    good = run(*argv)
    assert good.returncode == 0, good.stdout[-2000:]
    summary["T"]["max"] *= 1.0 + 1e-6
    path.write_text(json.dumps(summary))
    bad = run(*argv)
    assert bad.returncode != 0
    line = json.loads(bad.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_span_self_time_on_a_hand_built_tree():
    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end,
                "parent": parent, "workload": "w"}

    tree = [
        span(0, "step", 0.0, 10.0, None),
        span(1, "rhs", 1.0, 4.0, 0),
        span(2, "rhs", 3.0, 6.0, 0),      # overlaps its sibling: cover 1..6
        span(3, "deriv", 1.5, 2.5, 1),
        span(4, "monitor", 12.0, 13.0, None),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    by_name = spans.self_time_by_name(tree)
    assert by_name["rhs"] == {"self_s": 5.0, "calls": 2}
    assert spans.covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    rec = spans.SpanRecorder("w", clock=iter(range(100)).__next__)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert [s["parent"] for s in rec.spans] == [None, 0]
    assert spans.self_times(rec.spans) == {0: 2.0, 1: 1.0}
    events = spans.chrome_trace(rec.spans, "t")["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]


def test_a_missing_ledger_span_is_missing_not_zero():
    import worker

    excl = {"THERMOPROPS": 0.5, "DERIVATIVES": 0.2, "INTEGRATE": 0.2,
            "CHECKPOINT_VERIFY": 0.05}
    out, missing = worker.ledger(
        excl, [], wall_s=1.0,
        expected=("THERMOPROPS", "DERIVATIVES", "INTEGRATE", "FILTER"))
    assert missing == ["ledger.share.FILTER"]
    assert out["ledger.share.FILTER"] is None
    assert out["ledger.share.HALO_EXCHANGE"] is None   # not expected here
    assert out["ledger.share.OTHER"] == pytest.approx(0.05)
    assert out["ledger.untracked_frac"] == pytest.approx(0.05)
    # ranks: a kernel's mean comes out of the driver's INTEGRATE wait
    out, missing = worker.ledger(
        {"INTEGRATE": 0.8, "HALO_EXCHANGE": 0.1},
        [{"THERMOPROPS": 0.6}, {"THERMOPROPS": 0.4}], wall_s=1.0,
        expected=("INTEGRATE", "THERMOPROPS", "HALO_EXCHANGE"))
    assert missing == []
    assert out["ledger.share.THERMOPROPS"] == pytest.approx(0.5)
    assert out["ledger.share.INTEGRATE"] == pytest.approx(0.3)
    assert out["ledger.untracked_frac"] == pytest.approx(0.1)
