"""Tests of the benchmark's own checks; no qpskit run needed.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json

import pytest

import run
import tracing
from workloads import (KNOWN, CheckTally, Command, check_command,
                       closure_candidates, commands, expected_failing, relabel)


def _report(path, entries):
    path.write_text(json.dumps({"suite": "x", "entries": entries}))
    return str(path)


def _closure_entries(axis):
    failing = expected_failing(KNOWN["commands"]["closure_polynomial"], axis)
    ids = sorted(failing) + [f"ok{i}" for i in range(101 - len(failing))]
    return [{"id": i, "pass": i not in failing} for i in ids]


def _tally(cmd, rc, out):
    tally = CheckTally()
    check_command(tally, cmd, rc, out)
    return tally


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_committed_closure_answer_is_accepted(tmp_path, axis):
    cmd = Command("closure_polynomial", ["verify", "emrelation"], axis)
    tally = _tally(cmd, 1, _report(tmp_path / "r.json", _closure_entries(axis)))
    assert tally.attempted == 103 and tally.failed == 0


def test_doctored_report_is_a_miss(tmp_path):
    cmd = Command("closure_polynomial", ["verify", "emrelation"], 2)
    entries = _closure_entries(2)
    flipped = next(e for e in entries if e["id"] == "[K2,K3]")
    flipped["pass"] = True          # a failing entry reported as passing
    entries[-1]["pass"] = False     # a passing entry reported as failing
    tally = _tally(cmd, 1, _report(tmp_path / "r.json", entries))
    assert tally.failed == 2
    assert any("[K2,K3]" in m for m in tally.misses)


def test_wrong_axis_relabelling_is_a_miss(tmp_path):
    cmd = Command("closure_polynomial", ["verify", "emrelation"], 3)
    tally = _tally(cmd, 1, _report(tmp_path / "r.json", _closure_entries(2)))
    assert tally.failed > 0


def test_exit_status_count_and_residual_bound(tmp_path):
    cmd = Command("numeric_casimir", ["numeric", "casimir"])
    good = [{"id": f"e{i}", "pass": True, "residual_norm": 1e-9} for i in range(4)]
    assert _tally(cmd, 0, _report(tmp_path / "a.json", good)).failed == 0
    assert _tally(cmd, 1, _report(tmp_path / "b.json", good)).failed == 1
    assert _tally(cmd, 0, _report(tmp_path / "c.json", good[:3])).failed == 1
    loose = [dict(e, residual_norm=2e-6) for e in good]
    assert _tally(cmd, 0, _report(tmp_path / "d.json", loose)).failed == 4
    assert _tally(cmd, "crash", str(tmp_path / "missing.json")).failed == 2


def test_unasserted_entries_are_not_checks(tmp_path):
    cmd = Command("verify_pl", ["verify", "pl"])
    entries = [{"id": f"e{i}", "pass": i < 5, "asserted": i < 5} for i in range(8)]
    tally = _tally(cmd, 0, _report(tmp_path / "r.json", entries))
    assert tally.attempted == 1 + 1 + 5 and tally.failed == 0


def test_localize_bounds(tmp_path):
    cmd = Command("localize", ["localize"], suffix=".csv")
    out = str(tmp_path / "packet.csv")
    summary = tmp_path / "packet.json"
    summary.write_text(json.dumps({"outside_cone_probability": 0.003,
                                   "fitted_slope": -3.1}))
    assert _tally(cmd, 0, out).failed == 0
    summary.write_text(json.dumps({"outside_cone_probability": 0.0,
                                   "fitted_slope": -0.5}))
    assert _tally(cmd, 0, out).failed == 2


def test_relabel_and_seeded_inputs():
    assert relabel("[K1,J2]", 2) == "[K2,J1]"
    assert relabel("[H,K3]", 3) == "[H,K1]"
    assert closure_candidates(7) == closure_candidates(7)
    assert {closure_candidates(s)[0][1] for s in range(40)} == {1, 2, 3}
    for name in ("symbolic", "closure_failure", "grid3d", "grid1d_fock"):
        assert commands(name, 5) == commands(name, 5)


def test_artifact_mismatch_is_a_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HASHES", str(tmp_path / "hashes.json"))
    artifact = tmp_path / "a.json"

    def check(source, *texts):
        """One run of ``source`` writing each text in turn as the artifact."""
        monkeypatch.setattr(run, "source_sha256", lambda: source)
        bench = run.Run("grid3d", 0, str(tmp_path))
        for text in texts:
            artifact.write_text(text)
            bench._check_determinism(0, bench.cmds[0], str(artifact))
        bench.save_hashes()
        return bench.tally.attempted, bench.tally.failed

    assert check("parent", "one", "one", "two") == (2, 1)   # within a run
    assert check("parent", "two") == (1, 1)                 # across runs
    # a changed source starts a fresh comparison; each source keeps its bytes
    assert check("change", "two", "two") == (1, 0)
    assert check("parent", "one") == (1, 0)
    assert check("change", "one") == (1, 1)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 1.5, 3.0, 3.5, 3.75, 4.0, 10.0])
    tracer.now = lambda: next(clock)
    leaf = tracer.counter("leaf", "coeffs", lambda: None)
    inner = tracer.span("inner", "expr", lambda: leaf())
    outer = tracer.span("outer", "cli", lambda: (inner(), leaf()))
    outer()
    # outer 0..10 holds inner 1..3.5 (with leaf 1.5..3) and leaf 3.75..4
    assert tracer.self_times() == {"cli": 7.25, "expr": 1.0, "coeffs": 1.75}
    assert tracer.totals()["leaf"] == [2, 1.75]
    assert [s[4] for s in tracer.spans] == [-1, 0]
