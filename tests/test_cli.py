"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qpskit.cli as cli
import qpskit.localization as localization
from qpskit.cli import main
from qpskit.coeffs import AlgebraContext
from qpskit.report import VerificationReport


def run(args):
    return main(args)


def test_verify_boost_exit_zero(capsys):
    assert run(["verify", "boost"]) == 0
    out = capsys.readouterr().out
    assert "boost_matrix: 19 passed, 0 failed" in out


def test_verify_emrelation_failure_writes_report(tmp_path, capsys):
    out = tmp_path / "em.json"
    code = run(["verify", "emrelation", "--h", "Lam*omega + P1",
                "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["failed"] > 0
    failing = [e for e in doc["entries"] if not e["pass"]]
    assert failing and all(e["residual"] not in ("", "0") for e in failing)


def test_verify_emrelation_memory(tmp_path, monkeypatch, capsys):
    """One closure-failure command, on a context of its own: its traced peak,
    and what it leaves allocated when it returns."""
    monkeypatch.setattr(AlgebraContext, "_instances", {})
    argv = ["verify", "emrelation", "--h", "Lam*omega + m^2/(P1+m)",
            "--out", str(tmp_path / "em.json")]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run(argv) == 1
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    left -= start
    # Measured in this test, alone and after the tests above it: without
    # product and derivative tables the peak was 0.40-0.49 MB, and
    # 0.21-0.30 MB stayed allocated (the context's registry, factorizations
    # and operator caches). The tables raise the peak to 1.20-1.35 MB; the
    # bound is 0.49 MB plus 1.5 MB of headroom. They are dropped when the
    # check returns, so 0.22-0.37 MB stays; tables kept past it left
    # 1.31 MB, over the 0.30 MB plus 0.45 MB allowed.
    assert peak < 2_000_000, peak
    assert left < 750_000, left


def test_verify_emrelation_pass(tmp_path):
    out = tmp_path / "em.json"
    assert run(["verify", "emrelation", "--h", "Lam*omega",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["failed"] == 0 and doc["passed"] == 101


def test_verify_emrelation_scaled(tmp_path):
    out = tmp_path / "em2.json"
    assert run(["verify", "emrelation", "--h", "Lam*omega",
                "--mass-factor", "2", "--out", str(out)]) == 0


def test_verify_bad_expression_usage_error(capsys):
    # a syntax error, an exponent the coefficient ring cannot pack, and a
    # zero divisor, which is named as such
    for h, cause in (("Lam*(", ""), ("Lam*omega + P1^70", ""),
                     ("Lam*omega + 1/(P1-P1)", "bad divisor: the divisor is zero")):
        assert run(["verify", "emrelation", "--h", h]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err


def test_main_calls_share_one_parser_and_no_parsed_state(tmp_path, monkeypatch,
                                                          capsys):
    """main builds its parser once per process; a call after a CSV run with
    a Casimir spin and a usage error writes what a fresh interpreter does."""
    built = []
    build = cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert run(["verify", "poincare", "--casimir-spin", "1/2", "--format", "csv",
                "--out", str(tmp_path / "spin.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["verify", "poincare", "--nonsense"])
    assert exc.value.code == 2
    assert run(["verify", "bargmann", "--casimir-spin", "1/2"]) == 2
    out = tmp_path / "reused.json"
    assert run(["verify", "poincare", "--out", str(out)]) == 0
    assert len(built) == 1 and build() is not build()
    fresh = tmp_path / "fresh.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qpskit.cli", "verify", "poincare",
                           "--out", str(fresh)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == fresh.read_bytes()


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "poincare", "--nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_csv_format(tmp_path):
    out = tmp_path / "boost.csv"
    assert run(["verify", "boost", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,pass,asserted,lhs,expected,residual"
    assert len(lines) == 20


def test_localize_artifacts_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["localize", "--m", "1", "--sigma", "0.1", "--t", "5",
            "--npts", "2048", "--pmax", "40", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    summary1 = capsys.readouterr().out
    assert run(args + ["--out", str(out2)]) == 0
    summary2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert summary1 == summary2
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["outside_cone_probability"] > 0
    assert doc["params"]["sigma"] == 0.1
    header, first = out1.read_text().splitlines()[:2]
    assert header == "x,t,density"
    assert len(first.split(",")) == 3


@pytest.mark.parametrize("leak,slope", [(0.0, float("nan")), (0.0, -2.0),
                                        (1e-3, float("nan")), (1e-3, float("inf"))])
def test_localize_exit_checks_leak_and_slope(monkeypatch, tmp_path, capsys,
                                             leak, slope):
    """localize exits 1 when nothing leaks or the tail slope is not finite."""
    real = localization.nw_evolution

    def doctored(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   outside_cone_probability=leak,
                                   fitted_slope=slope)

    args = ["localize", "--npts", "2048", "--pmax", "40"]
    assert run(args) == 0
    monkeypatch.setattr(localization, "nw_evolution", doctored)
    assert run(args + ["--out", str(tmp_path / "d.csv")]) == 1
    doc = json.loads((tmp_path / "d.json").read_text())
    assert doc["outside_cone_probability"] == leak
    capsys.readouterr()


def test_localize_refuses_json_out_and_format(tmp_path, capsys):
    """The summary goes to <out stem>.json, so an --out ending in .json
    would be overwritten by it: a usage error, before anything runs or is
    written. localize writes one CSV layout and takes no --format."""
    out = tmp_path / "x.json"
    assert run(["localize", "--npts", "2048", "--pmax", "40",
                "--out", str(out)]) == 2
    assert "must not end in .json" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        run(["localize", "--format", "csv"])
    assert exc.value.code == 2


def test_localize_wraparound_is_usage_error(capsys):
    for argv in (["localize", "--t", "500", "--npts", "2048", "--pmax", "40"],
                 ["causality", "--npts", "1024", "--pmax", "20",
                  "--r", "-1000", "-1"]):
        assert run(argv) == 2
        assert "box" in capsys.readouterr().err


def test_causality_empty_interval_is_usage_error(capsys):
    # dx is 0.105 at the defaults, so (0.01, 0.02) holds no grid point and
    # its projector would be zero, which commutes with everything
    assert run(["causality", "--r", "0.01", "0.02", "--rp", "0.5", "1.5",
                "--trp", "1"]) == 2
    assert "no grid point" in capsys.readouterr().err


def test_causality_defaults(tmp_path):
    out = tmp_path / "caus.json"
    assert run(["causality", "--npts", "1024", "--pmax", "20",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    by_id = {e["id"]: e for e in doc["entries"]}
    assert by_id["equal_time"]["pass"]
    assert by_id["unequal_time"]["pass"]


def test_causality_timelike_not_asserted(tmp_path):
    out = tmp_path / "caus2.json"
    # overlapping light cones: |t'-t| exceeds the spatial gap
    code = run(["causality", "--npts", "1024", "--pmax", "20",
                "--r", "-1.5", "-1.0", "--rp", "1.0", "1.5", "--trp", "5.0",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    entry = [e for e in doc["entries"] if e["id"] == "unequal_time"][0]
    assert entry.get("asserted", True) is False


def test_fock_subcommands(tmp_path):
    assert run(["fock", "duality"]) == 0
    assert run(["fock", "spectrum"]) == 0
    out = tmp_path / "fock.csv"
    assert run(["fock", "expectation", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,vacuum_sq,one_particle_sq,difference,predicted"
    assert len(lines) == 9


FOCK_IDS = {
    "duality": [f"{check}[{trial}]" for trial in range(3)
                for check in ("ccr", "interdefinability", "complex_structure")]
    + ["ladder_shift", "vacuum_condition", "field_self_adjoint"],
    "spectrum": ["integer_spectrum", "spectrum_range", "vacuum_unique"],
    "expectation": ["first_moments", "vacuum_value", "difference_formula",
                    "peak_narrows_with_mass"],
}


@pytest.mark.parametrize("seed", ["0", "901"])
@pytest.mark.parametrize("suite", sorted(FOCK_IDS))
def test_fock_suites_at_benchmark_size(tmp_path, suite, seed):
    """The fock commands the benchmark runs (--sites 10 --nmax 4) pass and
    keep their entry ids, order and counts (12, 3 and 4)."""
    out = tmp_path / f"{suite}.json"
    assert run(["fock", suite, "--sites", "10", "--nmax", "4", "--seed", seed,
                "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["entries"]
    assert [e["id"] for e in entries] == FOCK_IDS[suite]
    assert len(entries) == {"duality": 12, "spectrum": 3, "expectation": 4}[suite]
    assert all(e["pass"] for e in entries)
    assert all(e["residual_norm"] <= 1e-10 for e in entries if "residual_norm" in e)


def test_numeric_casimir_small(tmp_path):
    out = tmp_path / "cas.json"
    assert run(["numeric", "casimir", "--npts", "16", "--pmax", "2.0",
                "--nstates", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["failed"] == 0


@pytest.mark.parametrize("argv, message", [
    (["numeric", "casimir", "--convergence"], "--convergence"),
    (["numeric", "residuals", "--nstates", "0"], "--nstates"),
    (["numeric", "residuals", "--npts", "30", "--convergence"],
     "half grid (15 points for --npts 30)"),
])
def test_numeric_inputs_it_cannot_use_exit_two(capsys, argv, message):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["fock", "spectrum", "--m", "nan"],
    ["fock", "duality", "--m", "inf"],
    ["causality", "--m", "nan"],
    ["causality", "--tr", "nan"],
    ["numeric", "residuals", "--m", "nan", "--npts", "8", "--nstates", "1"],
    ["localize", "--m", "nan"],
    ["localize", "--sigma", "nan"],
], ids="_".join)
def test_non_finite_physical_parameters_exit_two(tmp_path, capsys, monkeypatch, argv):
    """fock spectrum passed 3/3 at m = nan; causality and fock duality died
    in numpy's SVD; numeric residuals reported NaN residuals and localize a
    NaN summary. Each is refused before anything runs or is written."""
    monkeypatch.setattr(cli, "foldy_generators", None)
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["numeric", "casimir"], ["numeric", "residuals"],
                                     ["fock", "duality"]])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "-inf", "tiny"])
def test_tol_must_be_finite_and_positive(capsys, monkeypatch, command, tol):
    """inf passed every entry and nan or a negative value failed every one;
    each is refused before anything runs."""
    monkeypatch.setattr(cli, "foldy_generators", None)
    monkeypatch.setattr(cli, "fock_report", None)
    with pytest.raises(SystemExit) as exc:
        run([*command, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "pl"], ["numeric", "residuals"], ["numeric", "casimir"], ["localize"],
    ["causality"], ["fock", "duality"], ["fock", "expectation"], ["fock", "spectrum"],
], ids="_".join)
def test_negative_seed_is_refused_by_every_command(capsys, command):
    """numeric and fock died in numpy with a message naming no flag, while
    verify, localize and causality ran; every command now refuses it the
    same way before anything runs."""
    with pytest.raises(SystemExit) as exc:
        run([*command, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["bargmann", "lemmas", "casimirs", "pl",
                                   "boost", "emrelation"])
def test_casimir_spin_only_where_read(capsys, suite):
    assert run(["verify", suite, "--casimir-spin", "1/2"]) == 2
    assert capsys.readouterr().err.startswith("error: --casimir-spin applies")


def test_casimir_spin_must_be_a_spin(capsys):
    for suite in ("poincare", "spinless"):
        assert run(["verify", suite, "--casimir-spin", "7/3"]) == 2
        assert "unsupported spin 7/3" in capsys.readouterr().err


def test_verify_report_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "pl", "--out", str(a)]) == 0
    assert run(["verify", "pl", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tol_reaches_fock_report_unchanged(monkeypatch):
    seen = []

    def fake_report(suite, **kwargs):
        seen.append(kwargs["tol"])
        return VerificationReport(f"fock_{suite}"), None

    monkeypatch.setattr(cli, "fock_report", fake_report)
    assert run(["fock", "duality", "--tol", "1e-6"]) == 0
    assert run(["fock", "duality"]) == 0
    assert seen == [1e-6, 1e-10]
    assert cli.build_parser().parse_args(["numeric", "casimir"]).tol == 1e-6
    for argv in (["verify", "boost"], ["localize"], ["causality"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2


def test_merge_copies_entries():
    a = VerificationReport("a")
    a.add(id="x", lhs="l", expected="e", residual="0", passed=True)
    b = VerificationReport("b")
    b.add(id="x", lhs="l", expected="e", residual="0", passed=False)
    merged = cli._merge("both", [a, b])
    assert [e.id for e in merged.entries] == ["a:x", "b:x"]
    assert a.entries[0].id == "x" and b.entries[0].id == "x"


def test_csv_quotes_round_trip():
    rep = VerificationReport("quotes")
    rep.add(id='say "hi", twice', lhs="f(a,b)", expected='"', residual="0",
            passed=True)
    rows = list(csv.reader(io.StringIO(cli._report_csv(rep))))
    assert rows == [["id", "pass", "asserted", "lhs", "expected", "residual"],
                    ['say "hi", twice', "true", "true", "f(a,b)", '"', "0"]]


def test_numeric_artifact_does_not_depend_on_blas_threads(tmp_path):
    """The numeric report is the same bytes with one BLAS thread and with
    two: no reduction order in it follows the thread count."""
    src = Path(__file__).resolve().parent.parent / "src"
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"residuals_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "qpskit.cli", "numeric", "residuals", "--npts", "32",
             "--nstates", "2", "--seed", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]
