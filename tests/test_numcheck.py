"""Numeric report plumbing that needs no grid."""

from types import SimpleNamespace

import pytest

from qpskit.numcheck import convergence_report
from qpskit.report import VerificationReport

COARSE = SimpleNamespace(npts=16)
FINE = SimpleNamespace(npts=32)


def _report(norms):
    rep = VerificationReport("stub")
    for check_id, norm in norms.items():
        rep.add(id=check_id, lhs="", expected="", residual="", passed=True,
                residual_norm=norm)
    return rep


def coarse_extra(grid):
    if grid is COARSE:
        return _report({"shared": 1e-4, "coarse_only": 1e-4, "unnormed": None})
    return _report({"shared": 1e-6, "unnormed": 1e-9})


def fine_extra(grid):
    if grid is COARSE:
        return _report({"shared": 1e-4, "unnormed": 1e-4})
    return _report({"shared": 1e-6, "fine_only": 1e-6, "unnormed": None})


@pytest.mark.parametrize("make_report, lone, where", [
    (coarse_extra, "coarse_only", "absent on the 32-point grid"),
    (fine_extra, "fine_only", "absent on the 16-point grid"),
])
def test_convergence_records_unmatched_ids(make_report, lone, where):
    rep = convergence_report(make_report, COARSE, FINE)
    by_id = {e.id: e for e in rep.entries}
    assert set(by_id) == {"shared", lone, "unnormed"}
    assert by_id["shared"].passed
    assert not by_id[lone].passed and by_id[lone].residual == where
    assert not by_id["unnormed"].passed
    assert "no residual_norm" in by_id["unnormed"].residual
    assert rep.failed == 2
