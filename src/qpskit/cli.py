"""Batch entry point: run verification suites and demos, write reports.

Exit status: 0 when every asserted check passes, 1 when any fails (reports
are still written), 2 for usage errors. Artifacts are written atomically and
are byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from .coeffs import AlgebraContext, CoeffError
from .fock import fock_report
from .generators import (bargmann_generators, boost_matrix_identities,
                         casimirs, check_table, energy_momentum_constraint_check,
                         foldy_generators, lemma_suite, pauli_lubanski)
from .grid import GridConfigError, GridRep
from .localization import microcausality_check, nw_evolution
from .numcheck import (convergence_report, numeric_casimir_report,
                       numeric_lemma_report, numeric_pl_report,
                       numeric_residual_reports, numeric_table_report)
from .parser import parse_expr
from .report import VerificationReport
from .spin import check_spin

# ``numeric residuals`` runs the lemma and Pauli-Lubanski suites through
# numeric_residual_reports; their single-suite reports stay importable here,
# where perfbench's tracer wraps every numeric report by name.
__all__ = ["build_parser", "main", "numeric_lemma_report", "numeric_pl_report"]


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_csv(report: VerificationReport):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "pass", "asserted", "lhs", "expected", "residual"])
    for e in report.entries:
        writer.writerow([e.id, str(e.passed).lower(), str(e.asserted).lower(),
                         e.lhs, e.expected, e.residual])
    return out.getvalue()


def _emit_report(report: VerificationReport, args, csv_text=None):
    """Print the report; write it to ``--out`` as JSON, or as CSV (``csv_text``
    when the caller has its own table, the entries otherwise)."""
    for line in report.lines():
        print(line)
    print(report.summary())
    if args.out:
        if args.format == "csv":
            _write_atomic(args.out, csv_text or _report_csv(report))
        else:
            _write_atomic(args.out, report.to_json() + "\n")
    return 0 if report.all_passed() else 1


def _merge(suite_name, reports):
    merged = VerificationReport(suite_name)
    for rep in reports:
        merged.entries.extend(dataclasses.replace(e, id=f"{rep.suite}:{e.id}")
                              for e in rep.entries)
    return merged


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args):
    spin = None
    if args.casimir_spin is not None:
        if args.suite not in ("poincare", "spinless"):
            raise ValueError("--casimir-spin applies to the poincare and "
                             f"spinless suites only, not {args.suite}")
        spin = check_spin(args.casimir_spin)
    ctx = AlgebraContext.get(Fraction(args.mass_factor))
    if args.suite == "poincare":
        rep = check_table(foldy_generators(ctx=ctx), "poincare", casimir_spin=spin)
    elif args.suite == "spinless":
        rep = check_table(foldy_generators(ctx=ctx), "poincare_spinless",
                          casimir_spin=spin)
    elif args.suite == "bargmann":
        rep = check_table(bargmann_generators(ctx=ctx), "bargmann")
    elif args.suite == "lemmas":
        rep = lemma_suite(foldy_generators(ctx=ctx))
    elif args.suite == "casimirs":
        rep = casimirs(foldy_generators(ctx=ctx))
    elif args.suite == "pl":
        rep = pauli_lubanski(foldy_generators(ctx=ctx))
    elif args.suite == "boost":
        rep = boost_matrix_identities(ctx=ctx)
    else:  # emrelation
        rep = energy_momentum_constraint_check(parse_expr(args.h, ctx=ctx), ctx=ctx)
    return _emit_report(rep, args)


# -- numeric --------------------------------------------------------------------


def _grid_from_args(args, npts=None):
    return GridRep(d=3, npts=args.npts if npts is None else npts,
                   pmax=args.pmax, m=args.m, s=Fraction(args.s), tval=args.t)


def _cmd_numeric(args):
    if args.nstates < 1:
        raise GridConfigError(f"--nstates must be at least 1, got {args.nstates}")
    if args.convergence and args.suite == "casimir":
        raise GridConfigError("--convergence applies to numeric residuals only")
    grid = _grid_from_args(args)
    if args.convergence:
        half = args.npts // 2
        try:
            coarse = _grid_from_args(args, npts=half)
        except GridConfigError as exc:
            raise GridConfigError(f"--convergence half grid ({half} points for "
                                  f"--npts {args.npts}): {exc}") from exc
    gens = foldy_generators()
    if args.suite == "casimir":
        rep = numeric_casimir_report(gens, grid, nstates=args.nstates,
                                     seed=args.seed, tol=args.tol)
        return _emit_report(rep, args)
    reports = numeric_residual_reports(gens, grid, nstates=args.nstates,
                                       seed=args.seed, tol=args.tol)
    if args.convergence:
        reports.append(convergence_report(
            lambda gr: numeric_table_report(gens, gr, "poincare",
                                            nstates=min(args.nstates, 4),
                                            seed=args.seed + 1, tol=np.inf),
            coarse, grid))
    return _emit_report(_merge("numeric_residuals", reports), args)


# -- localize ---------------------------------------------------------------------


def _cmd_localize(args):
    grid = GridRep(d=1, npts=args.npts, pmax=args.pmax, m=args.m, s=0)
    res = nw_evolution(args.y, args.sigma, args.t, grid)
    summary = {
        "outside_cone_probability": res.outside_cone_probability,
        "fitted_slope": res.fitted_slope,
        "fit_points": res.fit_points,
        "params": res.params,
        "seed": args.seed,
    }
    print(_json_text(summary), end="")
    if args.out:
        csv_lines = ["x,t,density"]
        for xv, dv in zip(res.x, res.density):
            csv_lines.append(f"{float(xv)!r},{float(args.t)!r},{float(dv)!r}")
        _write_atomic(args.out, "\n".join(csv_lines) + "\n")
        base, _ = os.path.splitext(args.out)
        _write_atomic(base + ".json", _json_text(summary))
    # the demo shows a leak outside the cone and a finite exponential tail
    leaks = res.outside_cone_probability > 0
    return 0 if leaks and np.isfinite(res.fitted_slope) else 1


def _cmd_causality(args):
    grid = GridRep(d=1, npts=args.npts, pmax=args.pmax, m=args.m, s=0)
    r = tuple(args.r)
    rp = tuple(args.rp)
    report = VerificationReport("causality")
    equal = microcausality_check(r, args.tr, rp, args.tr, grid, seed=args.seed)
    moved = microcausality_check(r, args.tr, rp, args.trp, grid, seed=args.seed)
    disjoint = r[1] < rp[0] or rp[1] < r[0]
    gap = max(rp[0] - r[1], r[0] - rp[1])
    spacelike = disjoint and gap > abs(args.trp - args.tr)
    report.add(id="equal_time", lhs=f"|| [P_R({args.tr}), P_R'({args.tr})] ||",
               expected="0 (disjoint regions at equal time)",
               residual=f"{equal:.3e}", passed=equal <= 1e-10,
               asserted=disjoint, residual_norm=equal)
    report.add(id="unequal_time", lhs=f"|| [P_R({args.tr}), P_R'({args.trp})] ||",
               expected="> 1e-6 (localization is not causally sharp)",
               residual=f"{moved:.3e}", passed=moved > 1e-6,
               asserted=spacelike and args.trp != args.tr,
               residual_norm=moved,
               note="" if spacelike else "regions not spacelike separated; recorded only")
    return _emit_report(report, args)


# -- fock -------------------------------------------------------------------------


def _cmd_fock(args):
    rep, curves = fock_report(args.suite, sites=args.sites, nmax=args.nmax,
                              m=args.m, seed=args.seed, tol=args.tol)
    csv_text = None
    if curves is not None:
        lines = ["x,vacuum_sq,one_particle_sq,difference,predicted"]
        for i in range(args.sites):
            lines.append(f"{int(curves.sites[i])},{float(curves.vacuum_sq[i])!r},"
                         f"{float(curves.one_particle_sq[i])!r},"
                         f"{float(curves.difference[i])!r},"
                         f"{float(curves.predicted[i])!r}")
        csv_text = "\n".join(lines) + "\n"
    return _emit_report(rep, args, csv_text)


# -- parser --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpskit",
        description="Verify the canonical position/momentum/spin operator "
                    "algebra symbolically and on finite grids, and run the "
                    "localization and field/particle-duality demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", default=None, help="artifact path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)

    pv = sub.add_parser("verify", help="symbolic suites (exact)")
    pv.add_argument("suite", choices=("poincare", "spinless", "bargmann",
                                      "lemmas", "casimirs", "pl", "boost",
                                      "emrelation"))
    pv.add_argument("--h", default="Lam*omega",
                    help="candidate Hamiltonian for emrelation")
    pv.add_argument("--mass-factor", default="1",
                    help="rescale the energy-momentum relation to "
                         "omega^2 = P^2 + (k*m)^2")
    pv.add_argument("--casimir-spin", default=None,
                    help="apply S^2 -> hbar^2 s(s+1) during normalization")
    common_out(pv)
    pv.set_defaults(func=_cmd_verify)

    pn = sub.add_parser("numeric", help="momentum-grid cross-checks")
    pn.add_argument("suite", choices=("residuals", "casimir"))
    pn.add_argument("--npts", type=int, default=32)
    pn.add_argument("--pmax", type=float, default=2.0)
    pn.add_argument("--m", type=float, default=1.0)
    pn.add_argument("--s", default="1/2")
    pn.add_argument("--t", type=float, default=0.3)
    pn.add_argument("--nstates", type=int, default=8)
    pn.add_argument("--convergence", action="store_true",
                    help="also compare against the half-resolution grid")
    pn.add_argument("--tol", type=float, default=1e-6)
    common_out(pn)
    pn.set_defaults(func=_cmd_numeric)

    pl = sub.add_parser("localize", help="wave-packet spreading demo")
    pl.add_argument("--m", type=float, default=1.0)
    pl.add_argument("--sigma", type=float, default=0.1)
    pl.add_argument("--y", type=float, default=0.0)
    pl.add_argument("--t", type=float, default=5.0)
    pl.add_argument("--npts", type=int, default=4096)
    pl.add_argument("--pmax", type=float, default=60.0)
    common_out(pl)
    pl.set_defaults(func=_cmd_localize)

    pc = sub.add_parser("causality", help="localized projector commutator")
    pc.add_argument("--m", type=float, default=1.0)
    pc.add_argument("--npts", type=int, default=2048)
    pc.add_argument("--pmax", type=float, default=30.0)
    pc.add_argument("--r", type=float, nargs=2, default=(-2.0, -1.0),
                    metavar=("A", "B"))
    pc.add_argument("--tr", type=float, default=0.0)
    pc.add_argument("--rp", type=float, nargs=2, default=(1.0, 2.0),
                    metavar=("A", "B"))
    pc.add_argument("--trp", type=float, default=1.0)
    common_out(pc)
    pc.set_defaults(func=_cmd_causality)

    pf = sub.add_parser("fock", help="truncated Fock-space checks")
    pf.add_argument("suite", choices=("duality", "expectation", "spectrum"))
    pf.add_argument("--sites", type=int, default=8)
    pf.add_argument("--nmax", type=int, default=3)
    pf.add_argument("--m", type=float, default=1.0)
    pf.add_argument("--tol", type=float, default=1e-10)
    common_out(pf)
    pf.set_defaults(func=_cmd_fock)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoeffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
