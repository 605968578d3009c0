"""Newton-Wigner localization demos on the 1D grid.

``nw_evolution`` propagates a width-regularized position eigenpacket under
the positive-frequency dispersion exp(-i omega t / hbar) and measures how
much probability leaks outside the light cone; ``microcausality_check``
takes two sharp position projectors, Heisenberg-evolved to their own times,
and computes the operator norm of their commutator exactly from a small
matrix on the projectors' ranges (Halmos, "Two subspaces", 1969), with no
iteration and no random start.

Perfectly localized states are not normalizable, so the packets carry an
explicit width sigma; every output records it. ``localize_report`` and
``causality_report`` turn the two demos into the verdicts of the
``localize`` and ``causality`` commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridRep, GridConfigError, LinearMap
from .report import VerificationReport


@dataclass
class NWEvolutionResult:
    x: np.ndarray
    density: np.ndarray
    outside_cone_probability: float
    fitted_slope: float
    fit_points: int
    params: dict = field(default_factory=dict)


def _plain_grid(grid: GridRep):
    if grid.d != 1:
        raise GridConfigError("localization demos run on d=1 grids")


def _finite(**values):
    for name, value in values.items():
        if not np.isfinite(value):
            raise GridConfigError(f"{name} must be finite, not {value}")


def nw_evolution(y: float, sigma: float, t: float, grid: GridRep) -> NWEvolutionResult:
    """Evolve the sigma-regularized packet localized at y for time t.

    The packet is psi(p) ~ exp(-p^2 sigma^2 / (2 hbar^2) - i p y / hbar) on
    the positive frequency sector; the returned curve is |psi(x,t)|^2 with
    unit total probability, plus the probability outside the light cone
    {|x - y| > t + 3 sigma} and the log-density slope fitted between 2/m and
    4/m beyond the cone edge.
    """
    _plain_grid(grid)
    _finite(y=y, sigma=sigma, t=t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if sigma <= grid.dx:
        raise GridConfigError(
            f"sigma={sigma} must exceed the position resolution {grid.dx:.4g}")
    m = grid.m
    cone = t + 3.0 * sigma
    reach = abs(y) + cone + 4.0 / m + 2.0 / m
    if reach > 0.45 * grid.boxlen:
        raise GridConfigError(
            "packet would wrap around the position box: need "
            f"box length > {reach / 0.45:.1f} but have {grid.boxlen:.1f}; "
            "increase npts (or lower pmax) to enlarge the box")

    p = grid.p_axis
    psi_p = np.exp(-p**2 * sigma**2 / (2.0 * grid.hbar**2) - 1j * p * y / grid.hbar)
    psi_p = grid.normalize(psi_p.astype(complex))
    phase = np.exp(-1j * grid.omega * t / grid.hbar)
    psi_xt = _axis_transform(grid, phase * psi_p)
    density = np.abs(psi_xt) ** 2
    total = density.sum() * grid.dx
    unitarity_defect = abs(total - 1.0)
    density = density / total

    x = grid.x_axis
    outside = np.abs(x - y) > cone
    p_out = float(density[outside].sum() * grid.dx)

    r = np.abs(x - y)
    band = (r >= cone + 2.0 / m) & (r <= cone + 4.0 / m)
    slope = float("nan")
    npts_fit = int(band.sum())
    if npts_fit >= 4:
        vals = density[band]
        good = vals > 1e-300
        if good.sum() >= 4:
            slope = float(np.polyfit(r[band][good], np.log(vals[good]), 1)[0])
            npts_fit = int(good.sum())
    return NWEvolutionResult(
        x=x, density=density, outside_cone_probability=p_out,
        fitted_slope=slope, fit_points=npts_fit,
        params={"y": y, "sigma": sigma, "t": t, "m": m, "hbar": grid.hbar,
                "npts": grid.npts, "pmax": grid.pmax,
                "cone_radius": cone, "unitarity_defect": unitarity_defect,
                "regularization": "gaussian momentum envelope, width sigma"})


def _axis_transform(grid, vec):
    """Momentum -> position for a bare (npts,) vector."""
    return grid.to_position(vec[:, None, None])[:, 0, 0]


def _indicator(grid, interval):
    """Boolean mask of the grid points in the closed ``interval``."""
    a, b = interval
    if not (a < b):
        raise ValueError("interval must satisfy a < b")
    margin = 5 * grid.dx
    if a < grid.x_axis[0] + margin or b > grid.x_axis[-1] - margin:
        raise GridConfigError(
            f"interval ({a}, {b}) reaches the position-box edge; "
            "projectors there alias across the wrap")
    mask = (grid.x_axis >= a) & (grid.x_axis <= b)
    if not mask.any():
        raise GridConfigError(
            f"interval ({a}, {b}) contains no grid point; its projector is "
            f"zero (position resolution {grid.dx:.4g})")
    return mask


def nw_projector(grid: GridRep, interval, t: float = 0.0) -> LinearMap:
    """Heisenberg-evolved sharp projector onto position in ``interval``.

    P_R(t) = U(t)^dag 1_R U(t) with U(t) = exp(-i omega t / hbar) acting on
    the positive-frequency 1-particle sector.
    """
    _plain_grid(grid)
    ind = _indicator(grid, interval)[:, None, None]
    evo = np.exp(-1j * grid.omega * t / grid.hbar)[:, None, None]
    evo_back = np.conj(evo)

    def apply_fn(state):
        out = np.asarray(state, dtype=complex) * evo
        out = grid.to_position(out)
        out = out * ind
        out = grid.to_momentum(out)
        return out * evo_back

    return LinearMap(apply_fn)


def _range_isometry(grid, interval, t):
    """N x k matrix with orthonormal columns spanning the range of P_R(t).

    Column n is U(t)^dag applied to the unit position delta at the n-th grid
    point of R, in plain l2 coordinates of the momentum grid: the delta is
    scaled by sqrt(dp/dx) so that ``to_momentum`` sends it to a unit vector.
    The k columns ride on the spin axis of one batched transform.
    """
    idx = np.flatnonzero(_indicator(grid, interval))
    deltas = np.zeros((grid.npts, idx.size, 1), dtype=complex)
    deltas[idx, np.arange(idx.size), 0] = np.sqrt(grid.dp / grid.dx)
    cols = grid.to_momentum(deltas)[:, :, 0]
    return cols * np.exp(1j * grid.omega * t / grid.hbar)[:, None]


def microcausality_check(r_interval, t_r: float, rp_interval, t_rp: float,
                         grid: GridRep) -> float:
    """Operator norm of [P_R(t_r), P_R'(t_rp)], computed exactly.

    The commutator of two projections P, Q is P Q (1-P) - (1-P) Q P, two
    maps between orthogonal subspaces, so its norm is ||P Q (1-P)||. With
    B1, B2 isometries onto the ranges of P = P_R(t_r) and Q = P_R'(t_rp),
    G = B1^dag B2 and Y = B2 - B1 G = (1-P) B2, that norm is ||G Y^dag||.
    Y is formed directly rather than through 1 - G^dag G, which keeps
    identical projectors at roundoff. The projectors act alike on both
    frequency-sector columns of a state, so one column suffices. The cost
    is two FFTs and an SVD of a k1 x N matrix, k1 the number of grid points
    in R; there is no iteration or random start, so the result is
    deterministic.
    """
    _plain_grid(grid)
    _finite(t_r=t_r, t_rp=t_rp)
    b1 = _range_isometry(grid, r_interval, t_r)
    b2 = _range_isometry(grid, rp_interval, t_rp)
    g = b1.conj().T @ b2
    y = b2 - b1 @ g
    return float(np.linalg.norm(g @ y.conj().T, 2))


def localize_report(y: float, sigma: float, t: float, grid: GridRep, seed: int):
    """The ``localize`` demo: (evolution, summary, passed).

    The summary is the command's JSON record; the demo passes when the
    packet leaks outside the cone and its tail has a finite exponential
    slope.
    """
    res = nw_evolution(y, sigma, t, grid)
    summary = {
        "outside_cone_probability": res.outside_cone_probability,
        "fitted_slope": res.fitted_slope,
        "fit_points": res.fit_points,
        "params": res.params,
        "seed": seed,
    }
    leaks = res.outside_cone_probability > 0
    return res, summary, bool(leaks and np.isfinite(res.fitted_slope))


def causality_report(r_interval, t_r: float, rp_interval, t_rp: float,
                     grid: GridRep) -> VerificationReport:
    """The ``causality`` checks: at equal times the projectors of disjoint
    regions commute, and at unequal times they do not. Each entry is
    asserted only where its premise holds (disjoint regions; spacelike
    separation at distinct times) and recorded otherwise."""
    r, rp = tuple(r_interval), tuple(rp_interval)
    report = VerificationReport("causality")
    equal = microcausality_check(r, t_r, rp, t_r, grid)
    moved = microcausality_check(r, t_r, rp, t_rp, grid)
    disjoint = r[1] < rp[0] or rp[1] < r[0]
    gap = max(rp[0] - r[1], r[0] - rp[1])
    spacelike = disjoint and gap > abs(t_rp - t_r)
    report.add(id="equal_time", lhs=f"|| [P_R({t_r}), P_R'({t_r})] ||",
               expected="0 (disjoint regions at equal time)",
               residual=f"{equal:.3e}", passed=equal <= 1e-10,
               asserted=disjoint, residual_norm=equal)
    report.add(id="unequal_time", lhs=f"|| [P_R({t_r}), P_R'({t_rp})] ||",
               expected="> 1e-6 (localization is not causally sharp)",
               residual=f"{moved:.3e}", passed=moved > 1e-6,
               asserted=spacelike and t_rp != t_r,
               residual_norm=moved,
               note="" if spacelike else "regions not spacelike separated; recorded only")
    return report
