"""Newton-Wigner localization demos on the 1D grid.

``nw_evolution`` propagates a width-regularized position eigenpacket under
the positive-frequency dispersion exp(-i omega t / hbar) and measures how
much probability leaks outside the light cone; ``microcausality_check``
builds sharp position projectors, Heisenberg-evolves them, and estimates the
operator norm of their commutator.

Perfectly localized states are not normalizable, so the packets carry an
explicit width sigma; every output records it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridRep, GridConfigError, LinearMap, operator_norm


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


def nw_evolution(y: float, sigma: float, t: float, grid: GridRep) -> NWEvolutionResult:
    """Evolve the sigma-regularized packet localized at y for time t.

    The packet is psi(p) ~ exp(-p^2 sigma^2 / (2 hbar^2) - i p y / hbar) on
    the positive frequency sector; the returned curve is |psi(x,t)|^2 with
    unit total probability, plus the probability outside the light cone
    {|x - y| > t + 3 sigma} and the log-density slope fitted between 2/m and
    4/m beyond the cone edge.
    """
    _plain_grid(grid)
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
    psi_p = psi_p.astype(complex)
    nrm = np.sqrt(np.sum(np.abs(psi_p) ** 2) * grid.dp)
    psi_p /= nrm
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
    a, b = interval
    if not (a < b):
        raise ValueError("interval must satisfy a < b")
    margin = 5 * grid.dx
    if a < grid.x_axis[0] + margin or b > grid.x_axis[-1] - margin:
        raise GridConfigError(
            f"interval ({a}, {b}) reaches the position-box edge; "
            "projectors there alias across the wrap")
    return ((grid.x_axis >= a) & (grid.x_axis <= b)).astype(float)


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

    # self-adjoint: unitary conjugation of a real indicator
    return LinearMap(grid, apply_fn, apply_fn,
                     label=f"P[{interval[0]},{interval[1]}](t={t})")


def microcausality_check(r_interval, t_r: float, rp_interval, t_rp: float,
                         grid: GridRep, seed: int = 0,
                         iterations: int = 250) -> float:
    """Operator-norm estimate of [P_R(t), P_R'(t')] by power iteration."""
    _plain_grid(grid)
    p1 = nw_projector(grid, r_interval, t_r)
    p2 = nw_projector(grid, rp_interval, t_rp)
    # both projectors are self-adjoint, so [p1, p2]^dag = [p2, p1]
    comm = LinearMap(grid, lambda v: p1(p2(v)) - p2(p1(v)),
                     lambda v: p2(p1(v)) - p1(p2(v)), label="[P_R, P_R']")
    return operator_norm(comm, seed=seed, iterations=iterations)
