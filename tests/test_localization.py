"""Wave-packet spreading and localized-projector commutators."""

import math

import numpy as np
import pytest

import oracles
from qpskit import GridRep, microcausality_check, nw_evolution, nw_projector
from qpskit.grid import GridConfigError
from qpskit.localization import _axis_transform


@pytest.fixture(scope="module")
def demo_grid():
    return GridRep(d=1, npts=4096, pmax=60.0, m=1.0, s=0)


def test_initial_packet_localized(demo_grid):
    res = nw_evolution(0.0, 0.1, 0.0, demo_grid)
    inside = np.abs(res.x) <= 5 * 0.1
    mass = float(res.density[inside].sum() * demo_grid.dx)
    # gaussian-integral oracle: erf(5) of the density profile
    assert mass >= 0.99
    assert mass == pytest.approx(math.erf(5.0), abs=1e-6)


def test_superluminal_tail_appears(demo_grid):
    res = nw_evolution(0.0, 0.1, 5.0, demo_grid)
    assert res.outside_cone_probability > 0
    assert -4.0 <= res.fitted_slope <= -1.0
    assert res.fit_points >= 4
    assert res.params["regularization"].startswith("gaussian")


def test_evolution_unitary(demo_grid):
    res = nw_evolution(0.0, 0.1, 5.0, demo_grid)
    assert res.params["unitarity_defect"] <= 1e-10
    assert float(res.density.sum() * demo_grid.dx) == pytest.approx(1.0, abs=1e-10)


def test_leakage_decreases_with_mass():
    probs = []
    for m in (0.5, 1.0, 2.0):
        g = GridRep(d=1, npts=4096, pmax=60.0, m=m, s=0)
        probs.append(nw_evolution(0.0, 0.1, 5.0, g).outside_cone_probability)
    assert probs[0] > probs[1] > probs[2] > 0


def test_offcenter_packet(demo_grid):
    res = nw_evolution(7.5, 0.2, 1.0, demo_grid)
    peak_x = res.x[np.argmax(res.density)]
    assert abs(peak_x - 7.5) < 1.0


def test_wraparound_refused(demo_grid):
    with pytest.raises(GridConfigError):
        nw_evolution(0.0, 0.1, 120.0, demo_grid)
    with pytest.raises(GridConfigError):
        nw_evolution(100.0, 0.1, 5.0, demo_grid)


def test_too_narrow_sigma_refused(demo_grid):
    with pytest.raises(GridConfigError):
        nw_evolution(0.0, demo_grid.dx / 2, 1.0, demo_grid)


@pytest.fixture(scope="module")
def causality_grid():
    return GridRep(d=1, npts=2048, pmax=30.0, m=1.0, s=0)


def test_projector_is_projection(causality_grid):
    g = causality_grid
    proj = nw_projector(g, (-1.0, 1.5), t=0.7)
    psi = np.zeros(g.state_shape, dtype=complex)
    psi[:, 0, 0] = np.exp(-g.p_axis**2 / 8.0)
    once = proj.apply(psi)
    twice = proj.apply(once)
    assert g.norm(twice - once) <= 1e-12 * g.norm(psi)
    # self-adjoint
    phi = np.zeros(g.state_shape, dtype=complex)
    phi[:, 0, 0] = np.exp(-(g.p_axis - 1.0)**2 / 2.0)
    assert np.vdot(phi, proj.apply(psi)) * g.dp == pytest.approx(
        np.vdot(proj.apply(phi), psi) * g.dp, rel=1e-10, abs=1e-12)


def test_projector_localizes(causality_grid):
    g = causality_grid
    proj = nw_projector(g, (-1.0, 1.0), t=0.0)
    psi = np.zeros(g.state_shape, dtype=complex)
    psi[:, 0, 0] = np.exp(-g.p_axis**2 * 0.25)
    cut = proj.apply(psi)
    xrep = _axis_transform(g, cut[:, 0, 0])
    outside = np.abs(g.x_axis) > 1.0
    assert np.abs(xrep[outside]).max() <= 1e-12


def test_equal_time_disjoint_projectors_commute(causality_grid):
    norm = microcausality_check((-2.0, -1.0), 0.0, (1.0, 2.0), 0.0,
                                causality_grid)
    assert norm <= 1e-12
    later = microcausality_check((-2.0, -1.0), 0.8, (1.0, 2.0), 0.8,
                                 causality_grid)
    assert later <= 1e-10


def test_projector_commutes_with_itself(causality_grid):
    norm = microcausality_check((1.0, 2.0), 0.5, (1.0, 2.0), 0.5,
                                causality_grid)
    assert norm <= 1e-12


def test_spacelike_unequal_time_projectors_do_not_commute(causality_grid):
    norm = microcausality_check((-2.0, -1.0), 0.0, (1.0, 2.0), 1.0,
                                causality_grid)
    assert norm > 1e-6


def test_interval_at_box_edge_refused(causality_grid):
    g = causality_grid
    with pytest.raises(GridConfigError):
        microcausality_check((g.x_axis[0], g.x_axis[0] + 2.0), 0.0,
                             (1.0, 2.0), 0.0, g)
    with pytest.raises(ValueError):
        microcausality_check((2.0, 1.0), 0.0, (3.0, 4.0), 0.0, g)


def test_interval_without_grid_point_refused(causality_grid):
    g = causality_grid
    a = g.x_axis[g.npts // 2] + 0.1 * g.dx
    with pytest.raises(GridConfigError, match="no grid point"):
        microcausality_check((a, a + 0.5 * g.dx), 0.0, (1.0, 2.0), 1.0, g)
    with pytest.raises(GridConfigError, match="no grid point"):
        nw_projector(g, (a, a + 0.5 * g.dx))


@pytest.mark.parametrize("trp", [1.0, 0.5])
def test_commutator_norm_matches_dense(trp):
    """The range computation equals the 2-norm of the dense
    [P_R(0), P_R'(trp)] assembled column by column from ``nw_projector``."""
    g = GridRep(d=1, npts=256, pmax=30.0, m=1.0, s=0)
    basis = np.zeros((g.npts,) + g.state_shape, dtype=complex)
    basis[:, :, 0, 0] = np.eye(g.npts)   # unit vectors of the positive sector

    def dense(interval, t):
        return nw_projector(g, interval, t).apply(basis)[:, :, 0, 0].T

    p1, p2 = dense((-2.0, -1.0), 0.0), dense((1.0, 2.0), trp)
    want = np.linalg.norm(p1 @ p2 - p2 @ p1, 2)
    got = microcausality_check((-2.0, -1.0), 0.0, (1.0, 2.0), trp, g)
    assert got == pytest.approx(want, rel=1e-12)


# (R, t, R', t'); the first six do not commute, the last three do
REFERENCE_CASES = [
    ((-2.0, -1.0), 0.0, (1.0, 2.0), 0.3),
    ((-2.0, -1.0), 0.0, (1.0, 2.0), 0.5),
    ((-2.0, -1.0), 0.0, (1.0, 2.0), 1.0),
    ((-2.0, -1.0), 0.0, (1.0, 2.0), 3.0),
    ((-1.0, 1.0), 0.0, (0.0, 2.0), 0.5),
    ((-3.0, 0.0), 0.0, (-1.0, 4.0), 1.0),
    ((1.0, 2.0), 0.5, (1.0, 2.0), 0.5),
    ((-2.0, -1.0), 0.0, (1.0, 2.0), 0.0),
    ((-1.0, 1.0), 0.7, (0.0, 2.0), 0.7),
]


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_commutator_norm_matches_power_iteration(case):
    """Reference: power iteration on C^dag C = -C^2 for the commutator C of
    the two ``nw_projector`` maps, which is anti-Hermitian."""
    r, tr, rp, trp = case
    g = GridRep(d=1, npts=1024, pmax=20.0, m=1.0, s=0)
    p1, p2 = nw_projector(g, r, tr), nw_projector(g, rp, trp)

    def comm(v):
        return p1(p2(v)) - p2(p1(v))

    def minus_comm(v):
        return p2(p1(v)) - p1(p2(v))

    want = oracles.power_norm(lambda v: minus_comm(comm(v)), g.state_shape,
                              seed=1, iterations=250)
    got = microcausality_check(r, tr, rp, trp, g)
    if tr == trp:
        assert want <= 1e-12 and got <= 1e-12
    else:
        assert want > 1e-3
        assert got == pytest.approx(want, rel=1e-10)


def test_commutator_norm_makes_a_fixed_number_of_ffts(monkeypatch):
    """No iteration: the FFT count at the CLI defaults is the same small
    constant at equal and unequal times."""
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    g = GridRep(d=1, npts=2048, pmax=30.0, m=1.0, s=0)
    counts = []
    for trp in (0.0, 1.0):
        calls.clear()
        microcausality_check((-2.0, -1.0), 0.0, (1.0, 2.0), trp, g)
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1] <= 4
