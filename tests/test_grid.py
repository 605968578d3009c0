"""Momentum-grid realization: transforms, realize, buffer ownership."""

from fractions import Fraction

import numpy as np
import pytest

from qpskit import (GridRep, UnsupportedSymbolError, foldy_generators,
                    gaussian_states, parse_expr, realize)
import qpskit.grid
from qpskit.grid import GridConfigError

P = parse_expr


def _max_relative_norm(fn, states):
    """max over the states of ||fn(psi)|| / ||psi||, one batched call."""
    batch = np.stack(states)
    out = fn(batch).reshape(len(states), -1)
    return float(np.max(np.linalg.norm(out, axis=1)
                        / np.linalg.norm(batch.reshape(len(states), -1), axis=1)))


def test_grid_validation():
    with pytest.raises(GridConfigError):
        GridRep(d=2)
    with pytest.raises(GridConfigError):
        GridRep(npts=33)
    with pytest.raises(GridConfigError):
        GridRep(m=-1.0)
    for bad in (float("nan"), float("inf")):
        for name in ("pmax", "m", "hbar", "tval"):
            with pytest.raises(GridConfigError):
                GridRep(**{name: bad})


def test_grid_has_no_zero_momentum():
    g = GridRep(d=1, npts=32, pmax=4.0)
    assert np.abs(g.p_axis).min() > 0
    assert np.allclose(np.diff(g.p_axis), g.dp)
    assert g.p_axis[0] >= -g.pmax and g.p_axis[-1] < g.pmax


def test_transform_matches_direct_dft_and_is_unitary():
    g = GridRep(d=1, npts=16, pmax=3.0)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=g.state_shape) + 1j * rng.normal(size=g.state_shape)
    xt = g.to_position(psi)
    direct = np.zeros_like(xt)
    for n in range(g.npts):
        kernel = np.exp(1j * g.p_axis * g.x_axis[n] / g.hbar)
        direct[n] = (kernel[:, None, None] * psi).sum(axis=0) * g.dp \
            / np.sqrt(2 * np.pi * g.hbar)
    assert np.abs(xt - direct).max() < 1e-12
    back = g.to_momentum(xt)
    assert np.abs(back - psi).max() < 1e-12
    # physical norms agree
    assert np.sum(np.abs(xt) ** 2) * g.dx == pytest.approx(
        np.sum(np.abs(psi) ** 2) * g.dp, rel=1e-12)


@pytest.mark.parametrize("npts, pmax", [(4096, 60.0), (2048, 30.0)])
def test_transforms_carry_no_phase_error(npts, pmax):
    """Both transforms of unit vectors against their kernels, built from the
    integer-reduced argument p_j x_k / hbar = pi ((2j+1-n)(2k-n) mod 4n) / (2n).
    Phases taken as exp of the unreduced argument were off by up to 3.5e-12
    here."""
    g = GridRep(d=1, npts=npts, pmax=pmax)
    n, rows = npts, 128
    root = np.sqrt(2 * np.pi * g.hbar)

    def kernel(j, k):
        """exp(i p_j x_k / hbar), j down and k across."""
        reduced = (2 * j[:, None] + 1 - n) * (2 * k - n) % (4 * n)
        return np.exp(1j * np.pi * reduced / (2 * n))

    for start in range(0, n, rows):
        idx = np.arange(start, start + rows)
        unit = np.zeros((rows, *g.state_shape), dtype=complex)
        unit[np.arange(rows), idx, 0, 0] = 1.0
        pos = g.to_position(unit)[..., 0, 0] * (root / g.dp)
        assert np.abs(pos - kernel(idx, np.arange(n))).max() <= 1e-14
        mom = g.to_momentum(unit)[..., 0, 0] * (root / g.dx)
        assert np.abs(mom - np.conj(kernel(np.arange(n), idx)).T).max() <= 1e-14


def test_realize_momentum_is_diagonal():
    g = GridRep(d=1, npts=64, pmax=6.0)
    delta = np.zeros(g.state_shape, dtype=complex)
    delta[13, 0, 0] = 1.0
    out = realize(P("P1"), g).apply(delta)
    assert out[13, 0, 0] == pytest.approx(g.p_axis[13])
    out[13, 0, 0] = 0.0
    assert np.abs(out).max() == 0.0


def test_realize_omega_spectrum_bounds():
    g = GridRep(d=3, npts=8, pmax=2.0, m=1.5)
    states = gaussian_states(g, nstates=3, seed=0)
    omega_map = realize(P("omega"), g)
    top = np.sqrt(3 * g.pmax**2 + g.m**2)
    for psi in states:
        val = np.vdot(psi, omega_map.apply(psi)).real / np.vdot(psi, psi).real
        assert g.m <= val <= top
    assert g.omega.min() >= g.m


def test_canonical_pair_residual_spectral_accuracy():
    g = GridRep(d=1, npts=512, pmax=8.0)
    q = realize(P("Q1"), g)
    p1 = realize(P("P1"), g)
    states = gaussian_states(g, nstates=4, seed=3)
    r = _max_relative_norm(
        lambda v: (q(p1(v)) - p1(q(v))) / (1j * g.hbar) - v, states)
    assert r <= 1e-10
    # the states are band-limited: under 1e-3 of the probability lies within
    # 10 cells of the momentum-box edge
    for psi in states:
        prob = np.abs(psi) ** 2
        assert prob[np.r_[:10, -10:0]].sum() <= 1e-3 * prob.sum()


def test_q_action_matches_analytic_derivative():
    # independent oracle: i*hbar d/dp of a Gaussian, computed analytically
    g = GridRep(d=1, npts=256, pmax=8.0)
    sig = 0.9
    psi = np.zeros(g.state_shape, dtype=complex)
    psi[:, 0, 0] = np.exp(-g.p_axis**2 / (2 * sig**2))
    out = realize(P("Q1"), g).apply(psi)
    expected = 1j * g.hbar * (-g.p_axis / sig**2) * psi[:, 0, 0]
    assert np.abs(out[:, 0, 0] - expected).max() < 1e-10


def test_distinct_axes_commute_exactly():
    g = GridRep(d=3, npts=8, pmax=2.0)
    states = gaussian_states(g, nstates=3, seed=1)
    q1 = realize(P("Q1"), g)
    for other in ("P2", "Q2"):
        b = realize(P(other), g)
        assert _max_relative_norm(lambda v: q1(b(v)) - b(q1(v)), states) <= 1e-12, other


def test_realize_agrees_with_normal_form():
    g = GridRep(d=1, npts=256, pmax=4.0, m=1.0)
    states = gaussian_states(g, nstates=4, seed=5)
    # same operator assembled two ways: raw product vs normal form
    q, omega = realize(P("Q1"), g), realize(P("omega"), g)
    nf = realize(P("Q1*omega"), g)
    worst = 0.0
    for psi in states:
        d = q.apply(omega.apply(psi)) - nf.apply(psi)
        worst = max(worst, g.norm(d) / g.norm(psi))
    assert worst <= 1e-9


def test_unsupported_symbols():
    g = GridRep(d=1, npts=16, pmax=2.0)
    with pytest.raises(UnsupportedSymbolError):
        realize(P("Q2"), g)
    with pytest.raises(UnsupportedSymbolError):
        realize(P("Mmass*Q1"), g)
    g3 = GridRep(d=3, npts=8, pmax=2.0, s=Fraction(1, 2))
    realize(P("Q2*S3*Lam"), g3)   # fine in 3D with spin


def test_lambda_and_spin_action():
    g = GridRep(d=1, npts=16, pmax=2.0, s=Fraction(1, 2))
    psi = np.zeros(g.state_shape, dtype=complex)
    psi[4, 0, 0] = 1.0   # spin up, positive sector
    psi[4, 1, 1] = 1.0   # spin down, negative sector
    out = realize(P("Lam"), g).apply(psi)
    assert out[4, 0, 0] == 1.0 and out[4, 1, 1] == -1.0
    out = realize(P("S3"), g).apply(psi)
    assert out[4, 0, 0] == pytest.approx(0.5 * g.hbar)
    assert out[4, 1, 1] == pytest.approx(-0.5 * g.hbar)


# -- the compiled apply plan against a term-by-term reference -----------------------


def _reference_apply(e, g, psi):
    """Each term c(P) Q^k S^n Lam^l on its own: the sector sign, einsum with
    the spin matrix, and full ``to_momentum(x^k to_position(.))`` transforms."""
    xs = np.meshgrid(*([g.x_axis] * g.d), indexing="ij")
    out = np.zeros(psi.shape, dtype=complex)
    for mono, coeff in e.terms.items():
        qmono, smono, lam = mono[:3], mono[3:6], mono[6]
        carr = np.asarray(g.eval_coeff(coeff))[..., None, None]
        smat = np.eye(g.nspin, dtype=complex)
        for idx, expnt in enumerate(smono):
            for _ in range(expnt):
                smat = smat @ g.spin_mats[idx]
        sign = np.array([1.0, -1.0]) ** lam
        xk = np.ones(xs[0].shape)
        for a in range(g.d):
            xk = xk * xs[a] ** qmono[a]

        def q(v):
            return g.to_momentum(xk[..., None, None] * g.to_position(v)) \
                if any(qmono) else v

        out += carr * q(np.einsum("ij,...jk->...ik", smat, sign * psi))
    return out


def _assert_matches_reference(e, g, psi, label=""):
    got = realize(e, g).apply(psi)
    want = _reference_apply(e, g, psi)
    assert got.shape == psi.shape
    err = np.abs(got - want).max()
    assert err <= 1e-12 * np.abs(want).max(), (label, err)


def _two_batch_axes(g, seed):
    return np.stack([np.stack(gaussian_states(g, nstates=2, seed=seed + k))
                     for k in range(2)])


@pytest.mark.parametrize("spin", [Fraction(1, 2), 0], ids=["s1/2", "s0"])
def test_plan_matches_reference_on_every_foldy_generator(spin):
    g = GridRep(d=3, npts=16, pmax=2.0, m=1.0, s=spin, tval=0.3)
    psi = np.stack(gaussian_states(g, nstates=2, seed=11))
    for name, e in foldy_generators().items():
        _assert_matches_reference(e, g, psi, name)


@pytest.mark.parametrize("spin, text, d, npts", [
    (1, "Q1*Q1*Q3*S1*S2 + Lam*S3*Q2 + omega", 3, 16),
    (Fraction(3, 2), "Q2*S1*Lam + i*P3*S2", 3, 16),
    (0, "Q1*omega + Lam*P1", 1, 4096),
], ids=["s1-3d", "s3/2-3d", "s0-1d"])
def test_plan_matches_reference_with_batch_axes(spin, text, d, npts):
    g = GridRep(d=d, npts=npts, pmax=2.0, m=1.0, s=spin, tval=0.3)
    if spin == 1:   # the 3x3 spin matrices of this case have zero entries
        assert (g.spin_mats[0] == 0).any() and (g.spin_mats[2] == 0).any()
    _assert_matches_reference(P(text), g, _two_batch_axes(g, 21), text)


def test_plan_takes_non_contiguous_views():
    g = GridRep(d=3, npts=8, pmax=2.0, m=1.0, s=1)
    psi = _two_batch_axes(g, 31)
    view = psi[..., ::-1, :]
    amap = realize(P("Q1*Q1*Q3*S1*S2 + Lam*S3*Q2 + omega"), g)
    assert np.array_equal(amap.apply(view), amap.apply(np.ascontiguousarray(view)))


def test_plan_rejects_states_of_another_grid():
    g = GridRep(d=3, npts=8, pmax=2.0, s=Fraction(1, 2))
    with pytest.raises(GridConfigError):
        realize(P("P1"), g).apply(np.zeros((8, 8, 2, 2)))


def _count_calls(monkeypatch, module, names, calls=None):
    """Count the calls to ``module.<name>`` for each name, into ``calls``."""
    calls = {} if calls is None else calls
    calls.update(dict.fromkeys(names, 0))
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


CHARGED = (("Q2*omega + S1*Lam", 1), ("Q2*S3 + Lam*P1", 1),
           ("Q1*Q1*Q3", 2), ("Q1 + Q2*S1", 2))


def test_short_axis_q_monomial_costs_one_matmul_per_axis(monkeypatch):
    g = GridRep(d=3, npts=8, pmax=2.0, s=Fraction(1, 2))
    assert g.npts <= qpskit.grid._DENSE_Q_MAX
    psi = np.stack(gaussian_states(g, nstates=2, seed=3))
    for power in (1, 2):   # the dense matrices are built once per grid
        g._q_matrix(power)
    calls = _count_calls(monkeypatch, np.fft, ("fft", "ifft"))
    _count_calls(monkeypatch, np, ("matmul",), calls)
    for text, axes in CHARGED:
        amap = realize(P(text), g)
        calls.update(fft=0, ifft=0, matmul=0)
        amap.apply(psi)
        assert calls == {"fft": 0, "ifft": 0, "matmul": axes}, text


def test_long_axis_q_monomial_costs_one_transform_pair(monkeypatch):
    g = GridRep(d=3, npts=66, pmax=2.0, s=Fraction(1, 2))
    assert g.npts > qpskit.grid._DENSE_Q_MAX
    psi = gaussian_states(g, nstates=1, seed=3)[0]
    calls = _count_calls(monkeypatch, np.fft, ("fft", "ifft"))
    for text, pairs in CHARGED:
        amap = realize(P(text), g)
        calls.update(fft=0, ifft=0)
        amap.apply(psi)
        assert calls == {"fft": pairs, "ifft": pairs}, text


@pytest.mark.parametrize("d, npts", [(3, 8), (3, 16), (1, 64), (1, 66), (1, 256)],
                         ids=["dense-3d-8", "dense-3d-16", "dense-1d-64",
                              "fft-1d-66", "fft-1d-256"])
def test_q_powers_match_the_position_transform(d, npts):
    """Q1^k against to_momentum(x^k to_position(psi)) on both sides of the
    dense cutoff."""
    g = GridRep(d=d, npts=npts, pmax=2.0, s=Fraction(1, 2))
    psi = np.stack(gaussian_states(g, nstates=2, seed=13))
    x1 = np.meshgrid(*([g.x_axis] * d), indexing="ij")[0][..., None, None]
    for k in (1, 2, 3):
        got = realize(P("*".join(["Q1"] * k)), g).apply(psi)
        want = g.to_momentum(x1**k * g.to_position(psi))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), k


# -- buffer ownership ------------------------------------------------------------


def test_apply_leaves_its_input_unchanged():
    g = GridRep(d=3, npts=8, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)
    amap = realize(P("Q1*Q1*Q3*S1*S2 + Lam*S3*Q2 + omega"), g)
    psi = _two_batch_axes(g, 41)
    # the batch in the public layout is copied in; a result is read in place
    for state in (psi, amap.apply(psi)):
        kept = state.copy()
        amap.apply(state)
        assert np.array_equal(state, kept)


def test_apply_results_share_no_memory():
    g = GridRep(d=3, npts=8, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)
    amap = realize(P("Q2*S1*Lam + i*P3*S2 + omega"), g)
    psi = _two_batch_axes(g, 43)
    first = amap.apply(psi)
    second = amap.apply(psi)
    third = amap.apply(first)
    assert np.array_equal(first, second)
    for a, b in ((first, second), (first, psi), (second, psi),
                 (third, first), (third, second)):
        assert not np.shares_memory(a, b)


def test_recycled_buffers_are_handed_out_again_and_only_once():
    g = GridRep(d=1, npts=16, pmax=2.0)
    buf = g.take_buffer((2, 16))
    g.recycle(buf)
    with pytest.raises(GridConfigError):
        g.recycle(buf)
    # the free list is keyed by size: a buffer comes back in any shape
    again = g.take_buffer((4, 8))
    assert again.shape == (4, 8) and np.shares_memory(again, buf)
    assert not np.shares_memory(g.take_buffer((4, 8)), buf)


def _block_dot_norms(arr):
    """Per-state norms as one ``einsum`` dot product of each (spin, sector)
    block's real view, block after block, in spin-first order."""
    nstates = len(arr)
    blocks = np.moveaxis(arr, (-2, -1), (0, 1)).reshape(-1, nstates,
                                                        np.prod(arr.shape[1:-2]))
    return np.sqrt([sum(np.einsum("i,i->", v, v) for v in
                        (block.view(float) for block in blocks[:, n]))
                    for n in range(nstates)])


def test_sample_batch_norms_are_the_block_dot_product_reduction():
    g = GridRep(d=3, npts=8, pmax=2.0, s=Fraction(1, 2))
    batch = qpskit.grid.sample_batch(g, 3, 4, None)
    assert np.moveaxis(batch.states, (-2, -1), (0, 1)).flags.c_contiguous
    k1 = realize(foldy_generators()["K1"], g).apply(batch.states)
    for arr in (batch.states, k1):
        assert np.array_equal(batch.norms(arr), _block_dot_norms(arr))
    # an array in C order is read through a spin-first copy
    assert np.array_equal(batch.norms(np.ascontiguousarray(k1)), batch.norms(k1))
    assert np.array_equal(batch.in_norms, _block_dot_norms(batch.states))
    assert batch.residual(k1) == float(np.max(_block_dot_norms(k1) / batch.in_norms))


def test_sample_batch_combine_writes_over_the_first_owned_operand():
    g = GridRep(d=3, npts=8, pmax=2.0, s=Fraction(1, 2))
    batch = qpskit.grid.sample_batch(g, 2, 0, None)
    states = batch.states
    # no owned operand: a new buffer of the grid's, spin-first like the states
    a, owned = batch.combine(np.multiply, (2.0, False), (states, False))
    b, _ = batch.combine(np.multiply, (3.0, False), (states, False))
    assert owned and not np.shares_memory(a, b) and not np.shares_memory(a, states)
    assert np.moveaxis(a, (-2, -1), (0, 1)).flags.c_contiguous
    out, owned = batch.combine(np.subtract, (states, False), (a, True))
    assert owned and out is a
    assert np.array_equal(out, states - 2.0 * states)
    out, owned = batch.combine(np.add, (a, True), (b, True))
    assert owned and out is a
    assert np.array_equal(out, (states - 2.0 * states) + 3.0 * states)
    with pytest.raises(GridConfigError, match="recycled twice"):
        batch.release(b)   # combine gave it back already
    batch.release(a)


@pytest.mark.parametrize("spin", [Fraction(1, 2), 0], ids=["s1/2", "s0"])
def test_apply_reads_no_reused_buffer_before_writing_it(spin):
    """A realized map writes its first term into its output instead of adding
    it to a zeroed one: on a grid whose free list holds only NaN buffers,
    every Foldy generator gives what it gives on a fresh grid."""
    kw = dict(d=3, npts=8, pmax=2.0, m=1.0, s=spin, tval=0.3)
    fresh, dirty = GridRep(**kw), GridRep(**kw)
    psi = np.stack(gaussian_states(fresh, nstates=2, seed=51))
    block = psi.size // (fresh.nspin * 2)
    for name, e in foldy_generators().items():
        for size in (psi.size, block):
            dirty._free[size] = [np.full(size, np.nan, dtype=complex)
                                 for _ in range(8)]
        got = realize(e, dirty).apply(psi)
        assert np.array_equal(got, realize(e, fresh).apply(psi)), name


@pytest.mark.parametrize("sector", [0, 2, -0.5])
def test_gaussian_states_take_only_a_sector_sign(sector):
    g = GridRep(d=1, npts=16, pmax=2.0)
    with pytest.raises(GridConfigError):
        gaussian_states(g, nstates=1, sector=sector)
    for sign, empty in ((1, 1), (-1, 0)):
        (psi,) = gaussian_states(g, nstates=1, sector=sign)
        assert not psi[..., empty].any() and psi[..., 1 - empty].all()


def _held_arrays(amap):
    """The arrays a realized map's apply closure holds, through its table."""
    found, todo = [], [c.cell_contents for c in amap._apply.__closure__]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return found


def test_maps_hold_the_grids_own_momentum_and_omega():
    """P_i and omega are not copied into each map that multiplies by them,
    and a shared coefficient array cannot be written through."""
    g = GridRep(d=3, npts=8, pmax=2.0, s=Fraction(1, 2))
    for text, own in (("P1", g.pmesh[0]), ("Lam*omega", g.omega)):
        held = _held_arrays(realize(P(text), g))
        assert held and all(np.shares_memory(a, own) for a in held), text
        for arr in held:
            with pytest.raises(ValueError):
                arr += 1.0
    neg = _held_arrays(realize(P("Q3*P2 - Q2*P3"), g))
    assert all(np.shares_memory(a, g.pmesh[1]) or np.shares_memory(a, g.pmesh[2])
               for a in neg)
