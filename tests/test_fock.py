"""Truncated Fock space: structure maps, ladder algebra, field operators,
expectation curves, truncation stability."""

import tracemalloc

import numpy as np
import pytest

import oracles
from qpskit import (FockConfigError, FockField, FockOperator, PhasePoint,
                    expectation_suite, fock_report, profile_fwhm)
from qpskit.fock import _ccr_gap, _join


@pytest.fixture(scope="module")
def field():
    return FockField(8, 1.0, 3)


def rand_phase(rng, n):
    return PhasePoint(rng.normal(size=n), rng.normal(size=n))


def rand_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def number_op(field, psi):
    """N(psi) = a^+(psi) a(psi) as a graded operator."""
    a = field.annihilator(psi)
    return a.adjoint() @ a


def norm_below(op, max_total):
    """Spectral norm of ``op`` on the sectors with at most ``max_total``
    particles."""
    return np.linalg.norm(oracles.restricted(op, max_total), 2)


def test_construction_guards():
    with pytest.raises(FockConfigError):
        FockField(3, 1.0, 3)
    with pytest.raises(FockConfigError):
        FockField(8, 1.0, 1)
    with pytest.raises(FockConfigError):
        FockField(8, -1.0, 3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(FockConfigError):
            FockField(8, bad, 3)
        with pytest.raises(FockConfigError):
            FockField(8, 1.0, 3, hbar=bad)


def test_dimension_and_grading(field):
    assert field.dim == 165         # sum_j C(8+j-1, j), j = 0..3
    offsets = field.sector_offsets
    assert offsets[0] == 0 and offsets[-1] == field.dim
    assert list(offsets[1:5] - offsets[0:4]) == [1, 8, 36, 120]


def test_omega_spectrum(field):
    k = np.arange(8)
    expected = np.sqrt(4 * np.sin(np.pi * k / 8) ** 2 + 1.0)
    assert np.allclose(field.omega_k, expected)
    assert field.omega_k.min() == pytest.approx(1.0)   # zero mode


def test_complex_structure_squares_to_minus_one(field):
    rng = np.random.default_rng(3)
    z = rand_phase(rng, 8)
    jjz = field.complex_structure(field.complex_structure(z))
    # composing the stated form by hand gives (-f, -g)
    assert np.allclose(jjz.f, -z.f) and np.allclose(jjz.g, -z.g)


def test_one_particle_map(field):
    rng = np.random.default_rng(4)
    z = rand_phase(rng, 8)
    assert np.allclose(field.one_particle_map(field.complex_structure(z)),
                       1j * field.one_particle_map(z))
    f_only = PhasePoint(z.f, np.zeros(8))
    assert np.allclose(field.one_particle_map(f_only),
                       field.omega_power(z.f, 0.5) / np.sqrt(2 * field.hbar))


def test_symplectic_structure(field):
    rng = np.random.default_rng(5)
    z, zp = rand_phase(rng, 8), rand_phase(rng, 8)
    assert field.symplectic(z, zp) == pytest.approx(-field.symplectic(zp, z))
    assert field.symplectic(field.complex_structure(z),
                            field.complex_structure(zp)) \
        == pytest.approx(field.symplectic(z, zp), rel=1e-10, abs=1e-12)


def test_vacuum_condition_and_ladder_ccrs(field):
    rng = np.random.default_rng(6)
    psi, phi = rand_state(rng, 8), rand_state(rng, 8)
    a = field.annihilator(psi)
    adag = a.adjoint()
    assert np.abs(a.apply(field.vacuum())).max() == 0.0
    comm = oracles.commutator(a, field.annihilator(phi).adjoint())
    comm -= oracles.identity(field, np.vdot(psi, phi))
    assert norm_below(comm, field.nmax - 1) <= 1e-12
    assert norm_below(oracles.commutator(a, field.annihilator(phi)), field.nmax) <= 1e-13
    # antilinear in the argument
    assert np.allclose(oracles.dense(field.annihilator(2j * psi)), -2j * oracles.dense(a))
    assert np.allclose(oracles.dense(field.annihilator(2j * psi).adjoint()),
                       2j * oracles.dense(adag))


def test_orthogonal_arguments_commute(field):
    e0 = np.real(np.fft.ifft(np.eye(8)[0]) * np.sqrt(8))
    e1 = np.fft.ifft(np.eye(8)[1]) * np.sqrt(8)
    comm = oracles.commutator(field.annihilator(e0), field.annihilator(e1).adjoint())
    assert norm_below(comm, field.nmax - 1) <= 1e-12


def test_number_operator(field):
    rng = np.random.default_rng(7)
    psi = rand_state(rng, 8)
    n_op = number_op(field, psi)
    a = field.annihilator(psi)
    evals = np.linalg.eigvalsh(oracles.dense(n_op))
    assert np.abs(evals - np.round(evals)).max() <= 1e-10
    assert evals.min() >= -1e-10
    assert sorted(set(int(round(v)) for v in evals)) == [0, 1, 2, 3]
    n_plus_one = oracles.copied(n_op)
    n_plus_one += oracles.identity(field)
    shifted = n_plus_one @ a
    shifted -= a @ n_op
    assert np.abs(oracles.dense(shifted)).max() <= 1e-12


def test_ladder_shifts_sectors_exactly(field):
    rng = np.random.default_rng(8)
    adag = oracles.dense(field.annihilator(rand_state(rng, 8)).adjoint())
    for i in range(field.dim):
        for j in range(field.dim):
            if abs(adag[i, j]) > 1e-14:
                assert field.totals[i] == field.totals[j] + 1


def test_field_ccr(field):
    rng = np.random.default_rng(9)
    z, zp = rand_phase(rng, 8), rand_phase(rng, 8)
    comm = oracles.commutator(field.field_op(z), field.field_op(zp))
    comm -= oracles.identity(field, 1j * field.hbar * field.symplectic(z, zp))
    assert norm_below(comm, field.nmax - 1) <= 1e-10


def test_interdefinability(field):
    rng = np.random.default_rng(10)
    z = rand_phase(rng, 8)
    a = field.annihilator(field.one_particle_map(z))
    rhs = field.field_op(z)
    rhs *= 1j
    rhs -= field.field_op(field.complex_structure(z))
    rhs *= 1 / (2 * field.hbar)
    assert np.abs(oracles.dense(a) - oracles.dense(rhs)).max() <= 1e-12


def test_local_field_operators(field):
    def pi_hat(x):
        """pi_hat(x) = Phi(delta_x, 0)."""
        delta = np.zeros(field.nsites)
        delta[x] = 1.0
        return field.field_op(PhasePoint(delta, np.zeros(field.nsites)))

    phi = field.local_field(2)
    pi = pi_hat(2)
    for op in (phi, pi):
        assert np.abs(oracles.dense(op) - oracles.dense(op.adjoint())).max() <= 1e-13
    # equal-site field/momentum CCR: [phi(x), pi(y)] = i hbar delta_xy
    for y in (2, 5):
        comm = oracles.commutator(phi, pi_hat(y))
        want = 1j * field.hbar * (1.0 if y == 2 else 0.0)
        block = oracles.restricted(comm, field.nmax - 1)
        dim = len(block)
        assert np.abs(block - want * np.eye(dim)).max() <= 1e-12


def test_vacuum_unique_in_truncation(field):
    totals = field.total_number_diagonal()
    assert int((np.abs(totals) < 1e-12).sum()) == 1
    assert np.abs(totals - field.totals).max() <= 1e-12


def test_vacuum_unique_reads_the_ladder_operators(monkeypatch):
    def entry(report):
        return next(e for e in report.entries if e.id == "vacuum_unique")

    assert entry(fock_report("spectrum", sites=6, nmax=2)[0]).passed
    monkeypatch.setattr(FockField, "_ladder_values",
                        lambda self, psi: np.zeros(len(self._ladder_cols), dtype=complex))
    broken = entry(fock_report("spectrum", sites=6, nmax=2)[0])
    assert not broken.passed and broken.residual == str(FockField(6, 1.0, 2).dim)


def test_one_particle_state_matches_creator_on_vacuum():
    field = FockField(10, 1.0, 4)
    rng = np.random.default_rng(41)
    for psi in (rand_state(rng, 10), np.eye(10)[3], np.ones(10) / np.sqrt(10)):
        want = field.annihilator(psi).adjoint().apply(field.vacuum())
        assert np.array_equal(field.one_particle_state(psi), want)
    with pytest.raises(FockConfigError):
        field.one_particle_state(np.zeros(10))


def test_expectation_suite(field):
    psi = np.zeros(8)
    psi[3] = 1.0
    curves = expectation_suite(psi, field)
    assert curves.max_first_moment <= 1e-13
    assert curves.vacuum_value_error <= 1e-12
    assert curves.max_difference_error <= 1e-10
    # peak of the difference curve is at the excitation site
    assert int(np.argmax(curves.difference)) == 3


def test_expectation_difference_formula_every_site(field):
    rng = np.random.default_rng(11)
    psi = rand_state(rng, 8)
    curves = expectation_suite(psi, field)
    assert curves.max_difference_error <= 1e-10


def test_peak_width_shrinks_with_mass():
    d = np.zeros(32)
    d[16] = 1.0
    wide = profile_fwhm(FockField(32, 0.5, 2).smeared_profile(d))
    narrow = profile_fwhm(FockField(32, 2.0, 2).smeared_profile(d))
    assert narrow < wide


def test_truncation_stability():
    """Identities restricted below the cutoff do not move when the cutoff
    grows by one."""
    rng = np.random.default_rng(12)
    small = FockField(6, 1.0, 3)
    big = FockField(6, 1.0, 4)
    psi = rand_state(rng, 6)
    phi = rand_state(rng, 6)
    z, zp = rand_phase(rng, 6), rand_phase(rng, 6)
    pairs = [
        (oracles.commutator(small.annihilator(psi), small.annihilator(phi).adjoint()),
         oracles.commutator(big.annihilator(psi), big.annihilator(phi).adjoint())),
        (oracles.commutator(small.field_op(z), small.field_op(zp)),
         oracles.commutator(big.field_op(z), big.field_op(zp))),
        (number_op(small, psi) @ small.annihilator(psi),
         number_op(big, psi) @ big.annihilator(psi)),
    ]
    cut = small.nmax - 2
    dim = small.sector_offsets[cut + 1]
    for op_small, op_big in pairs:
        blk_small = oracles.restricted(op_small, cut)
        blk_big = oracles.dense(op_big)[:dim, :dim]
        assert np.abs(blk_small - blk_big).max() <= 1e-12


def test_zero_vector_refused(field):
    with pytest.raises(FockConfigError):
        field.annihilator(np.zeros(8))
    with pytest.raises(FockConfigError):
        expectation_suite(np.zeros(8), field)


def test_block_bounds_are_checked(field):
    rng = np.random.default_rng(13)
    a = field.annihilator(rand_state(rng, 8))
    for bad in (-2, -1, field.nmax + 1, 1.5):
        with pytest.raises(FockConfigError):
            oracles.restricted(a, bad)
        with pytest.raises(FockConfigError):
            a.commutator_on(a, [0, bad])
    with pytest.raises(FockConfigError):
        a.commutator_on(a, [1, 0, 1])
    assert oracles.restricted(a, 0).shape == (1, 1)
    assert oracles.restricted(a, field.nmax).shape == (field.dim, field.dim)


def _dense_mode_annihilators(field):
    """Per-mode a_k as dense matrices, from the occupation basis directly."""
    ref = oracles.fock_ladder(field.nsites, field.nmax)
    mats = []
    for mode in range(field.nsites):
        mat = np.zeros((field.dim, field.dim))
        for col, occ in enumerate(ref.basis):
            n = occ[mode]
            if n:
                target = list(occ)
                target[mode] = n - 1
                mat[ref.index[tuple(target)], col] = np.sqrt(n)
        mats.append(mat)
    return mats


@pytest.mark.parametrize("sites,nmax", [(4, 2), (6, 3), (10, 2), (10, 4), (70, 2)])
def test_ladder_arrays_match_the_loop_built_basis(sites, nmax):
    """(70, 2): C(71, 35) overflows 64 bits, though no index comes near it."""
    field = FockField(sites, 1.0, nmax)
    ref = oracles.fock_ladder(sites, nmax)
    assert field.dim == len(ref.basis)
    for got, want in ((field.totals, ref.totals),
                      (field.sector_offsets, ref.sector_offsets),
                      (field._ladder_rows, ref.rows), (field._ladder_cols, ref.cols),
                      (field._ladder_modes, ref.modes),
                      (field._ladder_sqrt_n, ref.sqrt_n),
                      (field._one_particle_index, ref.one_particle_index)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(field._ladder_sectors) == len(ref.sectors) == nmax
    for (n, run, rows, cols), (rn, rrun, rrows, rcols) in zip(
            field._ladder_sectors, ref.sectors):
        assert (n, run) == (rn, rrun)
        assert np.array_equal(rows, rrows) and np.array_equal(cols, rcols)


@pytest.mark.parametrize("sites,nmax,hbar", [(4, 2, 1.0), (6, 4, 0.7), (8, 3, 1.0)])
def test_annihilator_matches_dense_mode_sum(sites, nmax, hbar):
    field = FockField(sites, 1.3, nmax, hbar=hbar)
    modes = _dense_mode_annihilators(field)
    rng = np.random.default_rng(sites)
    x = np.arange(sites)
    sparse_psi = (1.0 + (-1.0) ** x) + 0j          # only k = 0 and k = Ns/2
    assert (np.fft.fft(sparse_psi) == 0).any()
    for psi in (rand_state(rng, sites), sparse_psi):
        coeffs = np.fft.fft(psi) / np.sqrt(sites)
        want = np.zeros((field.dim, field.dim), dtype=complex)
        for c, amat in zip(coeffs, modes):
            if c:
                want += np.conj(c) * amat
        assert np.array_equal(oracles.dense(field.annihilator(psi)), want)
    z = rand_phase(rng, sites)
    a = oracles.dense(field.annihilator(field.one_particle_map(z)))
    assert np.array_equal(oracles.dense(field.field_op(z)), (a - a.conj().T) * (-1j * hbar))


@pytest.mark.parametrize("sites,nmax", [(6, 2), (8, 3), (6, 4)])
def test_ccr_block_matches_full_commutator(sites, nmax):
    field = FockField(sites, 1.0, nmax)
    rng = np.random.default_rng(14)
    phi = field.field_op(rand_phase(rng, sites))
    phi_p = field.field_op(rand_phase(rng, sites))
    shift = 1j * field.hbar * 0.37
    block = phi.commutator_on(phi_p, range(nmax))
    block -= shift * np.eye(field.block_dim(nmax - 1))
    full = oracles.commutator(phi, phi_p)
    full -= oracles.identity(field, shift)
    assert np.abs(block - oracles.restricted(full, nmax - 1)).max() <= 1e-13
    assert abs(np.linalg.norm(block, 2) - norm_below(full, nmax - 1)) <= 1e-13


def test_expectation_squares_match_dense_square(field):
    rng = np.random.default_rng(15)
    psi = rand_state(rng, 8)
    curves = expectation_suite(psi, field)
    vac = field.vacuum()
    one = field.one_particle_state(psi)
    for x in range(8):
        phi = field.local_field(x)
        sq = phi @ phi
        assert abs(curves.vacuum_sq[x] - np.vdot(vac, sq.apply(vac)).real) <= 1e-14
        assert abs(curves.one_particle_sq[x] - np.vdot(one, sq.apply(one)).real) <= 1e-14


def test_expectation_suite_forms_no_operator_products(monkeypatch):
    field = FockField(10, 1.0, 4)
    for name, val in vars(field).items():
        for arr in val if isinstance(val, (list, tuple)) else [val]:
            if isinstance(arr, np.ndarray):
                assert arr.size < field.dim ** 2, name

    def refuse(self, other):
        raise AssertionError("dense operator product formed")

    monkeypatch.setattr(FockOperator, "__matmul__", refuse)
    psi = np.zeros(10)
    psi[5] = 1.0
    curves = expectation_suite(psi, field)
    assert curves.max_difference_error <= 1e-10


def test_expectation_suite_memory_peak():
    field = FockField(10, 1.0, 4)
    psi = np.zeros(10)
    psi[5] = 1.0
    tracemalloc.start()
    try:
        expectation_suite(psi, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 11.1 MB when every block of phi(x), up to (3, 4) and (4, 3), was built;
    # 0.33 MB with only the blocks between sectors 0-2
    assert peak < 2_000_000, peak


# -- graded operators against dense numpy --------------------------------------------


def _graded_zoo(field, rng):
    """Random graded operators built from a, a^+, Phi and N: pure ladder
    and field operators, mixed-grade sums and products, and one operator
    given as fully dense blocks (every entry nonzero)."""
    n = field.nsites
    a = field.annihilator(rand_state(rng, n))
    adag = field.annihilator(rand_state(rng, n)).adjoint()
    phi = field.field_op(rand_phase(rng, n))
    num = number_op(field, rand_state(rng, n))
    dims = field.sector_dims
    top = field.nmax

    def full(m, k):
        return rng.normal(size=(dims[m], dims[k])) + 1j * rng.normal(size=(dims[m], dims[k]))

    dense = oracles.fock_from_dense(field, {(top - 1, top): full(top - 1, top),
                                            (top - 1, top - 1): full(top - 1, top - 1)})
    mixed = oracles.copied(a)               # 0.3 a - 0.5i a^+ + Phi
    mixed *= 0.3
    part = oracles.copied(adag)
    part *= 0.5j
    mixed -= part
    mixed += phi
    shifted = oracles.copied(num)           # N + (0.25 - 0.5i)
    shifted += oracles.identity(field, 0.25 - 0.5j)
    return {"a": a, "adag": adag, "phi": phi, "N": num, "mixed": mixed,
            "NPhi": num @ phi, "shifted": shifted, "dense": dense}


def _updated(x, *steps):
    """A copy of ``x`` with the in-place ``steps`` applied in order: each is
    ``("+", y)``, ``("-", y)`` or ``("*", c)``."""
    acc = oracles.copied(x)
    for op, arg in steps:
        if op == "+":
            acc += arg
        elif op == "-":
            acc -= arg
        else:
            acc *= arg
    return acc


@pytest.mark.parametrize("sites,nmax", [(6, 4), (8, 3)])
def test_graded_algebra_matches_dense(sites, nmax):
    field = FockField(sites, 1.1, nmax, hbar=0.7)
    rng = np.random.default_rng(100 + sites)
    zoo = _graded_zoo(field, rng)
    dense = {name: oracles.dense(op) for name, op in zoo.items()}
    vec = rand_state(rng, field.dim)
    states = np.stack([vec, rand_state(rng, field.dim)], axis=1)
    c = 0.4 - 1.3j
    eye = np.eye(field.dim)
    tol = 1e-13

    def close(op, want):
        assert isinstance(op, FockOperator)
        assert np.abs(oracles.dense(op) - want).max() <= tol

    # every entry of the dense operator's blocks is kept
    assert sum(b.vals.size for b in zoo["dense"].blocks.values()) \
        == np.count_nonzero(dense["dense"])
    # in a^+ a the terms of several modes land on each diagonal entry, so
    # the join's entries collide and are summed
    k = nmax - 1
    lower, upper = zoo["a"].adjoint().blocks[(k + 1, k)], zoo["a"].blocks[(k, k + 1)]
    terms, _ = _join(lower, upper)
    assert len(np.unique(terms)) < len(terms)

    for name, x in zoo.items():
        dx = dense[name]
        assert np.abs(x.apply(vec) - dx @ vec).max() <= tol
        assert np.abs(x.apply(states) - dx @ states).max() <= tol
        assert np.array_equal(oracles.dense(x.adjoint()), dx.conj().T)
        close(_updated(x, ("*", c)), dx * c)
        close(_updated(x, ("*", -1.0)), -dx)
        close(_updated(x, ("+", oracles.identity(field, c))), dx + c * eye)
        close(_updated(x, ("-", oracles.identity(field, c))), dx - c * eye)
        assert abs(np.vdot(vec, x.apply(vec)) - np.vdot(vec, dx @ vec)) <= tol
        assert x.max_abs() == np.abs(dx).max()
        for cut in range(nmax + 1):
            k = field.block_dim(cut)
            assert np.array_equal(oracles.restricted(x, cut), dx[:k, :k])
        for other, dy in dense.items():
            y = zoo[other]
            close(_updated(x, ("+", y)), dx + dy)
            close(_updated(x, ("-", y)), dx - dy)
            close(x @ y, dx @ dy)
            close(oracles.commutator(x, y), dx @ dy - dy @ dx)
            for cut in range(nmax + 1):
                k = field.block_dim(cut)
                full = dx @ dy - dy @ dx
                assert np.abs(x.commutator_on(y, range(cut + 1)) - full[:k, :k]).max() <= tol
        # a chain of in-place forms agrees with the dense one
        close(_updated(x, ("+", zoo["phi"]), ("-", zoo["N"]),
                       ("-", oracles.identity(field, c)), ("*", c)),
              (dx + dense["phi"] - dense["N"] - c * eye) * c)
        # and no form wrote into its operands
        for other, op in zoo.items():
            assert np.array_equal(oracles.dense(op), dense[other])


@pytest.mark.parametrize("sites,nmax", [(6, 4), (8, 3)])
def test_sums_own_their_blocks(sites, nmax):
    """An in-place update of a sum, product or adjoint never writes into the
    operators it was built from."""
    field = FockField(sites, 1.0, nmax, hbar=0.7)
    rng = np.random.default_rng(sites)
    a = field.annihilator(rand_state(rng, sites))
    phi = field.field_op(rand_phase(rng, sites))
    before = oracles.dense(a), oracles.dense(phi)
    for made in (_updated(a, ("+", phi)), _updated(phi, ("+", a)),
                 _updated(a, ("-", phi)), _updated(a, ("+", oracles.identity(field, 0.0))),
                 _updated(a, ("*", 1.0)), a.adjoint(), oracles.copied(a),
                 a @ a.adjoint()):
        made += oracles.identity(field)
        made -= phi
        made *= 2.0
    assert np.array_equal(oracles.dense(a), before[0])
    assert np.array_equal(oracles.dense(phi), before[1])


def test_blocks_are_checked_against_the_sectors(field):
    with pytest.raises(FockConfigError):
        oracles.fock_from_dense(field, {(0, 1): np.zeros((1, 3))})
    op = oracles.fock_from_dense(field, {(1, 2): np.ones((8, 36))})
    assert oracles.dense(op)[1:9, 9:45].sum() == 8 * 36 and op.max_abs() == 1.0
    assert FockOperator(field, {}).max_abs() == 0.0


@pytest.mark.parametrize("sites,nmax", [(6, 4), (8, 3)])
def test_number_spectrum_refuses_bad_psi(sites, nmax):
    field = FockField(sites, 1.0, nmax, hbar=0.7)
    psi = rand_state(np.random.default_rng(sites + 1), sites)
    for bad in (np.zeros(sites), psi[:-1], np.append(psi, 0.5), np.outer(psi, psi)):
        with pytest.raises(FockConfigError):
            field.number_spectrum(bad)
        with pytest.raises(FockConfigError):
            field.annihilator(bad)
    assert len(field.number_spectrum(psi)) == field.dim


@pytest.mark.parametrize("sites,nmax", [(6, 4), (8, 3), (10, 4)])
def test_number_block_spectrum_matches_dense(sites, nmax):
    """The Gram spectrum, taken sector by sector on the smaller side, is the
    spectrum of the assembled a^+ a, zeros included."""
    field = FockField(sites, 1.0, nmax, hbar=0.7)
    psi = rand_state(np.random.default_rng(sites + 2), sites)
    num = number_op(field, psi)
    assert (0, 0) not in num.blocks          # the vacuum sector has no block
    evals = field.number_spectrum(psi)
    dense = np.linalg.eigvalsh(oracles.dense(num))
    assert len(evals) == field.dim
    assert np.array_equal(evals, np.sort(evals))
    assert np.abs(evals - dense).max() <= 1e-12
    # the vacuum's 0, plus one 0 per state with no psi quantum
    zeros = int((np.abs(evals) <= 1e-12).sum())
    assert zeros == int((np.abs(dense) <= 1e-12).sum()) >= 1
    # a(c psi) = conj(c) a(psi), so N(c psi) = |c|^2 N(psi)
    scaled = field.number_spectrum(2.5j * psi)
    assert np.abs(scaled - 6.25 * dense).max() <= 1e-11


@pytest.mark.parametrize("sites,nmax", [(6, 4), (8, 3), (10, 4)])
def test_parity_parts_of_the_ccr_gap(sites, nmax, monkeypatch):
    """[Phi, Phi'] maps even sectors to even ones and odd to odd, so the CCR
    gap's norm is the larger of its parity parts' norms. A wrong Omega keeps
    the gap far from zero."""
    field = FockField(sites, 1.0, nmax)
    rng = np.random.default_rng(sites + 3)
    z, zp = rand_phase(rng, sites), rand_phase(rng, sites)
    phi, phi_p = field.field_op(z), field.field_op(zp)
    full = phi.commutator_on(phi_p, range(nmax))
    sl = field.sector_slices

    def states(sectors):
        return np.concatenate([np.arange(sl[n].start, sl[n].stop) for n in sectors])

    for parity in (0, 1):
        sectors = range(parity, nmax, 2)
        part = phi.commutator_on(phi_p, sectors)
        idx = states(sectors)
        assert np.array_equal(part, full[np.ix_(idx, idx)])
        other = np.setdiff1d(np.arange(len(full)), idx)
        assert not full[np.ix_(idx, other)].any()
    backwards = states(range(nmax - 1, -1, -1))
    assert np.array_equal(phi.commutator_on(phi_p, range(nmax - 1, -1, -1)),
                          full[np.ix_(backwards, backwards)])
    wrong = field.symplectic(z, zp) + 0.37
    monkeypatch.setattr(FockField, "symplectic", lambda self, a, b: wrong)
    dense = np.linalg.norm(full - 1j * field.hbar * wrong * np.eye(len(full)), 2)
    gap = _ccr_gap(field, z, zp)
    assert dense > 0.3
    assert abs(gap - dense) <= 1e-13 * dense


def _failed_ids(suite, sites=10, nmax=4):
    report, _ = fock_report(suite, sites=sites, nmax=nmax)
    return {e.id for e in report.entries if not e.passed}


@pytest.mark.parametrize("where", [0, 0.5, -1])
def test_a_wrong_ladder_value_fails_spectrum_and_ladder_shift(where, monkeypatch):
    """sqrt(n) off by one part in a million at one ladder entry (first,
    middle or last, the last in the top sector) fails both checks."""
    init = FockField.__init__

    def mutated(self, *args, **kwargs):
        init(self, *args, **kwargs)
        vals = self._ladder_sqrt_n
        vals[int(where * (len(vals) - 1))] *= 1 + 1e-6

    monkeypatch.setattr(FockField, "__init__", mutated)
    assert "integer_spectrum" in _failed_ids("spectrum")
    assert "ladder_shift" in _failed_ids("duality")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_perturbed_annihilator_block_fails_ladder_shift(n, monkeypatch):
    """On 6 sites: the perturbed block is dense, and every product with it
    is a sparse join, which at 10 sites pairs 34.6 M entries for n = 4
    (1.9 GB); at 6 sites the largest pairs 0.4 M."""
    annihilator = FockField.annihilator
    rng = np.random.default_rng(n)

    def mutated(self, psi):
        # every entry of the (n-1, n) block moves, its structural zeros too
        a = annihilator(self, psi)
        shape = tuple(self.sector_dims[[n - 1, n]])
        noise = 1e-6 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        a += oracles.fock_from_dense(self, {(n - 1, n): noise})
        assert a.blocks[(n - 1, n)].vals.size == noise.size
        return a

    monkeypatch.setattr(FockField, "annihilator", mutated)
    assert "ladder_shift" in _failed_ids("duality", sites=6)


# -- what the report suites may allocate ------------------------------------------


@pytest.mark.parametrize("suite", ["duality", "spectrum"])
def test_fock_suite_peak_memory_below_one_dense_matrix(suite):
    """At the benchmark size (10 sites, nmax 4, dim 1001) the duality suite
    never holds as much as one dense complex block on the top sector
    (715 x 715), and the spectrum suite not as much as one dense top block of
    a(psi) (220 x 715). Traced peaks: duality 14.0 MB and spectrum 6.3 MB with
    dense blocks, 6.3 MB and 1.3 MB with blocks held as their entries."""
    dims = FockField(10, 1.0, 4).sector_dims
    bound = dims[4] ** 2 if suite == "duality" else dims[3] * dims[4]
    tracemalloc.start()
    try:
        report, _ = fock_report(suite, sites=10, nmax=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed()
    assert peak < bound * 16, f"{suite}: peak {peak} B"


def test_fock_suites_solve_only_below_the_top_sector(monkeypatch):
    """At 10 sites and nmax 4 the spectrum suite calls an eigensolver only on
    sides <= d_3 = 220, and the duality suite takes the 2-norm only of the
    CCR gap's parity parts (56 and 230 states), never of the whole 286."""
    shapes = []

    def recording(name):
        real = getattr(np.linalg, name)

        def record(x, *args, **kwargs):
            if np.ndim(x) == 2:
                shapes.append((name, np.shape(x)))
            return real(x, *args, **kwargs)
        return record

    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    field = FockField(10, 1.0, 4)
    dims = field.sector_dims
    assert fock_report("spectrum", sites=10, nmax=4)[0].all_passed()
    solved = {shape for name, shape in shapes if name != "norm"}
    assert solved and max(max(s) for s in solved) == dims[3] == 220
    shapes.clear()
    assert fock_report("duality", sites=10, nmax=4)[0].all_passed()
    parts = {dims[0] + dims[2], dims[1] + dims[3]}
    assert parts == {56, 230}
    assert {shape for _, shape in shapes} == {(k, k) for k in parts}

