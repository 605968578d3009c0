"""Truncated Fock space: structure maps, ladder algebra, field operators,
expectation curves, truncation stability."""

import numpy as np
import pytest

from qpskit import (FockConfigError, FockField, FockOperator, PhasePoint,
                    expectation_suite, fock_report, profile_fwhm)


@pytest.fixture(scope="module")
def field():
    return FockField(8, 1.0, 3)


def rand_phase(rng, n):
    return PhasePoint(rng.normal(size=n), rng.normal(size=n))


def rand_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_construction_guards():
    with pytest.raises(FockConfigError):
        FockField(3, 1.0, 3)
    with pytest.raises(FockConfigError):
        FockField(8, 1.0, 1)
    with pytest.raises(FockConfigError):
        FockField(8, -1.0, 3)


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
    a, adag = field.ladder(psi)
    assert np.abs(a.apply(field.vacuum())).max() == 0.0
    comm = a.commutator(field.creator(phi)) - np.vdot(psi, phi)
    assert comm.norm_on(field.nmax - 1) <= 1e-12
    assert a.commutator(field.annihilator(phi)).norm_on() <= 1e-13
    # antilinear in the argument
    assert np.allclose(field.annihilator(2j * psi).mat, -2j * a.mat)
    assert np.allclose(field.creator(2j * psi).mat, 2j * adag.mat)


def test_orthogonal_arguments_commute(field):
    e0 = np.real(np.fft.ifft(np.eye(8)[0]) * np.sqrt(8))
    e1 = np.fft.ifft(np.eye(8)[1]) * np.sqrt(8)
    comm = field.annihilator(e0).commutator(field.creator(e1))
    assert comm.norm_on(field.nmax - 1) <= 1e-12


def test_number_operator(field):
    rng = np.random.default_rng(7)
    psi = rand_state(rng, 8)
    n_op = field.number_op(psi)
    a = field.annihilator(psi)
    assert np.allclose(n_op.mat, (a.adjoint() @ a).mat)
    evals = np.linalg.eigvalsh(n_op.mat)
    assert np.abs(evals - np.round(evals)).max() <= 1e-10
    assert evals.min() >= -1e-10
    assert sorted(set(int(round(v)) for v in evals)) == [0, 1, 2, 3]
    shifted = (n_op + 1.0) @ a - a @ n_op
    assert np.abs(shifted.mat).max() <= 1e-12


def test_ladder_shifts_sectors_exactly(field):
    rng = np.random.default_rng(8)
    adag = field.creator(rand_state(rng, 8)).mat
    for i in range(field.dim):
        for j in range(field.dim):
            if abs(adag[i, j]) > 1e-14:
                assert field.totals[i] == field.totals[j] + 1


def test_field_ccr(field):
    rng = np.random.default_rng(9)
    z, zp = rand_phase(rng, 8), rand_phase(rng, 8)
    comm = field.field_op(z).commutator(field.field_op(zp)) \
        - 1j * field.hbar * field.symplectic(z, zp)
    assert comm.norm_on(field.nmax - 1) <= 1e-10


def test_interdefinability(field):
    rng = np.random.default_rng(10)
    z = rand_phase(rng, 8)
    a = field.annihilator(field.one_particle_map(z))
    rhs = (1j * field.field_op(z)
           - field.field_op(field.complex_structure(z))) * (1 / (2 * field.hbar))
    assert np.abs(a.mat - rhs.mat).max() <= 1e-12


def test_local_field_operators(field):
    phi = field.local_field(2)
    pi = field.local_momentum(2)
    assert np.abs(phi.mat - phi.adjoint().mat).max() <= 1e-13
    assert np.abs(pi.mat - pi.adjoint().mat).max() <= 1e-13
    # equal-site field/momentum CCR: [phi(x), pi(y)] = i hbar delta_xy
    for y in (2, 5):
        comm = phi.commutator(field.local_momentum(y))
        want = 1j * field.hbar * (1.0 if y == 2 else 0.0)
        block = comm.restricted(field.nmax - 1)
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
        want = field.creator(psi).apply(field.vacuum())
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
        (small.annihilator(psi).commutator(small.creator(phi)),
         big.annihilator(psi).commutator(big.creator(phi))),
        (small.field_op(z).commutator(small.field_op(zp)),
         big.field_op(z).commutator(big.field_op(zp))),
        (small.number_op(psi) @ small.annihilator(psi),
         big.number_op(psi) @ big.annihilator(psi)),
    ]
    cut = small.nmax - 2
    dim = small.sector_offsets[cut + 1]
    for op_small, op_big in pairs:
        blk_small = op_small.restricted(cut)
        blk_big = op_big.mat[:dim, :dim]
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
            a.restricted(bad)
        with pytest.raises(FockConfigError):
            a.norm_on(bad)
        with pytest.raises(FockConfigError):
            a.commutator_on(a, bad)
    assert a.restricted(0).shape == (1, 1)
    assert a.restricted(field.nmax).shape == (field.dim, field.dim)


def _dense_mode_annihilators(field):
    """Per-mode a_k as dense matrices, from the occupation basis directly."""
    mats = []
    for mode in range(field.nsites):
        mat = np.zeros((field.dim, field.dim))
        for col, occ in enumerate(field.basis):
            n = occ[mode]
            if n:
                target = list(occ)
                target[mode] = n - 1
                mat[field.index[tuple(target)], col] = np.sqrt(n)
        mats.append(mat)
    return mats


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
        assert np.array_equal(field.annihilator(psi).mat, want)
    z = rand_phase(rng, sites)
    a = field.annihilator(field.one_particle_map(z)).mat
    assert np.array_equal(field.field_op(z).mat, (a - a.conj().T) * (-1j * hbar))


@pytest.mark.parametrize("sites,nmax", [(6, 2), (8, 3), (6, 4)])
def test_ccr_block_matches_full_commutator(sites, nmax):
    field = FockField(sites, 1.0, nmax)
    rng = np.random.default_rng(14)
    phi = field.field_op(rand_phase(rng, sites))
    phi_p = field.field_op(rand_phase(rng, sites))
    shift = 1j * field.hbar * 0.37
    block = phi.commutator_on(phi_p, nmax - 1)
    block -= shift * np.eye(field.block_dim(nmax - 1))
    full = phi.commutator(phi_p) - shift
    assert np.abs(block - full.restricted(nmax - 1)).max() <= 1e-13
    assert abs(np.linalg.norm(block, 2) - full.norm_on(nmax - 1)) <= 1e-13


def test_expectation_squares_match_dense_square(field):
    rng = np.random.default_rng(15)
    psi = rand_state(rng, 8)
    curves = expectation_suite(psi, field)
    vac = field.vacuum()
    one = field.one_particle_state(psi)
    for x in range(8):
        phi = field.local_field(x)
        sq = phi @ phi
        assert abs(curves.vacuum_sq[x] - sq.expectation(vac).real) <= 1e-14
        assert abs(curves.one_particle_sq[x] - sq.expectation(one).real) <= 1e-14


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
