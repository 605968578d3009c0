"""The spin-value check, the grid's Hermitian spin matrices, and the exact
fixed-spin matrix oracle of tests/oracles.py."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import eval_spin_matrices, matrix_is_zero, spin_matrices_exact
from qpskit import parse_expr
from qpskit.grid import spin_matrices_numeric
from qpskit.spin import SpinConfigError, check_spin

P = parse_expr
SPINS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


def test_unsupported_spin_rejected():
    with pytest.raises(SpinConfigError):
        check_spin(Fraction(5, 2))
    with pytest.raises(SpinConfigError):
        check_spin(3)


def test_s3_at_half_is_standard():
    mat = eval_spin_matrices(P("S3"), Fraction(1, 2))
    assert mat[0][0] == P("hbar/2")
    assert mat[1][1] == P("-hbar/2")
    assert mat[0][1].is_zero() and mat[1][0].is_zero()


def test_casimir_value_every_spin():
    s_sq = P("S1^2 + S2^2 + S3^2")
    for s in SPINS:
        mat = eval_spin_matrices(s_sq, s)
        dim = int(2 * s + 1)
        val = P(f"({s.numerator}/{s.denominator})*(({s.numerator}/{s.denominator})+1)*hbar^2")
        for r in range(dim):
            for c in range(dim):
                if r == c:
                    assert mat[r][c] == val
                else:
                    assert mat[r][c].is_zero()


def test_su2_relations_all_spins():
    for s in SPINS:
        for txt in ("[S1,S2] - i*hbar*S3", "[S2,S3] - i*hbar*S1",
                    "[S3,S1] - i*hbar*S2"):
            assert matrix_is_zero(eval_spin_matrices(P(txt), s))


def test_homomorphism_on_products():
    a = P("S1*S2 + i*hbar*S3")
    b = P("S3^2 - S1")
    for s in (Fraction(1, 2), Fraction(1)):
        ma = eval_spin_matrices(a, s)
        mb = eval_spin_matrices(b, s)
        mab = eval_spin_matrices(a * b, s)
        dim = int(2 * s + 1)
        for r in range(dim):
            for c in range(dim):
                acc = None
                for k in range(dim):
                    piece = ma[r][k] * mb[k][c]
                    acc = piece if acc is None else acc + piece
                assert acc == mab[r][c]


def test_zero_detection_spin_threehalf():
    e = P("[S1,S2] - i*hbar*S3")
    assert e.is_zero()
    assert matrix_is_zero(eval_spin_matrices(e, Fraction(3, 2)))


def test_q_and_lambda_pass_through():
    mat = eval_spin_matrices(P("Q1*S3*Lam"), Fraction(1, 2))
    assert mat[0][0] == P("Q1*Lam*hbar/2")
    assert mat[1][1] == P("-Q1*Lam*hbar/2")


def test_numeric_matrices_hermitian_su2():
    for s in SPINS:
        s1, s2, s3 = spin_matrices_numeric(s, hbar=1.0)
        for mat in (s1, s2, s3):
            assert np.allclose(mat, mat.conj().T)
        assert np.allclose(s1 @ s2 - s2 @ s1, 1j * s3, atol=1e-13)
        dim = int(2 * s + 1)
        casimir = s1 @ s1 + s2 @ s2 + s3 @ s3
        assert np.allclose(casimir, float(s) * (float(s) + 1) * np.eye(dim), atol=1e-13)


def test_exact_and_numeric_similar():
    # ladder-normalized exact matrices are a diagonal rescaling of the
    # Hermitian ones: traces of words agree
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        n1, n2, n3 = spin_matrices_numeric(s, hbar=1.0)
        e1, e2, e3 = spin_matrices_exact(s)
        vals = [0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0]

        def tr(mat):
            return sum(complex(mat[k][k].evaluate(vals, 1.0)) for k in range(len(mat)))
        # tr(S_i S_j) is similarity-invariant
        prods = {}
        for name, em, nm in (("11", e1, n1), ("22", e2, n2), ("33", e3, n3)):
            exact = sum((em[r][k] * em[k][r]).evaluate(vals, 1.0)
                        for r in range(len(em)) for k in range(len(em)))
            numeric = np.trace(nm @ nm)
            assert complex(exact) == pytest.approx(complex(numeric), abs=1e-12)
