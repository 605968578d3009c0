"""Finite-dimensional spin matrix backends.

Two conventions live here:

* ``spin_matrices_exact``: (2s+1)-dimensional matrices with entries in the
  exact coefficient field. These use the ladder normalization (unit
  superdiagonal raising operator, full rational weights on the lowering
  operator), a diagonal rescaling of the Hermitian convention that keeps all
  entries Gaussian-rational. S3 is the usual diag(hbar*s, ..., -hbar*s).
* ``spin_matrices_numeric``: the Hermitian convention with sqrt weights, for
  the momentum-grid realization.

Both satisfy [S_i, S_j] = i hbar eps_ijk S_k and S^2 = hbar^2 s(s+1).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .coeffs import AlgebraContext, DEFAULT_CONTEXT
from .expr import OperatorExpr

SUPPORTED_SPINS = (Fraction(0), Fraction(1, 2), Fraction(1),
                   Fraction(3, 2), Fraction(2))


class SpinConfigError(ValueError):
    """Unsupported spin value."""


def check_spin(s) -> Fraction:
    s = Fraction(s)
    if s not in SUPPORTED_SPINS:
        raise SpinConfigError(f"unsupported spin {s}; expected one of "
                              f"{[str(v) for v in SUPPORTED_SPINS]}")
    return s


def _weights(s: Fraction):
    """c_m = (s - m)(s + m + 1) for m = s-1, s-2, ..., -s (exact integers)."""
    dim = int(2 * s + 1)
    ms = [s - k for k in range(dim)]
    return ms, [(s - m) * (s + m + 1) for m in ms[1:]]


def spin_matrices_exact(s, ctx: AlgebraContext = DEFAULT_CONTEXT):
    """(S1, S2, S3) as nested lists of ScalarCoeff, basis m = s..-s."""
    s = check_spin(s)
    key = ("exact", s)
    cached = ctx.spin_matrix_cache.get(key)
    if cached is not None:
        return cached
    ms, cs = _weights(s)
    dim = len(ms)
    hbar = ctx.gen("hbar")
    iunit = ctx.imag_unit()
    zero = ctx.zero_coeff()
    s1 = [[zero] * dim for _ in range(dim)]
    s2 = [[zero] * dim for _ in range(dim)]
    s3 = [[zero] * dim for _ in range(dim)]
    for r, m in enumerate(ms):
        s3[r][r] = hbar * ctx.scalar(m)
    for r in range(dim - 1):
        # raising: row r (weight m+1) from column r+1 (weight m), entry hbar
        up = hbar
        down = hbar * ctx.scalar(cs[r])
        s1[r][r + 1] = s1[r][r + 1] + up * Fraction(1, 2)
        s1[r + 1][r] = s1[r + 1][r] + down * Fraction(1, 2)
        s2[r][r + 1] = s2[r][r + 1] - iunit * up * Fraction(1, 2)
        s2[r + 1][r] = s2[r + 1][r] + iunit * down * Fraction(1, 2)
    out = (s1, s2, s3)
    ctx.spin_matrix_cache[key] = out
    return out


def spin_matrices_numeric(s, hbar: float = 1.0):
    """Hermitian (S1, S2, S3) as complex arrays, basis m = s..-s."""
    s = check_spin(s)
    dim = int(2 * s + 1)
    ms = np.array([float(s - k) for k in range(dim)])
    splus = np.zeros((dim, dim), dtype=complex)
    for r in range(dim - 1):
        m = ms[r + 1]
        splus[r, r + 1] = np.sqrt(float(s) * (float(s) + 1.0) - m * (m + 1.0))
    sminus = splus.conj().T
    s1 = hbar * (splus + sminus) / 2.0
    s2 = hbar * (splus - sminus) / 2.0j
    s3 = hbar * np.diag(ms)
    return s1, s2, s3


def _matmul_exact(a, b, ctx):
    n = len(a)
    zero = ctx.zero_coeff()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if not a[i][k]:
                continue
            for j in range(n):
                if b[k][j]:
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _smono_matrix(smono, s, ctx):
    """Matrix of S1^a S2^b S3^c in the exact backend (cached)."""
    key = ("mono", s, smono)
    cached = ctx.spin_matrix_cache.get(key)
    if cached is not None:
        return cached
    mats = spin_matrices_exact(s, ctx)
    dim = len(mats[0])
    out = [[ctx.scalar(1) if i == j else ctx.zero_coeff() for j in range(dim)]
           for i in range(dim)]
    for idx, exp in enumerate(smono):
        for _ in range(exp):
            out = _matmul_exact(out, mats[idx], ctx)
    ctx.spin_matrix_cache[key] = out
    return out


def eval_spin_matrices(e: OperatorExpr, s):
    """Substitute fixed-s spin matrices for S1, S2, S3.

    Returns a (2s+1) x (2s+1) nested list of S-free OperatorExpr. The map is
    an algebra homomorphism: eval(nf(e)) == eval(e) entrywise, and nf(e) == 0
    implies the zero matrix.
    """
    s = check_spin(s)
    ctx = e.ctx
    dim = int(2 * s + 1)
    out = [[OperatorExpr.zero(ctx) for _ in range(dim)] for _ in range(dim)]
    for mono, c in e.terms.items():
        qlam = mono[:3] + (0, 0, 0) + (mono[6],)
        smono = mono[3:6]
        base = OperatorExpr(ctx, {qlam: c})
        if smono == (0, 0, 0):
            for i in range(dim):
                out[i][i] = out[i][i] + base
            continue
        mat = _smono_matrix(smono, s, ctx)
        for i in range(dim):
            for j in range(dim):
                if mat[i][j]:
                    out[i][j] = out[i][j] + base * OperatorExpr.from_scalar(mat[i][j], ctx)
    return out


def matrix_is_zero(mat) -> bool:
    return all(entry.is_zero() for row in mat for entry in row)
