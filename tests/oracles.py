"""Dense and reference forms that tests compare qpskit's operators against.

The package keeps only what its commands run: Fock operators held as
sparse blocks with an in-place algebra, realized grid maps that only
apply, and one spin convention, the grid's Hermitian matrices. The
assembled matrices, the out-of-place Fock forms, the power-iteration norm,
the loop-built occupation basis and the exact fixed-spin matrix backend
live here, built from that public algebra.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np

from qpskit import DEFAULT_CONTEXT, OperatorExpr
from qpskit.fock import FockOperator, _Block
from qpskit.spin import check_spin


# -- Fock operators ------------------------------------------------------------------


def fock_ladder(nsites, nmax):
    """The occupation basis (by total number, then lexicographic), its index
    and the mode annihilators' nonzero entries, built by Python loops over
    occupation tuples: the reference for ``FockField``'s array build."""
    basis = []
    for total in range(nmax + 1):
        sector = []
        for combo in combinations_with_replacement(range(nsites), total):
            occ = [0] * nsites
            for mode in combo:
                occ[mode] += 1
            sector.append(tuple(occ))
        basis.extend(sorted(sector))
    index = {occ: i for i, occ in enumerate(basis)}
    totals = np.array([sum(occ) for occ in basis])
    offsets = np.searchsorted(totals, np.arange(nmax + 2))
    rows, cols, modes, counts = [], [], [], []
    for col, occ in enumerate(basis):
        for mode, n in enumerate(occ):
            if n:
                target = list(occ)
                target[mode] = n - 1
                rows.append(index[tuple(target)])
                cols.append(col)
                modes.append(mode)
                counts.append(n)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    runs = np.searchsorted(cols, offsets)
    sectors = [(n, slice(int(runs[n]), int(runs[n + 1])),
                rows[runs[n]:runs[n + 1]] - offsets[n - 1],
                cols[runs[n]:runs[n + 1]] - offsets[n]) for n in range(1, nmax + 1)]
    one_particle = np.array([index[tuple(int(j == k) for j in range(nsites))]
                             for k in range(nsites)], dtype=np.intp)
    return SimpleNamespace(
        basis=basis, index=index, totals=totals, sector_offsets=offsets,
        rows=rows, cols=cols, modes=np.array(modes, dtype=np.intp),
        sqrt_n=np.sqrt(np.array(counts, dtype=float)), sectors=sectors,
        one_particle_index=one_particle)


def fock_from_dense(field, blocks):
    """The FockOperator whose (m, n) block holds the nonzero entries of the
    dense (d_m, d_n) array ``blocks[(m, n)]``."""
    sparse = {}
    for key, arr in blocks.items():
        arr = np.asarray(arr, dtype=complex)
        rows, cols = np.nonzero(arr)
        sparse[key] = _Block(rows, cols, arr[rows, cols], arr.shape)
    return FockOperator(field, sparse)


def identity(field, c=1.0):
    """c times the identity, as one diagonal block per sector; every
    diagonal entry is kept, also when c is 0."""
    blocks = {}
    for n, d in enumerate(field.sector_dims):
        diag = np.arange(d)
        blocks[(n, n)] = _Block(diag, diag, np.full(d, c, dtype=complex), (d, d))
    return FockOperator(field, blocks)


def copied(op):
    """A new operator with ``op``'s blocks; in-place updates of either
    replace blocks and leave the other alone."""
    return FockOperator(op.field, dict(op.blocks))


def commutator(x, y):
    """[x, y] = x @ y - y @ x."""
    out = x @ y
    out -= y @ x
    return out


def restricted(op, max_total):
    """Dense matrix of ``op`` on the subspace with total number <= max_total."""
    k = op.field.block_dim(max_total)
    sl = op.field.sector_slices
    out = np.zeros((k, k), dtype=complex)
    for (m, n), blk in op.blocks.items():
        if m <= max_total and n <= max_total:
            out[sl[m].start + blk.rows, sl[n].start + blk.cols] = blk.vals
    return out


def dense(op):
    """Assembled dim x dim matrix of ``op``."""
    return restricted(op, op.field.nmax)


# -- grid maps ---------------------------------------------------------------------


def power_norm(gram, shape, seed=0, iterations=200, tol=1e-12):
    """sqrt of the largest eigenvalue of the positive semi-definite map
    ``gram`` (A^dag A for the operator A whose norm is wanted), by power
    iteration from a seeded complex Gaussian start of ``shape``."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v /= np.sqrt(np.sum(np.abs(v) ** 2))
    lam_prev = 0.0
    lam = 0.0
    for _ in range(iterations):
        w = gram(v)
        lam = float(np.real(np.vdot(v, w)))
        nw = np.sqrt(np.sum(np.abs(w) ** 2))
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-30):
            break
        lam_prev = lam
    return float(np.sqrt(max(lam, 0.0)))


# -- exact fixed-spin matrices -----------------------------------------------------
#
# (2s+1)-dimensional matrices with entries in the exact coefficient field, in
# the ladder normalization (unit superdiagonal raising operator, full rational
# weights on the lowering operator): a diagonal rescaling of the Hermitian
# convention that keeps every entry Gaussian-rational. S3 is the usual
# diag(hbar*s, ..., -hbar*s), and [S_i, S_j] = i hbar eps_ijk S_k and
# S^2 = hbar^2 s(s+1) hold exactly.

_SPIN_MATRICES = {}   # (ctx, "exact", s) and (ctx, "mono", s, smono) -> matrix


def _weights(s: Fraction):
    """c_m = (s - m)(s + m + 1) for m = s-1, s-2, ..., -s (exact integers)."""
    dim = int(2 * s + 1)
    ms = [s - k for k in range(dim)]
    return ms, [(s - m) * (s + m + 1) for m in ms[1:]]


def spin_matrices_exact(s, ctx=DEFAULT_CONTEXT):
    """(S1, S2, S3) as nested lists of ScalarCoeff, basis m = s..-s."""
    s = check_spin(s)
    key = (ctx, "exact", s)
    cached = _SPIN_MATRICES.get(key)
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
    _SPIN_MATRICES[key] = out
    return out


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
    key = (ctx, "mono", s, smono)
    cached = _SPIN_MATRICES.get(key)
    if cached is not None:
        return cached
    mats = spin_matrices_exact(s, ctx)
    dim = len(mats[0])
    out = [[ctx.scalar(1) if i == j else ctx.zero_coeff() for j in range(dim)]
           for i in range(dim)]
    for idx, exp in enumerate(smono):
        for _ in range(exp):
            out = _matmul_exact(out, mats[idx], ctx)
    _SPIN_MATRICES[key] = out
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
