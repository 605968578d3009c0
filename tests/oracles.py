"""Dense and reference forms that tests compare qpskit's operators against.

The package keeps only what its commands run: Fock operators held as
sparse blocks with an in-place algebra, and realized grid maps that only
apply. The assembled matrices, the out-of-place Fock forms and the
power-iteration norm live here, built from that public algebra.
"""

import numpy as np

from qpskit.fock import FockOperator, _Block


# -- Fock operators ------------------------------------------------------------------


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
