"""Momentum-grid realization of the operator algebra.

States live in the momentum representation on a uniform grid in
[-pmax, pmax)^d with a half-cell offset (no p = 0 node, so eliminated
denominators stay finite), with a spin index and a frequency-sector index.
The public layout, taken and returned by every map, is

    state shape = (*batch, *spatial, 2s+1, 2)

P_i acts by multiplication, Q_i = i*hbar d/dp_i spectrally through the
discrete Fourier transform (kernel exp(+i p x / hbar)/sqrt(2 pi hbar),
momentum -> position), S_i by Hermitian spin matrices, Lam by the sector
sign. Functions of P (omega, 1/(omega+m), ...) are exactly diagonal; the
canonical pair relation [Q, P] = i*hbar holds on band-limited states and
converges spectrally as the grid grows at fixed physical box.

``realize`` compiles an expression once into a table with one entry per
Q-monomial. S and Lam act on the spin and sector indices and commute with
Q, so the terms of a Q-monomial act on chi = Q^alpha psi as a matrix over
its (spin, sector) blocks, and the table folds the spin-matrix entries,
Lam's sector sign and the coefficient functions of P into that matrix:
block (i, sector) of the result is the sum over j of C_ij chi[j, sector].
Its maps run the table in a spin-first inner layout

    inner shape = (2s+1, 2, *batch, *spatial)      (C-contiguous)

so each C, a plain spatial array or a scalar, multiplies contiguous blocks.
Results are returned as a view in the public layout over the spin-first
memory. A Q-monomial acts only along the axes it uses; along axis a,

    Q_a^k phi = fft_a(xt_a^k * ifft_a(phi)),    xt = ifftshift(x),

because the other factors of ``to_momentum(x^k * to_position(phi))``
cancel: |phase_b| = 1, the two scales multiply to dp * n * dx / (2 pi hbar)
= 1, and phase_a = exp(i j dp x0 / hbar) is exactly (-1)^j, which on each
side of an FFT is a half-length roll: it takes x to xt, x in FFT order.
Every transform phase is built from its exactly reduced argument, so no
phase error grows with n. On an axis of at most ``_DENSE_Q_MAX`` points
this linear map is applied as its dense matrix ``fft(xt^k * ifft(I))``, one
matmul per axis, which is faster there than the FFT pair; longer axes take
the pair. A multi-axis monomial applies this one axis at a time.

Coefficients are evaluated once per grid and shared: equal coefficients
share one read-only array while any map holds it, P_i and omega are the
grid's own arrays, and a map that multiplies by -c reads c's array.

Buffer ownership. A ``GridRep`` keeps a free list of flat complex buffers,
keyed by size (``take_buffer``, ``recycle``). A realized map draws its
output and its scratch from it: the transformed state of a Q-monomial, and
one (batch, spatial) block through which every term after the first of an
output block is added. The scratch goes back before ``apply`` returns. An
input whose memory is spin-first is read in place; numpy copies any other
into a fresh spin-first array. A map never writes to its input; the array
it returns belongs to the caller, and the free list never holds an array
that anyone can still read. A caller that keeps its results, or lets the
garbage collector have them, does nothing; one that knows nothing reads a
result any more may ``recycle`` it. An output is never zero-filled: the
first term of each block is written into it and the others are added, and
only a block that no term writes is zeroed.

A chain evaluator (``numcheck``) works through a ``sample_batch``: the
sample states in the public layout over spin-first memory, which every map
reads in place. Values travel as ``(array, owned)`` pairs; the states are
never owned. The owner of an array may write to it and gives it back with
``release`` once it has read it; nothing else ever does. ``combine`` writes
a sum or a scaling over its first owned operand, else into a buffer of the
grid's, spin-first as numpy lays out a fresh result, so a pass allocates a
few state-sized buffers, not some for every term. A residual norm is one
dot product per (spin, sector) block and state over that memory
(``norms``). Each value is computed by the same per-element arithmetic, in
the same memory layout, as with freshly allocated arrays, so results are
bit-identical to theirs.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .expr import OperatorExpr
from .spin import check_spin


# Widest axis on which Q^k is applied as a dense n x n matrix instead of an
# ifft/x^k/fft pair. Timed with one BLAS thread on one state of 2 spins x
# 2 sectors on n^3 points: at n = 32 the matmul takes 0.5-0.8 ms against
# 1.1-1.5 ms for the pair on every axis; at n = 64, 9.4 against 10.1 ms on
# the last axis and 9.2-9.8 against 12.3-19.3 ms on the others. The matrix
# grows as n^2 (268 MB at 4096 points), so long axes keep the FFT.
_DENSE_Q_MAX = 64


class GridConfigError(ValueError):
    """Bad grid parameters or operator/grid mismatch."""


class UnsupportedSymbolError(GridConfigError):
    """Expression references symbols the grid cannot realize."""


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


class GridRep:
    """Finite momentum-grid representation (m, s) at desk scale."""

    def __init__(self, d=1, npts=64, pmax=6.0, m=1.0, s=0, hbar=1.0, tval=0.0):
        if d not in (1, 3):
            raise GridConfigError("d must be 1 or 3")
        if npts < 4 or npts % 2:
            raise GridConfigError("npts must be an even integer >= 4")
        if not all(0 < v < math.inf for v in (pmax, m, hbar)):
            raise GridConfigError("pmax, m and hbar must be positive and finite")
        if not math.isfinite(tval):
            raise GridConfigError(f"t must be finite, not {tval}")
        self.d = d
        self.npts = int(npts)
        self.pmax = float(pmax)
        self.m = float(m)
        self.s = check_spin(s)
        self.nspin = int(2 * self.s + 1)
        self.hbar = float(hbar)
        self.tval = float(tval)

        n = self.npts
        self.dp = 2.0 * self.pmax / n
        self.p_axis = -self.pmax + (np.arange(n) + 0.5) * self.dp
        self.dx = 2.0 * np.pi * self.hbar / (n * self.dp)
        self.x_axis = (np.arange(n) - n // 2) * self.dx
        self.boxlen = n * self.dx

        # per-axis transform phases of p_j x_k = p0 x0 + j dp x0 + k p0 dx + j k dp dx,
        # over hbar exactly pi (n - 1) / 2, -pi j and pi k / n - pi k (mod 2 pi)
        j = np.arange(n)
        self._phase_a = (1 - 2 * (j % 2)).astype(complex)
        phase_b = self._phase_a * np.exp(1j * np.pi * j / n)
        phase0 = (1, 1j, -1, -1j)[(n - 1) % 4]
        self._x_fft = np.fft.ifftshift(self.x_axis)   # x in FFT order, for Q
        fwd_scale = self.dp * n / np.sqrt(2.0 * np.pi * self.hbar) * phase0
        bwd_scale = self.dx / np.sqrt(2.0 * np.pi * self.hbar) * np.conj(phase0)
        # one factor on each side of a per-axis FFT, scales folded into the
        # factor applied after it
        self._fwd_out = phase_b * fwd_scale
        self._bwd_in = np.conj(phase_b)
        self._bwd_out = np.conj(self._phase_a) * bwd_scale

        if d == 1:
            self.pmesh = (self.p_axis, 0.0, 0.0)
            psq = self.p_axis**2
        else:
            g = np.meshgrid(self.p_axis, self.p_axis, self.p_axis, indexing="ij")
            self.pmesh = (g[0], g[1], g[2])
            psq = g[0]**2 + g[1]**2 + g[2]**2
        self.omega = np.sqrt(psq + self.m**2)
        self.spin_mats = spin_matrices_numeric(self.s, self.hbar)
        self._free = {}   # size -> flat buffers that nothing reads any more
        self._q_mats = {}   # power k -> dense Q^k along one axis
        # coefficient -> its read-only value while a map holds it; P_i and
        # omega are the grid's own arrays
        self._coeffs = weakref.WeakValueDictionary()
        self._seeded = set()   # contexts whose P_i and omega are in _coeffs
        for arr in (self.p_axis, *self.pmesh, self.omega):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    # -- state-sized buffers ----------------------------------------------------

    def take_buffer(self, shape):
        """A C-contiguous complex array of ``shape`` with unspecified
        contents, from the free list when it holds one; the caller owns it.

        The free list is keyed by size, so the spin-first and the public
        C-ordered layouts of one batch share their buffers."""
        size = math.prod(shape)
        free = self._free.get(size)
        return (free.pop() if free else _new_buffer(size)).reshape(shape)

    def recycle(self, arr):
        """Give back an array that ``take_buffer`` or a realized map's
        ``apply`` handed out (or a view of one), once nothing reads it."""
        buf = arr if arr.base is None else arr.base
        free = self._free.setdefault(buf.size, [])
        if any(b is buf for b in free):
            raise GridConfigError("buffer recycled twice")
        free.append(buf)

    # -- state helpers --------------------------------------------------------

    @property
    def state_shape(self):
        return (self.npts,) * self.d + (self.nspin, 2)

    def _spatial_axes(self, arr):
        if arr.ndim < self.d + 2:
            raise GridConfigError("state array has too few axes for this grid")
        return tuple(range(arr.ndim - 2 - self.d, arr.ndim - 2))

    def norm(self, state):
        return float(np.sqrt(np.sum(np.abs(state) ** 2) * self.dp**self.d))

    def normalize(self, state):
        n = self.norm(state)
        if n == 0:
            raise GridConfigError("cannot normalize the zero state")
        return state / n

    # -- momentum <-> position ------------------------------------------------

    def _axis_mul(self, arr, vec, axis):
        shape = [1] * arr.ndim
        shape[axis] = len(vec)
        return arr * vec.reshape(shape)

    def to_position(self, state):
        out = np.asarray(state, dtype=complex)
        for ax in self._spatial_axes(out):
            out = self._axis_mul(out, self._phase_a, ax)
            out = np.fft.ifft(out, axis=ax)
            out = self._axis_mul(out, self._fwd_out, ax)
        return out

    def to_momentum(self, state):
        out = np.asarray(state, dtype=complex)
        for ax in self._spatial_axes(out):
            out = self._axis_mul(out, self._bwd_in, ax)
            out = np.fft.fft(out, axis=ax)
            out = self._axis_mul(out, self._bwd_out, ax)
        return out

    def _q_matrix(self, k):
        """Q^k along one axis as the dense matrix ``fft(xt^k * ifft(I))``:
        the linear map of the FFT pair, which is Hermitian."""
        mat = self._q_mats.get(k)
        if mat is None:
            eye = np.eye(self.npts, dtype=complex)
            mat = np.fft.fft((self._x_fft ** k)[:, None] * np.fft.ifft(eye, axis=0),
                             axis=0)
            self._q_mats[k] = mat
        return mat

    # -- coefficient evaluation -------------------------------------------------

    def eval_coeff(self, coeff):
        """The value of ``coeff`` on the grid: a scalar, or a read-only
        spatial array that equal coefficients share while anything holds
        it. P1, P2, P3 and omega are the grid's own arrays."""
        for bad in ("Mmass", "E0"):
            if coeff.uses_gen(bad):
                raise UnsupportedSymbolError(
                    f"symbol {bad} has no grid realization")
        self._seed(coeff.ctx)
        value = self._coeffs.get(coeff)
        if value is None:
            values = [self.pmesh[0], self.pmesh[1], self.pmesh[2],
                      self.m, self.tval, self.hbar, 0.0, 0.0]
            value = coeff.evaluate(values, self.omega)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
                self._coeffs[coeff] = value
        return value

    def _signed_coeff(self, coeff):
        """``(value, sign)`` with sign * value the value of ``coeff``: the
        shared value of -coeff when the grid holds one, so that c and -c
        share an array."""
        self._seed(coeff.ctx)
        if coeff not in self._coeffs:
            negated = self._coeffs.get(-coeff)
            if negated is not None:
                return negated, -1
        return self.eval_coeff(coeff), 1

    def _seed(self, ctx):
        if ctx not in self._seeded:
            self._seeded.add(ctx)
            for name, arr in zip(("P1", "P2", "P3", "omega"), (*self.pmesh, self.omega)):
                if isinstance(arr, np.ndarray):
                    self._coeffs[ctx.gen(name)] = arr


class LinearMap:
    """Linear operator on grid states: ``apply`` (or a call) maps a state to
    a new array."""

    def __init__(self, apply_fn):
        self._apply = apply_fn

    def apply(self, state):
        return self._apply(state)

    def __call__(self, state):
        return self._apply(state)


# -- realization ------------------------------------------------------------------


def _spin_matrix(grid: GridRep, smono):
    """S1^n1 S2^n2 S3^n3 as a (2s+1)-square matrix."""
    smat = np.eye(grid.nspin, dtype=complex)
    for idx, expnt in enumerate(smono):
        for _ in range(expnt):
            smat = smat @ grid.spin_mats[idx]
    return smat


def _compile_terms(e: OperatorExpr, grid: GridRep):
    """Apply table ``[(qmono, [(i, sector, [(j, C, sign), ...]), ...]), ...]``:
    per Q-monomial, the rows of the output blocks that it writes.

    S and Lam commute with Q, so the terms of one Q-monomial act on the
    transformed state chi = Q^alpha psi as a matrix over its (spin, sector)
    blocks: block (i, sector) of the result is the sum over j of
    C_ij chi[j, sector], with C_ij = sum of M_ij (+-1)^lam c(P) over the
    terms' spin matrices M, sector signs and coefficients. Each C is a
    spatial array or a scalar, so it broadcasts over the trailing spatial
    axes of the spin-first inner layout; C and -C share one array, and a C
    that is one coefficient times 1 is that coefficient's shared array.
    """
    qgroups = {}   # qmono -> (i, sector, j) -> id(c) -> (c, weight of c in C)
    for mono, coeff in e.terms.items():
        qmono, smono, lam = mono[:3], mono[3:6], mono[6]
        if grid.d == 1 and (qmono[1] or qmono[2]):
            raise UnsupportedSymbolError(
                "Q2/Q3 cannot be realized on a 1-dimensional grid")
        carr, sign = grid._signed_coeff(coeff)
        recipes = qgroups.setdefault(qmono, {})
        for (i, j), w in np.ndenumerate(_spin_matrix(grid, smono)):
            w = complex(w) if w.imag else float(w.real)   # real C stays real
            if w:
                for sector, lam_sign in ((0, 1), (1, (-1) ** lam)):
                    recipe = recipes.setdefault((i, sector, j), {})
                    total = recipe.get(id(carr), (carr, 0))[1] + sign * lam_sign * w
                    recipe[id(carr)] = (carr, total)
    folded = {}   # recipe -> C; -C is read through the negated recipe

    def fold(recipe):
        terms = [(carr, w) for carr, w in recipe.values() if w]
        key = tuple((id(carr), w) for carr, w in terms)
        for sign in (1, -1):
            signed = tuple((k, sign * w) for k, w in key)
            if signed in folded:
                return folded[signed], sign
        if len(terms) == 1 and terms[0][1] in (1, -1):   # c itself, shared
            ((carr, w),) = terms
            folded[((id(carr), 1),)] = carr
            return carr, int(w)
        folded[key] = value = sum(w * carr for carr, w in terms)
        return value, 1

    table = []
    for qmono, recipes in qgroups.items():
        rows = {}
        for (i, sector, j), recipe in recipes.items():
            if any(w for _, w in recipe.values()):
                rows.setdefault((i, sector), []).append((j, *fold(recipe)))
        table.append((qmono, [(i, sector, row) for (i, sector), row in rows.items()]))
    return table


def _new_buffer(size):
    """The free list's one allocation: a flat complex buffer."""
    return np.empty(size, dtype=complex)


def _to_inner(grid: GridRep, state):
    """Public ``(*batch, *spatial, 2s+1, 2)`` -> C-contiguous
    ``(2s+1, 2, *batch, *spatial)``: a view of ``state`` when its memory is
    already spin-first, a fresh copy otherwise."""
    state = np.asarray(state)
    if state.shape[state.ndim - grid.d - 2:] != grid.state_shape:
        raise GridConfigError(
            f"state shape {state.shape} does not end in {grid.state_shape}")
    return np.ascontiguousarray(np.moveaxis(state, (-2, -1), (0, 1)),
                                dtype=complex)


def _to_public(inner):
    """Inverse of ``_to_inner`` as a view; the memory stays spin-first."""
    return np.moveaxis(inner, (0, 1), (-2, -1))


def _q_apply(grid: GridRep, qmono, phi):
    """Q1^k1 Q2^k2 Q3^k3 phi, along only the axes it uses: one matmul with
    the dense Q^k per axis on a short axis, an ifft/x^k/fft pair on a long
    one. phi itself for the empty monomial, else a buffer of the grid's."""
    n = grid.npts
    out = phi
    for a, k in enumerate(qmono[:grid.d]):
        if not k:
            continue
        axis = a - grid.d
        if n <= _DENSE_Q_MAX:
            dst = grid.take_buffer(phi.shape)
            mat = grid._q_matrix(k)
            if axis == -1:
                np.matmul(out.reshape(-1, n), mat.T, out=dst.reshape(-1, n))
            else:
                view = (-1, n, n ** (-axis - 1))
                np.matmul(mat, out.reshape(view), out=dst.reshape(view))
            if out is not phi:
                grid.recycle(out)
            out = dst
        else:
            dst = grid.take_buffer(phi.shape) if out is phi else out
            out = np.fft.ifft(out, axis=axis, out=dst)
            out *= (grid._x_fft ** k).reshape((n,) + (1,) * (-axis - 1))
            np.fft.fft(out, axis=axis, out=out)
    return out


def _write_block(dst, carr, src, sign, tmp, first):
    """dst = sign * carr * src when ``first``, else dst += sign * carr * src
    through the block scratch ``tmp``."""
    if first:
        if sign < 0 and np.ndim(carr) == 0:
            carr = -carr
        np.multiply(carr, src, out=dst)
        if sign < 0 and np.ndim(carr):
            dst *= -1.0   # exact up to the sign of a zero; np.negative is slower
        return
    np.multiply(carr, src, out=tmp)
    if sign < 0:
        dst -= tmp
    else:
        dst += tmp


def realize(e: OperatorExpr, grid: GridRep) -> LinearMap:
    """Concrete linear operator for a normal-form expression.

    Linear in e; realize(nf(e)) and realize(e) agree to roundoff on
    band-limited states. The expression is compiled once into a table
    (``_compile_terms``) that ``apply`` runs in the spin-first inner layout,
    in buffers of the grid's; see the module docstring. ``apply`` never
    writes to its input, and returns an array that belongs to its caller.
    """
    table = _compile_terms(e, grid)

    def apply_fn(state):
        inner = _to_inner(grid, state)
        out = grid.take_buffer(inner.shape)
        tmp = grid.take_buffer(inner.shape[2:])
        written = set()
        for qmono, rows in table:
            chi = _q_apply(grid, qmono, inner)
            for i, sector, row in rows:
                for j, carr, sign in row:
                    _write_block(out[i, sector], carr, chi[j, sector], sign, tmp,
                                 (i, sector) not in written)
                    written.add((i, sector))
            if chi is not inner:
                grid.recycle(chi)
        grid.recycle(tmp)
        for i in range(out.shape[0]):
            for sector in (0, 1):
                if (i, sector) not in written:
                    out[i, sector] = 0.0
        return _to_public(out)

    return LinearMap(apply_fn)


# -- sample states ----------------------------------------------------------------


def gaussian_states(grid: GridRep, nstates=8, seed=0, sector=None):
    """Seeded band-limited test family: centered complex Gaussians with
    randomized widths, position offsets and spin/sector amplitudes.

    The width is centered on the balance point sigma_p = sqrt(2/(pi N)) pmax
    where momentum-edge and position-wrap tails are equally small (both
    exp(-pi N / 4)); residuals of true identities then converge spectrally
    as the grid is refined. ``sector`` restricts amplitudes to one frequency
    sector (+1 or -1).
    """
    if sector not in (None, 1, -1):
        raise GridConfigError(f"sector must be None, 1 or -1, not {sector!r}")
    rng = np.random.default_rng(seed)
    states = []
    halfbox = grid.boxlen / 2.0
    balanced = np.sqrt(2.0 / (np.pi * grid.npts)) * grid.pmax
    for _ in range(nstates):
        sigmas = rng.uniform(0.95, 1.05, size=grid.d) * balanced
        shifts = rng.uniform(-0.03, 0.03, size=grid.d) * halfbox
        envelope = None
        for a in range(grid.d):
            p = grid.p_axis
            g1 = np.exp(-p**2 / (2.0 * sigmas[a]**2) - 1j * p * shifts[a] / grid.hbar)
            if envelope is None:
                envelope = g1
            else:
                envelope = np.multiply.outer(envelope, g1)
        amps = rng.normal(size=(grid.nspin, 2)) + 1j * rng.normal(size=(grid.nspin, 2))
        if sector is not None:
            col = 0 if sector > 0 else 1
            mask = np.zeros((1, 2))
            mask[0, col] = 1.0
            amps = amps * mask
        state = envelope[..., None, None] * amps
        states.append(grid.normalize(state))
    return states


def sample_batch(grid: GridRep, nstates, seed, sector) -> _SampleBatch:
    """The ``gaussian_states`` of one evaluation as a ``_SampleBatch``."""
    return _SampleBatch(grid, nstates, seed, sector)


class _SampleBatch:
    """The sample states of one evaluation on a leading axis (``states``,
    never owned), and the array work that a chain evaluator does on them:
    see "Buffer ownership" in the module docstring. ``residual`` is the
    worst per-state norm of an array relative to that of its state."""

    def __init__(self, grid: GridRep, nstates, seed, sector):
        shape = grid.state_shape
        self.grid = grid
        self.hbar = grid.hbar
        self._inner_shape = shape[-2:] + (nstates,) + shape[:-2]
        self.states = np.stack(
            gaussian_states(grid, nstates=nstates, seed=seed, sector=sector),
            out=_to_public(np.empty(self._inner_shape, dtype=complex)))
        self.in_norms = self.norms(self.states)

    def realize(self, e: OperatorExpr) -> LinearMap:
        return realize(e, self.grid)

    def apply(self, op: LinearMap, state):
        """``op`` applied to ``state``: an owned array."""
        return op.apply(state)

    @staticmethod
    def cheap_to_reapply(e: OperatorExpr) -> bool:
        """Whether ``realize(e).apply`` runs no Q transform (no matmul, no
        FFT), only pointwise block products: such a map costs less to apply
        again than its batch-sized result costs to keep."""
        return not e.uses_q()

    def combine(self, ufunc, *operands):
        """``ufunc`` of ``(array or scalar, owned)`` operands, owned: written
        over the first owned operand, else into a new buffer of the grid's;
        the other owned operands are released."""
        arrays = [(arr, owned) for arr, owned in operands if np.ndim(arr)]
        out = next((arr for arr, owned in arrays if owned), None)
        if out is None:
            out = _to_public(self.grid.take_buffer(self._inner_shape))
        ufunc(*(arr for arr, _ in operands), out=out)
        for arr, owned in arrays:
            if owned and arr is not out:
                self.release(arr)
        return out, True

    def release(self, arr):
        self.grid.recycle(arr)

    def norms(self, arr):
        """Per-state norms: for each state, the squared moduli of its (spin,
        sector) blocks summed by one dot product of each block's real view,
        block after block, over spin-first memory. ``np.einsum`` forms a dot
        product the same way for any number of BLAS threads, where
        ``np.vdot`` splits it between them."""
        nstates = len(arr)
        blocks = _to_inner(self.grid, arr).reshape(
            -1, nstates, math.prod(arr.shape[1:-2]))
        return np.sqrt([sum(np.einsum("i,i->", v, v) for v in
                            (block.view(float) for block in blocks[:, n]))
                        for n in range(nstates)])

    def residual(self, arr):
        return float(np.max(self.norms(arr) / self.in_norms))
