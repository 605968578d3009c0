"""Free scalar field on a 1D periodic lattice with a total-number-truncated
Fock space.

Classical phase space: pairs (f, g) of real lattice functions, symplectic
form Omega((f,g),(f',g')) = sum_x (f g' - f' g), spacing 1. The dispersion
is omega = sqrt(-laplacian + m^2) with the nearest-neighbor difference, so
omega_k = sqrt(4 sin^2(pi k / Ns) + m^2) on Fourier modes. The complex
structure J(f,g) = (-omega^-1 g, omega f) and 1-particle map

    K(f, g) = (omega^(1/2) f + i omega^(-1/2) g) / sqrt(2 hbar)

satisfy K(Jz) = i K(z), embedding phase space into the 1-particle space.

The Fock space keeps occupation vectors of the Ns Fourier modes with total
particle number <= nmax; identities that close below the cutoff hold
exactly (the "safe subspace"), so every check here is exact up to float
roundoff rather than a truncation approximation.

Every operator here moves the total particle number by a fixed amount:
a(psi) by -1, a^+(psi) by +1, Phi(z) by +-1 and N(psi) by 0. A
FockOperator is therefore held as blocks between total-number sectors,
blocks[(m, n)] mapping sector n to sector m, and a missing block is zero.
Each block holds only its entries: block-local row and column indices and
complex values, each position once. A ladder block has at most one entry
per occupied mode in each column, so at 10 sites and nmax = 4 (dim 1001,
sectors of 1, 10, 55, 220 and 715 states) all of a(psi) has 2 860 entries,
where its top 220 x 715 block alone has 157 300 places.

A product joins on the middle index, block pair by block pair (Gustavson,
ACM TOMS 4(3), 1978): the right block's entries are sorted by row once,
each left entry meets the run whose row is its column, and the products
that land on one position are summed, after a sort by row-major position,
or in place where the result is dense. A join's arrays grow with its pair
count; at 10 sites and nmax = 4 the largest, in the ladder-shift check,
pairs about 52 000 entries. In-place sums and differences concatenate
entries and sum them the same way; entries at the same positions, as the
ladder blocks of one field have, add value by value, the same float
operations as dense blocks. The adjoint swaps rows and columns and
conjugates; apply adds each entry's term into its row. Only the results
that callers read are dense: the CCR gap's parity parts and the Gram
matrices of the spectrum.

a(psi) = sum_k conj(<e_k, psi>) a_k. Each nonzero entry of a mode
annihilator a_k sits at a (row, column) pair that no other mode uses
(row = column's occupation with one quantum removed from mode k, value
sqrt(n_k)). The field keeps the flat arrays of those pairs, their modes and
values, cut once into one run per column sector with block-local indices,
and a(psi) takes conj(<e_k, psi>) sqrt(n_k) as the values of the (n-1, n)
blocks at those positions. Phi(z) = -i hbar (a(Kz) - a^+(Kz)) has its a
part at those positions and its a^+ part at the transposed ones in the
(n, n-1) blocks.

The field CCR holds below the cutoff, so the duality check joins only the
block pairs that land on total number <= nmax - 1. Phi changes the total
number by one, so the CCR gap maps even sectors to even ones and odd to odd,
and its norm is the larger of those two parts' norms. The ladder-shift check
forms [N, a] + a as a^+(a a) - (a a^+) a + a, whose products never reach the
top sector's square. The sector-n block of N(psi) is A^+ A for the (n-1, n)
block A of a(psi); its spectrum is that of the smaller Gram matrix, A A^+ or
A^+ A, plus, where A A^+ is the smaller, one zero per state that sector n
has over sector n-1. So N(psi) is never formed. The expectation suite
contracts phi(x)^2 with the state vector rather than forming the square,
and builds only the blocks of phi(x) between sectors 0-2, the only ones
that vector and phi(x) applied to it reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import VerificationReport


class FockConfigError(ValueError):
    pass


@dataclass
class PhasePoint:
    """Classical field/momentum configuration pair."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if self.f.shape != self.g.shape or self.f.ndim != 1:
            raise FockConfigError("phase point needs two equal-length vectors")
        if not (np.isfinite(self.f).all() and np.isfinite(self.g).all()):
            raise FockConfigError("phase point entries must be finite")


class _Block:
    """One sector-to-sector block as its entries: ``vals`` at the block-local
    positions (``rows``, ``cols``) of a ``shape`` matrix, no position twice.
    A block is never written after it is made, so operators share blocks."""

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals = rows, cols, vals
        self.shape = (int(shape[0]), int(shape[1]))

    def key(self):
        """Row-major linear positions of the entries."""
        return self.rows * self.shape[1] + self.cols

    def scaled(self, c):
        return _Block(self.rows, self.cols, self.vals * c, self.shape)

    def adjoint(self):
        return _Block(self.cols, self.rows, np.conj(self.vals), self.shape[::-1])

    def apply(self, vec):
        """This block times ``vec``, a vector or an array whose first axis
        it acts on: each entry's term is added into its row, in order."""
        vals = self.vals.reshape((-1,) + (1,) * (vec.ndim - 1))
        out = np.zeros((self.shape[0],) + vec.shape[1:], dtype=complex)
        np.add.at(out, self.rows, vals * vec[self.cols])
        return out


def _join(x, y, sign=1):
    """The terms of sign * (x @ y) as (linear position, value) arrays, one
    term per pair of entries that meet, unsummed: y's entries are sorted by
    row once, and each entry of x meets the run of them whose row is its
    column (Gustavson, ACM TOMS 4(3), 1978)."""
    order = np.argsort(y.rows, kind="stable")
    by_row = y.rows[order]
    lo = np.searchsorted(by_row, x.cols, "left")
    counts = np.searchsorted(by_row, x.cols, "right") - lo
    ends = np.cumsum(counts)
    pairs = int(ends[-1]) if len(ends) else 0
    left = np.repeat(np.arange(len(counts)), counts)
    right = np.repeat(lo - ends + counts, counts)
    right += np.arange(pairs)
    right = order[right]
    key = x.rows[left] * y.shape[1]
    key += y.cols[right]
    vals = x.vals[left]
    vals *= y.vals[right]
    if sign < 0:
        np.negative(vals, out=vals)
    return key, vals


def _concat(parts):
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _summed(parts, shape):
    """The block of the (linear position, value) ``parts``, the values that
    share a position summed in the order given."""
    key, vals = _concat(parts)
    if len(key):
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        vals = np.add.reduceat(vals[order], first)
        key = key[first]
    rows, cols = np.divmod(key, shape[1])
    return _Block(rows, cols, vals, shape)


def _dense_sum(parts, shape):
    """The dense matrix of the (linear position, value) ``parts``, the
    values added into their places in the order given."""
    key, vals = _concat(parts)
    out = np.zeros(shape[0] * shape[1], dtype=complex)
    np.add.at(out, key, vals)
    return out.reshape(shape)


def _joins(terms, keep=None):
    """For each target block (m, n) of the sum of sign * (left @ right) over
    the ``(left, right, sign)`` terms that ``keep`` accepts: its shape and
    the list of its joins' terms. The joins of one target are made only when
    it is reached, so no other target's terms are alive beside them."""
    targets = {}
    for left, right, sign in terms:
        for (m, k), x in left.blocks.items():
            for (j, n), y in right.blocks.items():
                if j == k and (keep is None or keep(m, n)):
                    targets.setdefault((m, n), []).append((x, y, sign))
    for target, pairs in targets.items():
        shape = (pairs[0][0].shape[0], pairs[0][1].shape[1])
        yield target, shape, [_join(x, y, sign) for x, y, sign in pairs]


def _products(terms):
    """Blocks of the sum of sign * (left @ right) over the terms; all the
    terms that land on one block are summed in one pass."""
    return {target: _summed(parts, shape) for target, shape, parts in _joins(terms)}


class FockOperator:
    """Operator on the truncated Fock space, graded by total particle number.

    ``blocks[(m, n)]`` maps sector n to sector m and holds that block's
    nonzero entries (a ``_Block``); a missing key is a zero block. Blocks
    are never written once made, so operators may share them. The algebra
    is what the reports use: products ``@``, the in-place ``+=`` and ``-=``
    of another operator and ``*=`` of a scalar, which replace the blocks
    they change, ``adjoint``, ``commutator_on``, ``apply`` and ``max_abs``.
    """

    __slots__ = ("field", "blocks")

    def __init__(self, field, blocks):
        self.field = field
        self.blocks = {}
        dims = field.sector_dims
        for (m, n), blk in blocks.items():
            if blk.shape != (dims[m], dims[n]):
                raise FockConfigError(
                    f"block ({m}, {n}) has shape {blk.shape}, "
                    f"want {(int(dims[m]), int(dims[n]))}")
            self.blocks[(m, n)] = blk

    def apply(self, vec):
        vec = np.asarray(vec)
        sl = self.field.sector_slices
        out = np.zeros(vec.shape, dtype=complex)
        for (m, n), blk in self.blocks.items():
            out[sl[m]] += blk.apply(vec[sl[n]])
        return out

    def adjoint(self):
        return FockOperator(self.field, {(n, m): blk.adjoint()
                                         for (m, n), blk in self.blocks.items()})

    def __matmul__(self, other):
        return FockOperator(self.field, _products([(self, other, 1)]))

    def _add_block(self, key, blk):
        mine = self.blocks.get(key)
        if mine is None:
            self.blocks[key] = blk
        elif np.array_equal(mine.rows, blk.rows) and np.array_equal(mine.cols, blk.cols):
            # the same positions, as the ladder blocks of one field have:
            # the values add entry by entry
            self.blocks[key] = _Block(blk.rows, blk.cols, mine.vals + blk.vals, blk.shape)
        else:
            self.blocks[key] = _summed([(mine.key(), mine.vals), (blk.key(), blk.vals)],
                                       blk.shape)

    def __iadd__(self, other):
        for key, blk in other.blocks.items():
            self._add_block(key, blk)
        return self

    def __isub__(self, other):
        for key, blk in other.blocks.items():
            self._add_block(key, blk.scaled(-1))
        return self

    def __imul__(self, c):
        for key, blk in self.blocks.items():
            self.blocks[key] = blk.scaled(c)
        return self

    def commutator_on(self, other, sectors):
        """Dense block of [self, other] on the listed sectors, in the order
        given, from the block products whose both sectors are listed."""
        dims = self.field.sector_dims
        at, k = {}, 0
        for n in sectors:
            self.field.block_dim(n)         # refuses a sector outside 0..nmax
            if n in at:
                raise FockConfigError(f"sector {n} is listed twice")
            at[n] = k
            k += int(dims[n])
        out = np.zeros((k, k), dtype=complex)
        for (m, n), shape, parts in _joins([(self, other, 1), (other, self, -1)],
                                           keep=lambda m, n: m in at and n in at):
            out[at[m]:at[m] + shape[0], at[n]:at[n] + shape[1]] = _dense_sum(parts, shape)
        return out

    def max_abs(self):
        """Largest entry modulus, block by block."""
        return max((float(np.abs(b.vals).max()) for b in self.blocks.values()
                    if b.vals.size), default=0.0)


def _occupations(nsites, nmax):
    """Per total number 0..nmax, the occupation vectors of ``nsites`` modes
    with that total, as the rows of an integer array in lexicographic
    order: vectors of L + 1 modes summing to t are those with first entry
    v = 0..t, each followed by the vectors of L modes summing to t - v."""
    tails = [np.full((1, 1), t, dtype=np.intp) for t in range(nmax + 1)]
    for _ in range(nsites - 1):
        grown = []
        for t in range(nmax + 1):
            parts = tails[t::-1]   # the tails summing to t - v, v = 0..t
            lead = np.repeat(np.arange(t + 1), [len(part) for part in parts])
            grown.append(np.column_stack((lead, np.concatenate(parts))))
        tails = grown
    return tails


class FockField:
    """Lattice phase space plus the truncated Fock representation."""

    def __init__(self, nsites, m, nmax, hbar=1.0):
        if nsites < 4:
            raise FockConfigError("need at least 4 lattice sites")
        if nmax < 2:
            raise FockConfigError(
                "nmax >= 2 required: the duality and expectation checks "
                "reach the 2-particle sector")
        if not (0 < m < np.inf and 0 < hbar < np.inf):
            raise FockConfigError("m and hbar must be positive and finite")
        self.nsites = int(nsites)
        self.m = float(m)
        self.nmax = int(nmax)
        self.hbar = float(hbar)
        k = np.arange(self.nsites)
        self.omega_k = np.sqrt(4.0 * np.sin(np.pi * k / self.nsites) ** 2 + self.m**2)

        # occupation basis ordered by total number, then lexicographically
        sectors = _occupations(self.nsites, self.nmax)
        basis = np.concatenate(sectors)
        self.dim = len(basis)
        totals = np.repeat(np.arange(self.nmax + 1), [len(occ) for occ in sectors])
        self.totals = totals
        self.sector_offsets = np.searchsorted(totals, np.arange(self.nmax + 2))
        self.sector_dims = np.diff(self.sector_offsets)
        self.sector_slices = [slice(int(lo), int(hi)) for lo, hi
                              in zip(self.sector_offsets[:-1], self.sector_offsets[1:])]

        # nonzero entries of the mode annihilators a_k: a_k[row, col] = sqrt(n),
        # column by column, modes in order within a column
        cols, modes = np.nonzero(basis)
        targets = basis[cols]
        targets[np.arange(len(cols)), modes] -= 1
        self._ladder_rows = self._basis_index(targets)
        self._ladder_cols = cols
        self._ladder_modes = modes
        self._ladder_sqrt_n = np.sqrt(basis[cols, modes].astype(float))
        # the entries come column by column, so those whose column lies in
        # sector n are one run; each is kept with block-local indices into
        # the (n-1, n) block
        runs = np.searchsorted(self._ladder_cols, self.sector_offsets)
        self._ladder_sectors = [
            (n, slice(int(runs[n]), int(runs[n + 1])),
             self._ladder_rows[runs[n]:runs[n + 1]] - self.sector_offsets[n - 1],
             self._ladder_cols[runs[n]:runs[n + 1]] - self.sector_offsets[n])
            for n in range(1, self.nmax + 1)]
        # basis index of |1_k>, mode by mode
        self._one_particle_index = self._basis_index(
            np.eye(self.nsites, dtype=np.intp))

    def _basis_index(self, occ):
        """Basis index of each occupation vector, a row of ``occ``: its
        sector's offset plus its lexicographic rank in the sector. With t
        the total left at entry j, x that entry and L = nsites - j - 1 modes
        after it, the vectors that share the first j entries and are
        smaller at j are those whose L-mode tail sums to t - x' for some
        x' < x: C(t + L, L) - C(t - x + L, L) of them, C(t + L, L) counting
        the L-mode vectors of total at most t. No count exceeds the largest
        sector's dimension, so none overflows."""
        nsites = self.nsites
        at_most = np.array([[math.comb(t + modes, modes) for modes in range(nsites)]
                            for t in range(self.nmax + 1)], dtype=np.intp)
        left = occ.sum(axis=1)
        index = self.sector_offsets[left]
        for j in range(nsites - 1):
            after = nsites - j - 1
            x = occ[:, j]
            index = index + at_most[left, after] - at_most[left - x, after]
            left = left - x
        return index

    def block_dim(self, max_total):
        """Dimension of the subspace with total number <= max_total."""
        if not (isinstance(max_total, (int, np.integer))
                and 0 <= max_total <= self.nmax):
            raise FockConfigError(
                f"max_total must be an integer in 0..{self.nmax}, got {max_total!r}")
        return int(self.sector_offsets[max_total + 1])

    # -- spectral operators on lattice functions --------------------------------

    def omega_power(self, vec, power):
        modes = np.fft.fft(np.asarray(vec, dtype=complex))
        modes *= self.omega_k**power
        out = np.fft.ifft(modes)
        return out

    def complex_structure(self, z: PhasePoint) -> PhasePoint:
        """J(f, g) = (-omega^-1 g, omega f); J o J = -identity."""
        return PhasePoint(-self.omega_power(z.g, -1).real,
                          self.omega_power(z.f, 1).real)

    def symplectic(self, z: PhasePoint, zp: PhasePoint) -> float:
        return float(np.dot(z.f, zp.g) - np.dot(zp.f, z.g))

    def one_particle_map(self, z: PhasePoint) -> np.ndarray:
        """K(f,g) = (omega^1/2 f + i omega^-1/2 g)/sqrt(2 hbar); K(Jz) = iK(z)."""
        return (self.omega_power(z.f, 0.5) + 1j * self.omega_power(z.g, -0.5)) \
            / np.sqrt(2.0 * self.hbar)

    # -- ladder and field operators -----------------------------------------------

    def _mode_coefficients(self, psi):
        # <e_k, psi> for the orthonormal Fourier modes e_k(x) = exp(2pi i kx/Ns)/sqrt(Ns)
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.nsites,):
            raise FockConfigError(
                f"psi must have one entry per site ({self.nsites}), got shape {psi.shape}")
        if not np.any(psi):
            raise FockConfigError("psi must be a nonzero 1-particle vector")
        return np.fft.fft(psi) / np.sqrt(self.nsites)

    def _ladder_values(self, psi):
        """Nonzero entries of a(psi), at (_ladder_rows, _ladder_cols)."""
        coeffs = self._mode_coefficients(psi)
        return np.conj(coeffs)[self._ladder_modes] * self._ladder_sqrt_n

    def _ladder_blocks(self, vals, raising=False, max_total=None):
        """Blocks holding ``vals`` at the ladder positions: the (n-1, n)
        blocks of a lowering operator, or with ``raising`` the transposed
        positions in the (n, n-1) blocks; with ``max_total``, only those
        with n <= max_total."""
        dims = self.sector_dims
        blocks = {}
        for n, run, rows, cols in self._ladder_sectors[:max_total]:
            (m, k), at = ((n, n - 1), (cols, rows)) if raising else ((n - 1, n), (rows, cols))
            blocks[(m, k)] = _Block(*at, vals[run], (dims[m], dims[k]))
        return blocks

    def annihilator(self, psi) -> FockOperator:
        """a(psi), antilinear in psi; a(psi)|0> = 0."""
        return FockOperator(self, self._ladder_blocks(self._ladder_values(psi)))

    def number_spectrum(self, psi) -> np.ndarray:
        """All dim eigenvalues of N(psi) = a^+(psi) a(psi), sorted.

        The sector-n block of N(psi) is A^+ A for the (n-1, n) block A of
        a(psi). Its nonzero eigenvalues are those of A A^+ as well, so each
        sector takes the eigenvalues of the smaller of the two Gram matrices;
        where that is A A^+, it adds one exact zero per state that sector n
        has over sector n-1. The vacuum sector, where a(psi) is zero, adds
        one zero.
        """
        a = self.annihilator(psi)
        parts = [np.zeros(int(self.sector_dims[0]))]
        for n in range(1, self.nmax + 1):
            blk = a.blocks[(n - 1, n)]
            rows, cols = blk.shape
            pair = (blk, blk.adjoint()) if rows <= cols else (blk.adjoint(), blk)
            side = min(rows, cols)
            parts.append(np.linalg.eigvalsh(_dense_sum([_join(*pair)], (side, side))))
            parts.append(np.zeros(max(cols - rows, 0)))
        return np.sort(np.concatenate(parts))

    def total_number_diagonal(self) -> np.ndarray:
        """Diagonal of sum_k a^+(e_k) a(e_k) over the Fourier modes e_k.

        The sum is diagonal in the occupation basis, and the diagonal of
        a^+ a holds the column sums of |a|^2, so each mode adds one bincount
        of its ladder values over their columns.
        """
        sites = np.arange(self.nsites)
        out = np.zeros(self.dim)
        for k in range(self.nsites):
            e_k = np.exp(2j * np.pi * k * sites / self.nsites) / np.sqrt(self.nsites)
            out += np.bincount(self._ladder_cols, minlength=self.dim,
                               weights=np.abs(self._ladder_values(e_k)) ** 2)
        return out

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = 1.0
        return vec

    def one_particle_state(self, psi) -> np.ndarray:
        """|1_psi> = a^+(psi)|0> = sum_k <e_k, psi> |1_k> for normalized psi."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._one_particle_index] = self._mode_coefficients(psi)
        return vec

    def field_op(self, z: PhasePoint, max_total=None) -> FockOperator:
        """Phi(z) = -i hbar (a(Kz) - a^+(Kz)); self-adjoint. With
        ``max_total``, only its blocks between sectors of total number
        <= max_total are built."""
        # a lowers the total number and a^+ raises it, so their entries
        # lie in different blocks
        vals = self._ladder_values(self.one_particle_map(z))
        scale = -1j * self.hbar
        blocks = self._ladder_blocks(vals * scale, max_total=max_total)
        blocks.update(self._ladder_blocks(-np.conj(vals) * scale, raising=True,
                                          max_total=max_total))
        return FockOperator(self, blocks)

    def local_field(self, x: int, max_total=None) -> FockOperator:
        """phi_hat(x) = Phi(0, -delta_x), optionally cut like ``field_op``."""
        delta = np.zeros(self.nsites)
        delta[x % self.nsites] = 1.0
        return self.field_op(PhasePoint(np.zeros(self.nsites), -delta), max_total)

    def smeared_profile(self, psi) -> np.ndarray:
        """|(omega^-1/2 psi)(x)|^2 site by site."""
        sm = self.omega_power(np.asarray(psi, dtype=complex), -0.5)
        return np.abs(sm) ** 2


# -- expectation-value suite ----------------------------------------------------------


@dataclass
class ExpectationCurves:
    sites: np.ndarray
    vacuum_sq: np.ndarray
    one_particle_sq: np.ndarray
    difference: np.ndarray
    predicted: np.ndarray
    vacuum_first: np.ndarray
    one_particle_first: np.ndarray
    max_first_moment: float
    max_difference_error: float
    vacuum_value_error: float


def expectation_suite(psi, field: FockField) -> ExpectationCurves:
    """Local-field expectation values in the vacuum and in |1_psi>.

    Asserted identities (checked by callers against their tolerance):
    <0|phi(x)|0> = <1|phi(x)|1> = 0, <0|phi(x)^2|0> = hbar/2 ||omega^-1/2 delta_x||^2,
    and the field-strength bump a 1-particle excitation adds,

        <1_psi|phi(x)^2|1_psi> - <0|phi(x)^2|0> = hbar |(omega^-1/2 psi)(x)|^2.
    """
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise FockConfigError("psi must be nonzero")
    psi = psi / nrm
    vac = field.vacuum()
    one = field.one_particle_state(psi)
    ns = field.nsites
    sites = np.arange(ns)
    vac_sq = np.zeros(ns)
    one_sq = np.zeros(ns)
    vac_first = np.zeros(ns)
    one_first = np.zeros(ns)
    predicted = field.hbar * field.smeared_profile(psi)
    for x in range(ns):
        # |0>, |1_psi> and phi applied to them lie in sectors 0-2; applying
        # phi again, only its parts back into sectors 0 and 1 are read
        phi = field.local_field(x, max_total=2)
        for vec, first, sq in ((vac, vac_first, vac_sq), (one, one_first, one_sq)):
            phi_vec = phi.apply(vec)
            first[x] = np.vdot(vec, phi_vec).real
            sq[x] = np.vdot(vec, phi.apply(phi_vec)).real
    delta_profile = np.zeros(ns)
    for x in range(ns):
        d = np.zeros(ns)
        d[x] = 1.0
        delta_profile[x] = np.sum(np.abs(field.omega_power(d, -0.5)) ** 2)
    vacuum_expected = 0.5 * field.hbar * delta_profile
    diff = one_sq - vac_sq
    return ExpectationCurves(
        sites=sites, vacuum_sq=vac_sq, one_particle_sq=one_sq,
        difference=diff, predicted=predicted,
        vacuum_first=vac_first, one_particle_first=one_first,
        max_first_moment=float(max(np.abs(vac_first).max(), np.abs(one_first).max())),
        max_difference_error=float(np.abs(diff - predicted).max()),
        vacuum_value_error=float(np.abs(vac_sq - vacuum_expected).max()))


def profile_fwhm(profile) -> float:
    """Full width at half maximum of a peaked periodic lattice profile,
    with linear interpolation between sites."""
    prof = np.asarray(profile, dtype=float)
    n = len(prof)
    peak = int(np.argmax(prof))
    rolled = np.roll(prof, n // 2 - peak)   # center the peak
    half = rolled.max() / 2.0
    above = rolled >= half
    idx = np.where(above)[0]
    left, right = idx.min(), idx.max()

    def crossing(i0, i1):
        y0, y1 = rolled[i0], rolled[i1]
        if y1 == y0:
            return 0.0
        return (half - y0) / (y1 - y0)

    w = right - left
    if left > 0:
        w += 1.0 - crossing(left - 1, left)
    if right < n - 1:
        w += crossing(right, right + 1)
    return float(w)


# -- reports ----------------------------------------------------------------------

# Each duality check builds its operators in a helper of its own, so they die
# with it, and takes differences in place (x -= y), so no more than two
# field-operator-sized operators are alive at once.


def _ccr_gap(field, z, zp):
    """||[Phi(z), Phi(z')] - i hbar Omega(z, z')|| below the cutoff.

    Phi moves the total number by +-1, so the gap has only (n, n) and
    (n +- 2, n) blocks: it maps even sectors to even ones and odd to odd,
    and its 2-norm is the larger of the 2-norms of those two parts."""
    phi, phi_p = field.field_op(z), field.field_op(zp)
    shift = 1j * field.hbar * field.symplectic(z, zp)
    norms = []
    for parity in (0, 1):
        gap = phi.commutator_on(phi_p, range(parity, field.nmax, 2))
        gap[np.diag_indices(len(gap))] -= shift
        norms.append(np.linalg.norm(gap, 2))
    return float(max(norms))


def _interdefinability_gap(field, z):
    """max |a(Kz) - (i Phi(z) - Phi(Jz)) / (2 hbar)|."""
    gap = field.field_op(z)
    gap *= 1j
    gap -= field.field_op(field.complex_structure(z))
    gap *= 1 / (2 * field.hbar)
    gap -= field.annihilator(field.one_particle_map(z))
    return gap.max_abs()


def _ladder_shift_gap(a):
    """max |(N + 1) a - a N| for N = a^+ a, formed as [N, a] + a with the
    products reassociated, a^+ (a a) - (a a^+) a + a, so N, whose top block
    is the largest sector's square, is never formed."""
    adag = a.adjoint()
    gap = adag @ (a @ a)
    gap -= (a @ adag) @ a
    gap += a
    return gap.max_abs()


def _self_adjoint_gap(op):
    """max |op - op^+|."""
    gap = op.adjoint()
    gap -= op
    return gap.max_abs()


def fock_report(suite, sites=8, nmax=3, m=1.0, seed=0, tol=1e-10):
    """Run the Fock suite 'duality', 'spectrum' or 'expectation' on an
    ``sites``-site lattice truncated at ``nmax`` particles.

    Returns (report, expectation curves or None).
    """
    if suite not in ("duality", "spectrum", "expectation"):
        raise ValueError(f"unknown Fock suite '{suite}'")
    field = FockField(sites, m, nmax)
    rng = np.random.default_rng(seed)
    report = VerificationReport(f"fock_{suite}")

    def within_tol(check_id, lhs, expected, dev):
        report.add(id=check_id, lhs=lhs, expected=expected, residual=f"{dev:.3e}",
                   passed=dev <= tol, residual_norm=dev)

    if suite == "duality":
        for trial in range(3):
            z = PhasePoint(rng.normal(size=sites), rng.normal(size=sites))
            zp = PhasePoint(rng.normal(size=sites), rng.normal(size=sites))
            within_tol(f"ccr[{trial}]", "[Phi(z),Phi(z')]", "i*hbar*Omega(z,z')",
                       _ccr_gap(field, z, zp))
            within_tol(f"interdefinability[{trial}]", "a(Kz)",
                       "(i*Phi(z) - Phi(Jz))/(2*hbar)", _interdefinability_gap(field, z))
            kj = field.one_particle_map(field.complex_structure(z)) \
                - 1j * field.one_particle_map(z)
            within_tol(f"complex_structure[{trial}]", "K(Jz)", "i*K(z)",
                       float(np.abs(kj).max()))
        psi = rng.normal(size=sites) + 1j * rng.normal(size=sites)
        psi /= np.linalg.norm(psi)
        within_tol("ladder_shift", "(N(psi)+1)*a(psi)", "a(psi)*N(psi)",
                   _ladder_shift_gap(field.annihilator(psi)))
        within_tol("vacuum_condition", "a(psi)|0>", "0",
                   float(np.abs(field.annihilator(psi).apply(field.vacuum())).max()))
        within_tol("field_self_adjoint", "phi(0) - phi(0)^dag", "0",
                   _self_adjoint_gap(field.local_field(0)))
        return report, None
    if suite == "spectrum":
        psi = rng.normal(size=sites) + 1j * rng.normal(size=sites)
        psi /= np.linalg.norm(psi)
        evals = field.number_spectrum(psi)
        within_tol("integer_spectrum", "spec N(psi)", "integers",
                   float(np.abs(evals - np.round(evals)).max()))
        present = sorted(set(int(round(v)) for v in evals))
        expected = list(range(field.nmax + 1))
        report.add(id="spectrum_range", lhs=str(present), expected=str(expected),
                   residual="match" if present == expected else "mismatch",
                   passed=present == expected)
        kernel_dim = int(np.sum(field.total_number_diagonal() < 1e-12))
        report.add(id="vacuum_unique", lhs="dim ker(sum_k N(e_k))", expected="1",
                   residual=str(kernel_dim), passed=kernel_dim == 1)
        return report, None
    # expectation
    psi = np.zeros(sites)
    psi[sites // 2] = 1.0
    curves = expectation_suite(psi, field)
    within_tol("first_moments", "<0|phi|0>, <1|phi|1>", "0", curves.max_first_moment)
    within_tol("vacuum_value", "<0|phi(x)^2|0>", "hbar/2*||omega^-1/2 delta_x||^2",
               curves.vacuum_value_error)
    within_tol("difference_formula", "<1|phi(x)^2|1> - <0|phi(x)^2|0>",
               "hbar*|(omega^-1/2 psi)(x)|^2", curves.max_difference_error)
    w_heavy = profile_fwhm(FockField(sites, 2.0, 2).smeared_profile(psi))
    w_light = profile_fwhm(FockField(sites, 0.5, 2).smeared_profile(psi))
    report.add(id="peak_narrows_with_mass", lhs=f"FWHM(m=2)={w_heavy:.4f}",
               expected=f"< FWHM(m=0.5)={w_light:.4f}",
               residual=f"{w_heavy - w_light:+.4f}", passed=w_heavy < w_light)
    return report, curves
