"""Exact integer linear algebra: Smith normal form, kernels, lattices.

Matrices are plain lists of rows of Python ints, so nothing ever overflows
or rounds.  The Smith routine tracks the unimodular row/column transforms
by applying every elementary operation to the bookkeeping matrices as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, v: Sequence[int]) -> List[int]:
    """A * v, multiplying only the non-zero entries of v, which are few in
    the relation columns and kernel generators solved against."""
    support = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in support) for row in a]


def from_columns(columns: Sequence[Sequence[int]], rows: int) -> Matrix:
    return [[col[i] for col in columns] for i in range(rows)]


@dataclass
class SmithDecomposition:
    """D = U * M * V with U, V unimodular and D diagonal, d1 | d2 | ...

    `factors` lists the nonzero diagonal entries (all positive).
    """

    factors: Tuple[int, ...]
    u: Matrix
    v: Matrix
    shape: Tuple[int, int]

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(m: Matrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivot choice is the smallest nonzero absolute value of the remaining
    block (ties broken by position), which keeps entry growth mild.  Once a
    pivot has cleared its row and column, an entry of the remaining block
    that it does not divide has its row added to the pivot row, and the
    pivot is chosen again; so the divisibility chain holds as each pivot is
    fixed, with no pass after the loop.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def add_row(src, dst, q):
        # row dst += q * row src
        if q == 0:
            return
        arow, srow = a[dst], a[src]
        for k in range(cols):
            arow[k] += q * srow[k]
        urow, usrc = u[dst], u[src]
        for k in range(rows):
            urow[k] += q * usrc[k]

    def add_col(src, dst, q):
        # col dst += q * col src
        if q == 0:
            return
        for r in range(rows):
            a[r][dst] += q * a[r][src]
        for r in range(cols):
            v[r][dst] += q * v[r][src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def balanced_quotient(value, pivot):
        q, r = divmod(value, pivot)
        if 2 * abs(r) > abs(pivot):
            q += 1
        return q

    def move_min_pivot(t) -> bool:
        best = None
        where = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                val = abs(row[j])
                if val and (best is None or val < best):
                    best = val
                    where = (i, j)
                    if val == 1:
                        break
            if best == 1:
                break
        if where is None:
            return False
        swap_rows(t, where[0])
        swap_cols(t, where[1])
        return True

    t = 0
    limit = min(rows, cols)
    while t < limit:
        if not move_min_pivot(t):
            break
        # Re-selecting the minimal pivot each round (with balanced
        # remainders) keeps entry growth tame and guarantees termination:
        # every retry strictly shrinks the smallest entry of the block.
        while True:
            p = a[t][t]
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -balanced_quotient(a[i][t], p))
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -balanced_quotient(a[t][j], p))
                    if a[t][j]:
                        clean = False
            if not clean:
                move_min_pivot(t)
                continue
            # A unit pivot divides every entry, so the scan below could
            # never find a stray one.
            if abs(p) == 1:
                break
            stray = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(stray, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    factors = tuple(a[i][i] for i in range(t) if a[i][i])
    return SmithDecomposition(factors, u, v, (rows, cols))


def invariant_factors(m: Matrix) -> Tuple[int, ...]:
    return smith_normal_form(m).factors


def kernel_basis(a: Matrix) -> List[List[int]]:
    """A lattice basis of {x : A x = 0}, as a list of column vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    dec = smith_normal_form(a)
    return [[dec.v[i][j] for i in range(cols)] for j in range(dec.rank, cols)]


class Lattice:
    """The sublattice of Z^dim spanned by integer columns.

    With M the matrix of the non-zero columns and U M V = D its Smith
    decomposition, the first `rank` columns of M V are a basis of the
    lattice (the later ones are zero), and `coordinates` works in that basis.
    """

    def __init__(self, columns: Sequence[Sequence[int]], dim: int):
        live = [c for c in columns if any(c)]
        self.dec = smith_normal_form(from_columns(live, dim))
        self.rank = self.dec.rank

    def coordinates(self, v: Sequence[int]) -> Optional[List[int]]:
        """y = D^-1 U v truncated to the rank, so that v is (M V) y over the
        first `rank` columns of M V; None when v is not in the lattice."""
        factors = self.dec.factors
        y = []
        for i, c in enumerate(mat_vec(self.dec.u, v)):
            if i >= len(factors):
                if c:
                    return None
                continue
            q, r = divmod(c, factors[i])
            if r:
                return None
            y.append(q)
        return y


def quotient_invariants(
    ambient_rank: int, subgroup_columns: Sequence[Sequence[int]]
) -> Tuple[int, Tuple[int, ...]]:
    """Free rank and torsion of Z^ambient_rank / <columns>."""
    live = [c for c in subgroup_columns if any(c)]
    if not live:
        return ambient_rank, ()
    factors = invariant_factors(from_columns(live, ambient_rank))
    free = ambient_rank - len(factors)
    torsion = tuple(f for f in factors if f != 1)
    return free, torsion


def preimage_generators(
    m: Matrix, target_columns: Sequence[Sequence[int]], domain_dim: int
) -> List[List[int]]:
    """Generators of the lattice {v : M v lies in <target_columns>}.

    Computed as the projection onto the first `domain_dim` coordinates of
    the kernel of the block matrix [M | T].
    """
    rows = len(m)
    if rows == 0:
        return [[1 if i == j else 0 for i in range(domain_dim)] for j in range(domain_dim)]
    live = [c for c in target_columns if any(c)]
    block = [m[i][:] + [c[i] for c in live] for i in range(rows)]
    gens = []
    for vec in kernel_basis(block):
        head = vec[:domain_dim]
        gens.append(head)
    return gens
