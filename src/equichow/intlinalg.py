"""Exact integer linear algebra on sparse vectors: Smith normal form,
relations, lattices.

Every vector is a dict {index: value} of Python ints holding only its
non-zero entries, so nothing ever overflows or rounds and a vector costs
only its support.  The matrices of the patching step are nearly empty (at
degree bound 10 the largest, 78 x 102, has 102 non-zero entries).  The
Smith routine takes a matrix as its sparse rows; `Lattice` and
`quotient_invariants` take sparse columns and transpose them once.  The
Smith routine keeps an index from each column to the rows where it is
non-zero and the row transform U as sparse rows, so a pivot search, a swap
or an elementary operation touches only non-zero entries.  Only U is kept:
the rows of U past the rank are the integer relations among the rows of M,
and the lattice coordinates read U alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

Sparse = Dict[int, int]


def _transpose(vectors: Sequence[Sparse], size: int) -> List[Sparse]:
    """The `size` sparse rows of the matrix whose columns are `vectors`
    (every index below `size`), or its columns given its rows."""
    out: List[Sparse] = [{} for _ in range(size)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            out[i][j] = x
    return out


def _add_multiple(dst: Sparse, src: Sparse, q: int):
    """dst += q * src on sparse vectors, dropping entries that cancel; q is
    non-zero, so an entry can only cancel where dst already has one."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


@dataclass
class SmithDecomposition:
    """D = U * M * V with U, V unimodular and D diagonal, d1 | d2 | ...

    `factors` lists the nonzero diagonal entries (all positive).  `u` holds
    the rows of U, each a sparse dict {index: value}: row i of U combines
    the rows of M into a row that is d_i times a row of V^-1 for i below
    `rank` and zero from `rank` on, so those later rows of U are a basis of
    the integer relations among the rows of M.  V is not kept.
    """

    factors: Tuple[int, ...]
    u: List[Sparse]

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(m: Sequence[Sparse]) -> SmithDecomposition:
    """Diagonalize an integer matrix, given as its sparse rows, by
    unimodular row/column operations.

    The rows are copied without their zero entries, so a stored 0 is never
    taken for a pivot, and the column count is one past the largest index
    left.  `where[j]` is the set of rows non-zero in column j; every row
    operation is applied to U's sparse rows as well.  Pivot choice is the
    smallest nonzero absolute value of the remaining block (ties broken by
    position, row first), which keeps entry growth mild.  Once a pivot has
    cleared its row and column, an entry of the remaining block that it
    does not divide has its row added to the pivot row, and the pivot is
    chosen again; so the divisibility chain holds as each pivot is fixed,
    with no pass after the loop.  Rows and columns before the pivot hold
    only their finished pivots, so the remaining block is all of rows t
    onwards, and elimination ends when those rows are empty.
    """
    rows = len(m)
    a: List[Sparse] = [{j: x for j, x in row.items() if x} for row in m]
    cols = 1 + max((max(row) for row in a if row), default=-1)
    where: List[Set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(a):
        for j in row:
            where[j].add(i)
    u: List[Sparse] = [{i: 1} for i in range(rows)]

    def swap_rows(i, j):
        if i == j:
            return
        for k in a[i]:
            where[k].remove(i)
        for k in a[j]:
            where[k].remove(j)
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for k in a[i]:
            where[k].add(i)
        for k in a[j]:
            where[k].add(j)

    def swap_cols(i, j):
        if i == j:
            return
        for r in where[i] | where[j]:
            row = a[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if x:
                row[j] = x
            if y:
                row[i] = y
        where[i], where[j] = where[j], where[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        if q == 0:
            return
        row = a[dst]
        for k, x in a[src].items():
            y = row.get(k, 0) + q * x
            if y:
                if k not in row:
                    where[k].add(dst)
                row[k] = y
            else:
                del row[k]
                where[k].remove(dst)
        _add_multiple(u[dst], u[src], q)

    def add_col(src, dst, q):
        # col dst += q * col src
        if q == 0:
            return
        col = where[dst]
        for r in where[src]:
            row = a[r]
            y = row.get(dst, 0) + q * row[src]
            if y:
                if dst not in row:
                    col.add(r)
                row[dst] = y
            else:
                del row[dst]
                col.remove(r)

    def balanced_quotient(value, pivot):
        q, r = divmod(value, pivot)
        if 2 * abs(r) > abs(pivot):
            q += 1
        return q

    # Every entry of the remaining block is a multiple of `known`: of 1 at
    # the start, and of a pivot once the scan below has found no stray
    # entry for it, since row and column operations within the block keep
    # that.  So no entry is smaller, and a pivot of that size divides all.
    known = 1

    def move_min_pivot(t) -> bool:
        best = None
        for i in range(t, rows):
            row = a[i]
            if row:
                val = min(map(abs, row.values()))
                if best is None or val < best:
                    j = min(j for j, x in row.items() if abs(x) == val)
                    best, spot = val, (i, j)
                    if val == known:
                        break
        if best is None:
            return False
        swap_rows(t, spot[0])
        swap_cols(t, spot[1])
        return True

    t = 0
    while move_min_pivot(t):
        # Re-selecting the minimal pivot each round (with balanced
        # remainders) keeps entry growth tame and guarantees termination:
        # every retry strictly shrinks the smallest entry of the block.
        while True:
            p = a[t][t]
            clean = True
            for i in [i for i in where[t] if i != t]:
                add_row(t, i, -balanced_quotient(a[i][t], p))
                if t in a[i]:
                    clean = False
            for j, x in [(j, x) for j, x in a[t].items() if j != t]:
                add_col(t, j, -balanced_quotient(x, p))
                if j in a[t]:
                    clean = False
            if not clean:
                move_min_pivot(t)
                continue
            if abs(p) == known:
                break
            stray = next(
                (i for i in range(t + 1, rows) if any(x % p for x in a[i].values())),
                None,
            )
            if stray is None:
                known = abs(p)
                break
            add_row(stray, t, 1)
        if a[t][t] < 0:
            a[t][t] = -a[t][t]
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1

    factors = tuple(a[i][i] for i in range(t))
    return SmithDecomposition(factors, u)


class Lattice:
    """The sublattice of Z^dim spanned by sparse integer columns.

    With M the matrix of the non-zero columns and U M V = D its Smith
    decomposition, M V = U^-1 D, so the columns d_i * U^-1 e_i for i below
    `rank` are a basis of the lattice, and `coordinates` works in that
    basis.  U is transposed once into sparse columns, so a coordinate
    computation touches only the columns of U in the support of its vector.
    """

    def __init__(self, columns: Sequence[Sparse], dim: int):
        self.dec = smith_normal_form(_transpose([c for c in columns if c], dim))
        self.rank = self.dec.rank
        self._u_columns = _transpose(self.dec.u, dim)

    def coordinates(self, v: Sparse) -> Optional[Sparse]:
        """y = D^-1 U v, sparse and below the rank, so that v is the sum of
        y_i * d_i * U^-1 e_i; None when v is not in the lattice."""
        uv: Sparse = {}
        for k, x in v.items():
            for i, c in self._u_columns[k].items():
                uv[i] = uv.get(i, 0) + c * x
        factors = self.dec.factors
        y: Sparse = {}
        for i, c in uv.items():
            if not c:
                continue
            if i >= self.rank:
                return None
            q, r = divmod(c, factors[i])
            if r:
                return None
            y[i] = q
        return y


def quotient_invariants(
    ambient_rank: int, subgroup_columns: Sequence[Sparse]
) -> Tuple[int, Tuple[int, ...]]:
    """Free rank and torsion of Z^ambient_rank / <sparse columns>."""
    live = [c for c in subgroup_columns if c]
    if not live:
        return ambient_rank, ()
    factors = smith_normal_form(_transpose(live, ambient_rank)).factors
    free = ambient_rank - len(factors)
    torsion = tuple(f for f in factors if f != 1)
    return free, torsion


def preimage_generators(
    columns: Sequence[Sparse], target_columns: Sequence[Sparse], domain_dim: int
) -> List[Sparse]:
    """Sparse generators of the lattice {v : M v lies in <target_columns>},
    with `columns` the domain_dim sparse columns of M.

    The rows of U past the rank, for the matrix whose rows are the columns
    of M and the non-zero targets, are a basis of the integer relations
    among those vectors; their entries below `domain_dim` generate the
    lattice.
    """
    dec = smith_normal_form([*columns, *(c for c in target_columns if c)])
    return [{k: x for k, x in rel.items() if k < domain_dim} for rel in dec.u[dec.rank :]]
