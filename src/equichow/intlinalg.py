"""Exact integer linear algebra on sparse vectors: Smith invariants,
echelon forms, relations and lattice membership.

Every vector is a dict {index: value} of Python ints holding only its
non-zero entries, so nothing ever overflows or rounds and a vector costs
only its support.  The matrices of the patching step are nearly empty (at
degree bound 10 the largest, 78 x 102, has 102 non-zero entries).  Both
routines take a matrix as its sparse rows and use the same pivot rule: the
smallest |entry| reduces the others by balanced remainders.  `echelon`
does the kernels and the memberships: its pivot rows are a basis of the
lattice the rows span, which `coordinates` reads, and the transforms of
the rows that reach zero are a basis of the relations among the rows.
Only the invariants need `smith_normal_form`, which keeps no transform.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

Sparse = Dict[int, int]


def _add_multiple(dst: Sparse, src: Sparse, q: int):
    """dst += q * src on sparse vectors, dropping entries that cancel; q is
    non-zero, so an entry can only cancel where dst already has one."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _balanced_quotient(value: int, pivot: int) -> int:
    """q with |value - q * pivot| <= |pivot| / 2."""
    q, r = divmod(value, pivot)
    if 2 * abs(r) > abs(pivot):
        q += 1
    return q


def smith_normal_form(m: Sequence[Sparse]) -> Tuple[int, ...]:
    """The invariant factors d1 | d2 | ... (the non-zero diagonal entries,
    all positive) of an integer matrix given as its sparse rows, found by
    unimodular row/column operations that keep no transform.

    The rows are copied without their zero entries, so a stored 0 is never
    taken for a pivot, and the column count is one past the largest index
    left.  `where[j]` is the set of rows non-zero in column j.  Pivot choice
    is the smallest nonzero absolute value of the remaining block (ties
    broken by position, row first), which keeps entry growth mild.  Once a
    pivot has cleared its row and column, an entry of the remaining block
    that it does not divide has its row added to the pivot row, and the
    pivot is chosen again; so the divisibility chain holds as each pivot is
    fixed, with no pass after the loop.  Rows and columns before the pivot
    hold only their finished pivots, so the remaining block is all of rows
    t onwards, and elimination ends when those rows are empty.
    """
    rows = len(m)
    a: List[Sparse] = [{j: x for j, x in row.items() if x} for row in m]
    cols = 1 + max((max(row) for row in a if row), default=-1)
    where: List[Set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(a):
        for j in row:
            where[j].add(i)

    def swap_rows(i, j):
        if i == j:
            return
        for k in a[i]:
            where[k].remove(i)
        for k in a[j]:
            where[k].remove(j)
        a[i], a[j] = a[j], a[i]
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
                add_row(t, i, -_balanced_quotient(a[i][t], p))
                if t in a[i]:
                    clean = False
            for j, x in [(j, x) for j, x in a[t].items() if j != t]:
                add_col(t, j, -_balanced_quotient(x, p))
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
        t += 1

    return tuple(abs(a[i][i]) for i in range(t))


def echelon(rows: Sequence[Sparse]) -> Tuple[Dict[int, Sparse], List[Sparse]]:
    """A row echelon form of the sparse rows by unimodular row operations,
    and the relations among the rows from its transform (Cohen, A Course in
    Computational Algebraic Number Theory, section 2.4).

    Columns are cleared in increasing order.  Among the rows whose first
    non-zero entry lies in column j, the one of smallest |lead| reduces the
    others by balanced remainders, and the smallest is chosen again until
    one row is left: the pivot row of column j.  The others move on to
    their new first column.  Every row carries its transform, the sparse
    combination of the input rows that it equals.

    Returns `pivots`, {column: pivot row} in increasing column order, a
    basis of the lattice the rows span; and `kernel`, the transforms of the
    rows that reached zero, a basis of the integer relations among the rows.
    """
    pivots: Dict[int, Sparse] = {}
    kernel: List[Sparse] = []
    waiting: Dict[int, List[Tuple[Sparse, Sparse]]] = {}
    columns: List[int] = []

    def place(row: Sparse, transform: Sparse):
        if not row:
            kernel.append(transform)
            return
        j = min(row)
        if j not in waiting:
            waiting[j] = []
            heappush(columns, j)
        waiting[j].append((row, transform))

    for i, row in enumerate(rows):
        place({j: x for j, x in row.items() if x}, {i: 1})
    while columns:
        j = heappop(columns)
        group = waiting.pop(j)
        while len(group) > 1:
            pivot, transform = group.pop(min(range(len(group)), key=lambda k: abs(group[k][0][j])))
            rest = [(pivot, transform)]
            for row, t in group:
                # |row[j]| >= |pivot[j]|, so the quotient is not zero.
                q = -_balanced_quotient(row[j], pivot[j])
                _add_multiple(row, pivot, q)
                _add_multiple(t, transform, q)
                if j in row:
                    rest.append((row, t))
                else:
                    place(row, t)
            group = rest
        pivots[j] = group[0][0]
    return pivots, kernel


def coordinates(pivots: Dict[int, Sparse], v: Sparse) -> Optional[Sparse]:
    """y with v = sum of y[j] * pivots[j], for `pivots` from `echelon`; None
    when v is not in the lattice they span.  Each step clears the first
    entry left of v with the pivot row of its column, so only the pivots v
    reaches are read."""
    rest = {k: x for k, x in v.items() if x}
    y: Sparse = {}
    while rest:
        j = min(rest)
        row = pivots.get(j)
        if row is None:
            return None
        q, r = divmod(rest[j], row[j])
        if r:
            return None
        y[j] = q
        _add_multiple(rest, row, -q)
    return y


def quotient_invariants(
    ambient_rank: int, subgroup_columns: Sequence[Sparse]
) -> Tuple[int, Tuple[int, ...]]:
    """Free rank and torsion of Z^ambient_rank / <sparse columns>.  The
    columns go to the Smith form as its rows: a matrix and its transpose
    have the same invariant factors."""
    factors = smith_normal_form(subgroup_columns) if any(subgroup_columns) else ()
    return ambient_rank - len(factors), tuple(f for f in factors if f != 1)
