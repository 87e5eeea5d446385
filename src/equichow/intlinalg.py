"""Exact integer linear algebra on sparse vectors: echelon forms,
relations, lattice membership and Smith invariants.

Every vector is a dict {index: value} of Python ints holding only its
non-zero entries, so nothing ever overflows or rounds and a vector costs
only its support.  The matrices of the patching step are nearly empty (at
degree bound 10 the largest, 78 x 102, has 102 non-zero entries).  One
elimination, `echelon`, serves every question.  Its pivot rows are a
basis of the lattice the rows span, which `coordinates` reads; the
transforms of the rows that reach zero are a basis of the relations among
them; and `smith_normal_form` reads the invariant factors from echelon
forms of a matrix and of its transpose in turn.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

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
    all positive) of an integer matrix given as its sparse rows, from
    echelon forms of the matrix and of its transpose in turn (Kannan and
    Bachem, SIAM J. Comput. 8, 1979); no transform is kept.

    Each round Hermite-reduces the pivot rows of `echelon` from the last to
    the first: an entry in a later pivot's column becomes its balanced
    remainder modulo that pivot.  When every pivot row holds only its pivot
    the matrix is diagonal up to the order of its columns; otherwise its
    transpose, rows in column order, goes round again.  Rows and columns
    that hold only their pivot stay so, and the rest of the matrix, the
    unfinished block, is reduced on its own.

    The rounds end.  The first pivot of the unfinished block is the gcd of
    its column, and its row is the block's first column once transposed,
    so the next form's first pivot divides it.  Either it shrinks, or every
    entry of that column is its multiple; then the tie rule of `echelon`
    takes the first row of the group, the transposed pivot column, which
    holds the pivot alone and clears the others exactly, so the block's
    first row and column come out clean.

    The entries stay small.  From the second form on the matrix is square
    and every column holds a pivot, so the product of the pivots is its
    determinant up to sign, the same in every later form, and no reduced
    entry exceeds half the pivot of its column.

    Last the sorted diagonal is repaired into a divisibility chain, as
    diag(a, b) has the invariant factors of diag(gcd(a, b), lcm(a, b)).
    """
    return _echelon_factors(echelon(m)[0])


def _echelon_factors(span: Dict[int, Sparse]) -> Tuple[int, ...]:
    """`smith_normal_form` of rows with the `echelon` pivots `span`, reduced in place."""
    while True:
        pivots = list(span.items())
        for i in range(len(pivots) - 1, -1, -1):
            row = pivots[i][1]
            for j, pivot in pivots[i + 1:] if len(row) > 1 else ():
                if j in row:
                    q = _balanced_quotient(row[j], pivot[j])
                    if q:
                        _add_multiple(row, pivot, -q)
        if all(len(row) == 1 for _, row in pivots):
            break
        columns: Dict[int, Sparse] = {}
        for i, (_, row) in enumerate(pivots):
            for j, x in row.items():
                columns.setdefault(j, {})[i] = x
        span = echelon([columns[j] for j in sorted(columns)])[0]
    factors: List[int] = []
    for a in sorted(abs(row[j]) for j, row in pivots):
        if factors and a % factors[-1]:
            for i, f in enumerate(factors):
                g = gcd(f, a)
                factors[i], a = g, f // g * a
        factors.append(a)
    return tuple(factors)


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
    factors = smith_normal_form(subgroup_columns)
    return ambient_rank - len(factors), tuple(f for f in factors if f != 1)
