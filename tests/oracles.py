"""Test-only oracles: dense matrix helpers, converters between dense
lists and the engine's sparse vectors, a dense Smith normal form by row
and column operations (an algorithm independent of the engine's, which
alternates echelon forms of a matrix and its transpose), lattice and
preimage generators that the sparse Smith form and echelon form are
checked against, the cartesian check of one degree by five
dense Smith forms, the defining check of a strong Groebner basis, the
relation-times-monomial graded pieces that the Groebner-staircase pieces
are checked against, vectors of polynomials on a piece, ring-map columns
with each image built from scratch or as a Poly product of a lower
image, equality of columns modulo relations, ring maps by Poly products,
vectors always taken through the reduction, the
non-zero-divisor check degree by degree up to a bound, order keys,
leads, S- and G-polynomials and reduced bases on exponent tuples, shared
with no kernel of the engine's packed path, division with a full scan of
the leads for every term, completion without pair criteria, ideal
equality by mutual containment, the hyperplane value and the point class
at a fixed point, the Euler forms as a Poly product, the fixed-point sum
taken one source point at a time
with Poly products of whole point classes, the specialization oracle
that visits every source point with a rational running sum, and the
polynomial parser that multiplies one Poly per factor."""

import functools
import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, mul
from random import Random
from typing import Dict, Optional

from equichow import MonomialOrder, Poly, normal_form, strong_groebner
from equichow.groebner import IdealBasis
from equichow.intlinalg import coordinates, echelon, quotient_invariants
from equichow.localization import (
    DescriptorError,
    MapDescriptor,
    _check_point,
    enumerate_fixed_points,
    euler_constant,
    map_image_fixed_point,
    pushforward,
)
from equichow.poly import GradeMismatch, NotDivisible, PolyError, TableMismatch
from equichow.presentation import DegreeCheck
from equichow.textio import MAX_EXPONENT, ParseError, _integer, _tokenize


def sparse(v):
    """The sparse vector {index: value} of a dense list, zeros dropped."""
    return {i: x for i, x in enumerate(v) if x}


def dense(v, n):
    """The dense list of length n of a sparse vector."""
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return out


def from_columns(columns, rows):
    """The dense matrix whose columns, each of length `rows`, are given."""
    if not columns:
        return [[] for _ in range(rows)]
    return [list(row) for row in zip(*columns)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    """A * v, multiplying only the non-zero entries of v."""
    support = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in support) for row in a]


def dense_smith_normal_form(m):
    """(factors, U, V) with U * m * V diagonal and the factors positive,
    each dividing the next, on dense rows with dense identity-sized U and V.
    Unimodular row and column operations move the smallest |entry| of the
    remaining block to the pivot spot, reduce its row and column by
    balanced remainders, and choose again until both are clear; an entry
    the pivot does not divide has its row added to the pivot row, so the
    divisibility chain holds as each pivot is fixed.  This shares no step
    with `smith_normal_form`, which keeps no transform."""
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

    def move_min_pivot(t):
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
    return factors, u, v


def dense_preimage_generators(columns, target_columns, domain_dim):
    """Generators of {v : M v lies in <target_columns>} from the dense
    oracle's V: the columns of V past the rank span the kernel of the block
    matrix [M | T], and their first `domain_dim` entries generate the
    lattice."""
    if not columns or not columns[0]:
        return identity(domain_dim)
    live = [c for c in target_columns if any(c)]
    factors, _, v = dense_smith_normal_form(from_columns(columns + live, len(columns[0])))
    return [[v[k][j] for k in range(domain_dim)] for j in range(len(factors), len(v))]


class DenseLattice:
    """The lattice spanned by the non-zero dense columns, on the dense Smith
    normal form, with coordinates D^-1 U v over the first rank columns of
    M V."""

    def __init__(self, columns, dim):
        live = [c for c in columns if any(c)]
        self.factors, self.u, _ = dense_smith_normal_form(from_columns(live, dim))
        self.rank = len(self.factors)

    def coordinates(self, v):
        y = []
        for i, c in enumerate(mat_vec(self.u, v)):
            if i >= self.rank:
                if c:
                    return None
                continue
            q, r = divmod(c, self.factors[i])
            if r:
                return None
            y.append(q)
        return y


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def determinant(a):
    """Fraction-free Bareiss determinant (square matrices only)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def verify_strong(basis):
    """Check the defining property: every S- and G-polynomial reduces to 0."""
    if not basis.polys:
        return True
    key = cached_key(basis.order, basis.table)
    leads = [plain_lead(g, key) for g in basis.polys]
    for j in range(len(leads)):
        for i in range(j):
            if not plain_reduce(plain_spolynomial(leads[i], leads[j]), leads, key).is_zero():
                return False
            if not plain_reduce(plain_gpolynomial(leads[i], leads[j]), leads, key).is_zero():
                return False
    return True


class MonomialPiece:
    """The degree-n piece as Z^(all degree-n monomials) modulo one column
    per relation times monomial of the complementary degree."""

    def __init__(self, pres, n):
        self.pres = pres
        self.degree = n
        self.monomials = pres.table.monomials_of_grade(n)
        self._index = {m: i for i, m in enumerate(self.monomials)}
        table = pres.table
        self.relations = [
            self.vector(rel * Poly(table, {m: 1}))
            for rel in pres.relations
            for m in table.monomials_of_grade(n - rel.homogeneous_grade())
        ]

    def vector(self, p):
        vec = [0] * len(self.monomials)
        for mono, coeff in p.terms.items():
            i = self._index.get(mono)
            if i is None:
                raise GradeMismatch(f"vectorizing a term outside degree {self.degree}")
            vec[i] = coeff
        return vec


def monomial_piece_invariants(pres, n):
    """(free rank, torsion) of the degree-n piece from the monomial builder."""
    piece = MonomialPiece(pres, n)
    return quotient_invariants(len(piece.monomials), [sparse(c) for c in piece.relations])


def vector(piece, p):
    """Sparse coordinates on the piece's staircase of the Poly p reduced by
    the monic leads, each monomial always by the same lead, so the map is
    linear; GradeMismatch for a term outside the piece's degree."""
    if any(piece.table.grade(mono) != piece.degree for mono in p.terms):
        raise GradeMismatch(f"vectorizing a term outside degree {piece.degree}")
    return piece._vector(piece._packing.terms(p))


def naive_image_columns(target, source, fn):
    """The columns vector(target, fn(m)) for the monomials m of `source`,
    each image built from scratch."""
    table = source.table
    return [vector(target, fn(Poly(table, {m: 1}))) for m in source.monomials]


def image_columns(target, source, hom, memo):
    """The columns vector(target, hom(m)) for the monomials m of `source`,
    each image a Poly product: memo maps degree to {monomial: image} for
    one caller that asks for degrees 0, 1, ... in turn, and the image of m
    is that of m / x_i, x_i the first variable of m, times the image of
    x_i.  This is the build that the engine's multiplication maps replaced;
    its columns are exact, where the engine's agree modulo the relations."""
    n, grades, gens = source.degree, source.table.degrees, hom._images
    built = memo[n] = {}
    for m in source.monomials:
        if not n:
            built[m] = Poly.const(target.table, 1)
            continue
        i = next(i for i, e in enumerate(m) if e)
        built[m] = memo[n - grades[i]][m[:i] + (m[i] - 1,) + m[i + 1 :]] * gens[i]
    return [vector(target, built[m]) for m in source.monomials]


def same_classes(columns, reference, relations):
    """Whether two lists of columns agree modulo the relation columns, read
    as lattices: each list with the relations spans one lattice, and the
    relations among [columns; relations], cut to the columns' coordinates,
    form one lattice."""

    def read(cols):
        span, kernel = echelon(list(cols) + list(relations))
        cut = [{k: x for k, x in rel.items() if k < len(cols)} for rel in kernel]
        return span, echelon(cut)[0]

    def within(pivots, vectors):
        return all(coordinates(pivots, v) is not None for v in vectors)

    (span_a, kernel_a), (span_b, kernel_b) = read(columns), read(reference)
    return (
        len(columns) == len(reference)
        and within(span_a, span_b.values())
        and within(span_b, span_a.values())
        and within(kernel_a, kernel_b.values())
        and within(kernel_b, kernel_a.values())
    )


def poly_map_terms(p, table, images):
    """The image over `table` of p under the ring map sending the variable
    in slot i to images[i], by Poly products: the engine's `_map_terms`
    before it ran on packed terms.  A variable without an image keeps its
    slot."""
    unit = (0,) * len(table)
    acc = {}
    for mono, coeff in p.terms.items():
        kept = list(unit)
        image = Poly.const(table, coeff)
        for i, e in enumerate(mono):
            if e and i in images:
                image = image * images[i] ** e
            elif e:
                kept[i] = e
        for m, c in image.terms.items():
            m = tuple(map(add, m, kept))
            acc[m] = acc.get(m, 0) + c
    return Poly(table, acc)


def reduced_vector(pres, piece, p):
    """vector(piece, p), always through the reduction by the monic leads of
    the presentation's basis, taken in the basis's order."""
    key = cached_key(pres.order, pres.table)
    leads = [plain_lead(g, key) for g in pres.groebner().polys]
    reduced = plain_reduce(p, [lead for lead in leads if lead[1] == 1], key)
    index = {m: i for i, m in enumerate(piece.monomials)}
    return {index[mono]: c for mono, c in reduced.terms.items()}


def dense_quotient_invariants(rank, columns):
    """Free rank and torsion of Z^rank / <dense columns>, from the dense
    Smith normal form."""
    live = [c for c in columns if any(c)]
    if not live:
        return rank, ()
    factors = dense_smith_normal_form(from_columns(live, rank))[0]
    return rank - len(factors), tuple(f for f in factors if f != 1)


def _kernel_in_relations(mult, target_relations, piece_relations, size):
    """Whether every v in Z^size with mult(v) in <target_relations> lies in
    <piece_relations>, all given as dense columns."""
    kernel_gens = dense_preimage_generators(mult, target_relations, size)
    relations = DenseLattice(piece_relations, size)
    return all(relations.coordinates(k) is not None for k in kernel_gens)


def nonzerodivisor_up_to(pres, elt, degree_bound):
    """True iff multiplication by elt is injective on every graded piece of
    degree <= degree_bound, read off the Groebner-staircase pieces on the
    dense lattices."""
    g = elt.homogeneous_grade()
    if g is None:
        raise GradeMismatch("non-zero-divisor test needs a homogeneous element")
    if elt.is_zero():
        return False
    for n in range(degree_bound + 1):
        piece = pres.piece(n)
        size = len(piece.monomials)
        if not size:
            continue
        target = pres.piece(n + g)
        rows = len(target.monomials)
        mult = naive_image_columns(target, piece, lambda m: elt * m)
        if not _kernel_in_relations(
            [dense(c, rows) for c in mult],
            [dense(c, rows) for c in target.relations],
            [dense(c, size) for c in piece.relations],
            size,
        ):
            return False
    return True


def monomial_nonzerodivisor_up_to(pres, elt, degree_bound):
    """`nonzerodivisor_up_to` over monomial pieces: multiplication by elt,
    normal-formed, must have its kernel inside the relations in every
    degree <= degree_bound."""
    if elt.is_zero():
        return False
    g = elt.homogeneous_grade()
    for n in range(degree_bound + 1):
        piece = MonomialPiece(pres, n)
        if not piece.monomials:
            continue
        target = MonomialPiece(pres, n + g)
        mult = [
            target.vector(pres.normal_form(elt * Poly(pres.table, {m: 1})))
            for m in piece.monomials
        ]
        if not _kernel_in_relations(
            mult, target.relations, piece.relations, len(piece.monomials)
        ):
            return False
    return True


def smith_check_degree(square, n):
    """The cartesian check of degree n by five dense Smith forms: the fiber
    lattice F = {v in B_n + C_n : the difference map sends v into D's
    relations}, the fiber product F / (relations of B_n + C_n) read in F's
    basis, A_n's invariants, and A_n's images modulo those relations in
    F's basis.  The corner map is an isomorphism iff the invariants agree
    and the images span F modulo the relations.  Every image is built from
    scratch."""
    pa, pb, pc, pd = (ring.piece(n) for ring in (square.a, square.b, square.c, square.d))
    mon_a, mon_b, mon_c, mon_d = (len(p.monomials) for p in (pa, pb, pc, pd))
    dim = mon_b + mon_c

    def columns(target, source, hom):
        return naive_image_columns(target, source, hom._raw_apply)

    diff = [dense(c, mon_d) for c in columns(pd, pb, square.bd)] + [
        [-x for x in dense(c, mon_d)] for c in columns(pd, pc, square.cd)
    ]
    fiber_lattice = DenseLattice(
        dense_preimage_generators(diff, [dense(r, mon_d) for r in pd.relations], dim), dim
    )

    def coords(vectors):
        out = []
        for vec in vectors:
            y = fiber_lattice.coordinates(vec)
            if y is None:
                raise PolyError("a column escapes the fiber lattice")
            out.append(y)
        return out

    relations = [dense(r, mon_b) + [0] * mon_c for r in pb.relations] + [
        [0] * mon_b + dense(r, mon_c) for r in pc.relations
    ]
    sub = coords(relations)
    fiber = dense_quotient_invariants(fiber_lattice.rank, sub)
    corner = dense_quotient_invariants(mon_a, [dense(r, mon_a) for r in pa.relations])
    images = [
        dense(ab, mon_b) + dense(ac, mon_c)
        for ab, ac in zip(columns(pb, pa, square.ab), columns(pc, pa, square.ac))
    ]
    surjective = dense_quotient_invariants(fiber_lattice.rank, sub + coords(images)) == (0, ())
    return DegreeCheck(n, corner == fiber and surjective, corner, fiber, surjective)


def order_key(order, table):
    """A sort key on exponent tuples for a MonomialOrder: bigger key means
    bigger monomial.  grevlex is (grade, the exponents negated from the
    lowest-priority variable up), lex the exponents from the
    highest-priority variable down, elim the first variable's exponent
    and then the grevlex key."""
    if set(order.priority) != set(table.names):
        raise PolyError("order priority does not cover the table")
    perm = tuple(table.index(n) for n in order.priority)
    if order.kind == "lex":
        return lambda mono: tuple(mono[i] for i in perm)
    degs, rev = table.degrees, perm[::-1]

    def grevlex_key(mono):
        return sum(map(mul, mono, degs)), tuple(-mono[i] for i in rev)

    if order.kind == "elim":
        return lambda mono: (mono[perm[0]], grevlex_key(mono))
    return grevlex_key


def cached_key(order, table):
    """`order_key`, each monomial's key computed once."""
    return functools.lru_cache(maxsize=None)(order_key(order, table))


def plain_lead(p, key):
    """(leading monomial, positive leading coefficient, p or -p)."""
    mono = max(p.terms, key=key)
    coeff = p.terms[mono]
    return (mono, coeff, p) if coeff > 0 else (mono, -coeff, -p)


def _divides(a, b):
    return all(map(le, a, b))


def _plain_combination(f, a, g, b):
    """a*(m/LM f)*f + b*(m/LM g)*g for m = lcm(LM f, LM g), as Poly products."""
    m = tuple(map(max, f[0], g[0]))
    table = f[2].table
    total = Poly.zero(table)
    for (lm, _, p), c in ((f, a), (g, b)):
        total = total + Poly(table, {tuple(x - y for x, y in zip(m, lm)): c}) * p
    return total


def plain_spolynomial(f, g):
    c = math.lcm(f[1], g[1])
    return _plain_combination(f, c // f[1], g, -(c // g[1]))


def plain_gpolynomial(f, g):
    """The combination leading with gcd(lc f, lc g) times the lcm monomial."""
    d, s, t = _extended_gcd(f[1], g[1])
    return _plain_combination(f, s, g, t)


def _extended_gcd(a, b):
    """(d, s, t) with s*a + t*b = d = gcd(a, b), for a, b > 0."""
    if b == 0:
        return a, 1, 0
    d, s, t = _extended_gcd(b, a % b)
    return d, t, s - (a // b) * t


def plain_reduce(p, leads, key):
    """Full division remainder: every coefficient of the result is the
    canonical Euclidean remainder modulo the applicable leading coefficients.
    Each term is divided by the dividing lead of smallest coefficient, the
    first one on a tie, found by scanning every lead."""
    if not leads:
        return p
    work = dict(p.terms)
    out = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        best = None
        for lead in leads:
            if (best is None or lead[1] < best[1]) and _divides(lead[0], mono):
                best = lead
        if best is None:
            out[mono] = coeff
            continue
        gm, gc, g = best
        q, r = divmod(coeff, gc)
        if q:
            shift = tuple(x - y for x, y in zip(mono, gm))
            for m2, c2 in g.terms.items():
                if m2 == gm:
                    continue
                k = tuple(map(add, shift, m2))
                val = work.get(k, 0) - q * c2
                if val:
                    work[k] = val
                elif k in work:
                    del work[k]
        if r:
            out[mono] = r
    return Poly(p.table, out)


def plain_minimize(basis, key):
    """The reduced basis: drop each element whose leading term is a
    term-multiple of another's (the later of two equal terms), then reduce
    every tail by the remaining elements."""
    kept = []
    for idx, (gm, gc, g) in enumerate(basis):
        if not any(
            jdx != idx
            and gc % hc == 0
            and _divides(hm, gm)
            and not ((hm, hc) == (gm, gc) and jdx > idx)
            for jdx, (hm, hc, _) in enumerate(basis)
        ):
            kept.append((gm, gc, g))
    reduced = []
    for idx, (gm, gc, g) in enumerate(kept):
        tail = plain_reduce(g - Poly(g.table, {gm: gc}), kept[:idx] + kept[idx + 1 :], key)
        reduced.append((gm, gc, tail + Poly(g.table, {gm: gc})))
    return reduced


def plain_strong_groebner(gens, order):
    """Strong Groebner completion with no pair criteria, on exponent tuples:
    every pair forms its S-polynomial, and its G-polynomial unless one
    leading coefficient divides the other; pairs are taken by lcm grade,
    oldest first, and reduced by `plain_reduce`."""
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return IdealBasis((), order, True)
    table = polys[0].table
    key = cached_key(order, table)

    basis = []
    for g in polys:
        lead = plain_lead(g, key)
        if all(lead[2] != b[2] for b in basis):
            basis.append(lead)

    def pair(i, j):
        return table.grade(tuple(map(max, basis[i][0], basis[j][0]))), j, i

    pairs = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    while pairs:
        _, j, i = heappop(pairs)
        f, g = basis[i], basis[j]
        candidates = [plain_spolynomial(f, g)]
        if f[1] % g[1] and g[1] % f[1]:
            candidates.append(plain_gpolynomial(f, g))
        for cand in candidates:
            rem = plain_reduce(cand, basis, key)
            if rem.is_zero():
                continue
            basis.append(plain_lead(rem, key))
            new = len(basis) - 1
            for k in range(new):
                heappush(pairs, pair(k, new))

    reduced = plain_minimize(basis, key)
    reduced.sort(key=lambda lead: (key(lead[0]), lead[1]))
    return IdealBasis(tuple(p for _, _, p in reduced), order, True)


def containment_ideal_equal(gens_a, gens_b, order=None):
    """Mutual containment of the two generating sets: each generator has
    normal form 0 modulo a strong basis of the other set."""
    live_a = [g for g in gens_a if not g.is_zero()]
    live_b = [g for g in gens_b if not g.is_zero()]
    if not live_a or not live_b:
        return not live_a and not live_b
    if order is None:
        order = MonomialOrder.grevlex(live_a[0].table)
    basis_a = strong_groebner(live_a, order)
    basis_b = strong_groebner(live_b, order)
    return all(normal_form(g, basis_b).is_zero() for g in live_a) and all(
        normal_form(g, basis_a).is_zero() for g in live_b
    )


def evaluate(p, values):
    """p at integer (or Fraction) values for every used variable, by name."""
    total = 0
    for mono, coeff in p.terms.items():
        term = coeff
        for name, e in zip(p.table.names, mono):
            if e:
                if name not in values:
                    raise PolyError(f"no value supplied for {name!r}")
                term = term * values[name] ** e
        total = total + term
    return total


def plain_exact_divide(p, q):
    """r with r*q == p over the integers, or NotDivisible: greedy
    leading-term division on exponent tuples under the canonical term
    order, with no exponent bound."""
    if q.table != p.table:
        raise TableMismatch("operands use different variable tables")
    if q.is_zero():
        raise PolyError("division by the zero polynomial")
    table = p.table
    q_terms = q.sorted_terms()
    q_mono, q_coeff = q_terms[0]
    rest = dict(p.terms)

    def entry(m):
        return -table.grade(m), tuple(-e for e in m), m  # negated render key

    # The leading term of `rest` is the first popped entry still in it.
    heap = [entry(m) for m in rest]
    heapify(heap)
    out = {}
    while heap:
        mono = heappop(heap)[2]
        if mono not in rest:
            continue
        coeff = rest[mono]
        diff = tuple(a - b for a, b in zip(mono, q_mono))
        if any(e < 0 for e in diff) or coeff % q_coeff:
            raise NotDivisible(f"{p.render()} is not divisible by {q.render()}")
        c = coeff // q_coeff
        out[diff] = c
        for m2, c2 in q_terms:
            key = tuple(a + b for a, b in zip(diff, m2))
            val = rest.get(key, 0) - c * c2
            if val:
                if key not in rest:
                    heappush(heap, entry(key))
                rest[key] = val
            else:
                rest.pop(key, None)
    return Poly(table, out)


def restrict_hyperplane(space, fp, factor):
    """Value of the factor's hyperplane class at the fixed point."""
    _check_point(space, fp)
    if not 0 <= factor < len(space.factors):
        raise DescriptorError("factor index out of range")
    f, i = space.factors[factor], fp[factor]
    return f.w0 * i + f.w1 * (f.d - i)


def point_class(space, fp):
    """Equivariant class of the fixed point: per factor, the product over
    the omitted indices j of (h - j*w0 - (d-j)*w1)."""
    _check_point(space, fp)
    out = Poly.const(space.table, 1)
    for i, f in zip(fp, space.factors):
        h = f.hyperplane()
        for j in range(f.d + 1):
            if j != i:
                out = out * (h - f.w0 * j - f.w1 * (f.d - j))
    return out


def fixed_point_substitution(space, fp):
    """The value of every hyperplane variable of the space at the fixed point."""
    return {
        f.hvar: restrict_hyperplane(space, fp, k)
        for k, f in enumerate(space.factors)
    }


def euler_forms(space):
    """Form part of the tangent Euler class, prod (w1 - w0)^d over the
    factors; it is the same at every fixed point."""
    out = Poly.const(space.table, 1)
    for f in space.factors:
        out = out * (f.w1 - f.w0) ** f.d
    return out


def plain_pushforward(mapping, cls):
    """The fixed-point sum one source point at a time: each term multiplies
    the restricted class by the whole point class of its image, over the
    common denominator lcm(euler_constant) * euler_forms."""
    source, target = mapping.source, mapping.target
    points = enumerate_fixed_points(source)
    consts = [euler_constant(source, fp) for fp in points]
    common = math.lcm(*consts)
    numerator = Poly.zero(source.table)
    for fp, const in zip(points, consts):
        restricted = cls.substitute(fixed_point_substitution(source, fp))
        image = point_class(target, map_image_fixed_point(mapping, fp))
        numerator = numerator + restricted * image * (common // const)
    return plain_exact_divide(numerator, euler_forms(source) * common)


def plain_specialize_oracle(
    mapping: MapDescriptor,
    cls: Poly,
    trials: int = 20,
    seed: int = 0,
    symbolic: Optional[Poly] = None,
) -> bool:
    """Numeric check of the pushforward against the raw fixed-point sum.

    Each trial draws integer weights (redrawing degenerate ones), picks a
    target fixed point, sets the target hyperplane values there, and
    compares the exact rational localization sum with the symbolic result
    evaluated at the same point.

    The sum is evaluated in integers from the descriptor alone: the point
    classes, Euler classes and hyperplane restrictions are products of
    linear forms in the weights, so each is computed from the integer
    weights of the trial instead of through the symbolic `point_class`,
    `euler_constant` and `euler_forms` that `pushforward` uses.
    """
    if symbolic is None:
        symbolic = pushforward(mapping, cls)
    rng = Random(seed)
    source, target = mapping.source, mapping.target
    base_names = [
        n
        for n in source.table.names
        if n not in source.hvars and n not in target.hvars
    ]
    # Per fixed point: its image in the target and the sign-and-factorial
    # constant of its Euler class, prod (-1)^i * i! * (d-i)!.
    points = []
    for fp in enumerate_fixed_points(source):
        const = 1
        for i, f in zip(fp, source.factors):
            const *= (-1) ** i * math.factorial(i) * math.factorial(f.d - i)
        points.append((fp, map_image_fixed_point(mapping, fp), const))
    for _ in range(trials):
        while True:
            values: Dict[str, object] = {
                n: rng.randint(-12, 12) for n in base_names
            }
            src_w = [
                (evaluate(f.w0, values), evaluate(f.w1, values))
                for f in source.factors
            ]
            if all(w0 != w1 for w0, w1 in src_w):
                break
        tgt_w = [
            (evaluate(f.w0, values), evaluate(f.w1, values)) for f in target.factors
        ]
        target_point = tuple(rng.randint(0, f.d) for f in target.factors)
        for f, (w0, w1), i in zip(target.factors, tgt_w, target_point):
            values[f.hvar] = w0 * i + w1 * (f.d - i)
        euler_forms = 1
        for f, (w0, w1) in zip(source.factors, src_w):
            euler_forms *= (w1 - w0) ** f.d
        lhs = Fraction(0)
        sub = dict(values)
        for fp, image, const in points:
            point_value = 1
            for f, (w0, w1), q in zip(target.factors, tgt_w, image):
                h = values[f.hvar]
                for j in range(f.d + 1):
                    if j != q:
                        point_value *= h - j * w0 - (f.d - j) * w1
            if not point_value:
                continue
            # Every point sets all the source h-variables, so one copy of
            # the trial's values serves them all.
            for f, (w0, w1), i in zip(source.factors, src_w, fp):
                sub[f.hvar] = w0 * i + w1 * (f.d - i)
            lhs += Fraction(evaluate(cls, sub) * point_value, const * euler_forms)
        rhs = evaluate(symbolic, values)
        if lhs != rhs:
            return False
    return True


def plain_parse_poly(text, table):
    """The polynomial of `text` with a Poly per factor, multiplied into its
    term and added into the sum, raising the ParseError of `parse_poly`."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

    def factor():
        nonlocal pos
        kind, value, where = peek()
        if kind == "int":
            pos += 1
            return Poly.const(table, _integer(value, where))
        if kind == "name":
            if value not in table.names:
                raise ParseError(f"unknown variable {value!r}", where)
            pos += 1
            exp = 1
            if peek()[0] == "pow":
                pos += 1
                k, v, w = peek()
                if k != "int":
                    raise ParseError("expected an integer exponent", w)
                exp = _integer(v, w)
                pos += 1
            return Poly.var(table, value, exp)
        raise ParseError("expected a coefficient or variable", where)

    def term():
        nonlocal pos
        where = peek()[2]
        out = factor()
        while peek()[0] == "mul":
            pos += 1
            out = out * factor()
        if any(e > MAX_EXPONENT for mono in out.terms for e in mono):
            raise ParseError(f"exponent above {MAX_EXPONENT}", where)
        return out

    sign = 1
    if peek()[0] == "minus":
        sign = -1
        pos += 1
    elif peek()[0] == "plus":
        pos += 1
    total = term() * sign
    while pos < len(tokens):
        kind, _, where = peek()
        if kind == "plus":
            sign = 1
        elif kind == "minus":
            sign = -1
        else:
            raise ParseError("expected '+' or '-' between terms", where)
        pos += 1
        total = total + term() * sign
    return total
