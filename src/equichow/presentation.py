"""Finitely presented graded rings over Z and the maps between them.

A presentation is a graded variable table plus homogeneous relation
polynomials.  Degree by degree the ring is a finitely generated abelian
group (the monomials off the monic leads of a strong Groebner basis, modulo
the multiples of the other leads), whose invariant factors, read from
echelon forms, give its rank and torsion.  Echelon forms of the same
lattices verify, degree by degree, that a commuting square of
presentations is cartesian.  The module also decides in every degree
whether an element is a non-zero-divisor, by a colon ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .groebner import IdealBasis, Lead, MonomialOrder, ideal_intersection, normal_form
from .groebner import _reduce, strong_groebner
from .intlinalg import Sparse, _add_multiple, coordinates, echelon, quotient_invariants
from .intlinalg import _echelon_factors
from .poly import GradeMismatch, Monomial, Poly, PolyError, VarTable, _map_terms, _Packing
from .poly import exact_divide


class WellDefinednessError(PolyError):
    """A ring map fails to send source relations into the target ideal."""


class RingPresentation:
    """Z[table] modulo a homogeneous relation ideal."""

    def __init__(self, table: VarTable, relations: Sequence[Poly] = ()):
        rels = []
        for r in relations:
            if r.table != table:
                raise PolyError("relation over a different table")
            if r.homogeneous_grade() is None:
                raise PolyError(f"relation {r.render()} is not homogeneous")
            if not r.is_zero():
                rels.append(r)
        self.table = table
        self.relations = tuple(rels)
        self.order = MonomialOrder.grevlex(table)
        self._basis: Optional[IdealBasis] = None
        self._pieces: Dict[int, GradedPiece] = {}

    def __repr__(self) -> str:
        rels = ", ".join(r.render() for r in self.relations)
        return f"RingPresentation({list(self.table.names)} / ({rels}))"

    def groebner(self) -> IdealBasis:
        if self._basis is None:
            self._basis = strong_groebner(self.relations, self.order)
        return self._basis

    def normal_form(self, p: Poly) -> Poly:
        return normal_form(p, self.groebner())

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def piece(self, n: int) -> GradedPiece:
        if n not in self._pieces:
            self._pieces[n] = GradedPiece(self, n)
        return self._pieces[n]


class GradedPiece:
    """The degree-n piece of a presentation over the Groebner staircase.

    For a degree-n monomial m let c_m be the smallest leading coefficient
    among the basis leads that divide m (0 when none does); on a strong basis
    it is their gcd.  A monomial with c_m = 1 reduces away by a monic lead,
    so Z^N maps onto the piece, with N the monomials with c_m != 1.  Its
    kernel is spanned by one column per m with c_m > 1, the vector of
    (m / LM g) * g for the element g attaining c_m: a member of the ideal in
    the span of N has a leading coefficient that c_m divides, so subtracting
    a multiple of that column lowers its lead (Adams & Loustaunau, ch. 4).
    The columns form a triangular matrix with pivot c_m in row m; they span
    the reductions of the ideal elements, so `image_columns` may build any
    vector of a class.

    `RingPresentation.piece` memoizes the pieces of its presentation, one
    per degree, so each is built once however many checks read it.  A
    piece keeps the table and the leads it needs, not the presentation: a
    back-reference would make every memoized piece part of a reference
    cycle that only the cyclic garbage collector frees.
    """

    def __init__(self, pres: RingPresentation, n: int):
        self.table, self.degree = pres.table, n
        basis = pres.groebner()
        packing, leads = basis._division(n) if basis.polys else (_Packing(pres.table, n, pres.order), ())
        self._packing = packing
        self._monic = [lead for lead in leads if lead[1] == 1]
        self._pivots: Dict[int, Lead] = {}
        sign, guards = packing.sign, packing.guards
        ranked = sorted(leads, key=lambda lead: lead[1])  # stable: a tie keeps the first lead
        monomials, packed = [], []
        every = pres.table.monomials_of_grade(n)
        for m, key in zip(every, map(packing.pack, every)):
            probe = sign * key
            for best in ranked:
                # best divides m iff no field of m / best goes negative
                if not (probe - best[3]) & guards:
                    break
            else:
                best = None
            if best is None or best[1] > 1:
                monomials.append(m)
                packed.append(key)
                if best is not None:
                    self._pivots[key] = best
        self.monomials = tuple(monomials)
        self._packed_index = dict(zip(packed, range(len(packed))))

    @cached_property
    def relations(self) -> List[Sparse]:
        """Columns spanning the ideal in degree n: one per monomial with
        c_m > 1, triangular with pivot c_m."""
        return [
            self._vector({m: gc, **{m - gm + k: c for k, c in tail.items()}})
            for m, (gm, gc, tail, _, _) in self._pivots.items()
        ]

    def _vector(self, terms: Dict[int, int]) -> Sparse:
        """Sparse coordinates on N of packed degree-n terms, which it
        consumes, reduced by the monic leads, each monomial always by the
        same lead, so the map is linear."""
        index = self._packed_index
        if not terms.keys() <= index.keys():
            # the divisor memo lives for one reduction, so a memoized piece
            # holds no table of monomials
            terms = _reduce(terms, self._monic, self._packing, {})
        return {index[k]: c for k, c in terms.items()}

    def image_columns(
        self, source: GradedPiece, hom: RingHom, memo: Dict[int, Tuple[GradedPiece, Dict]]
    ) -> List[Sparse]:
        """The columns of hom on the monomials m of `source`.  `memo` maps
        degree k to (the target piece, {monomial: column}) of degree k for
        one caller that asks for degrees 0, 1, ... in turn; degrees that
        degree n + 1 cannot read are dropped.  The column of m is that of
        m / x_i, x_i the first variable of m, through the multiplication
        map s -> vector of s * hom(x_i) on the staircase of the lower target
        piece, each s once per call (FGLM's multiplication matrices:
        Faugere, Gianni, Lazard & Mora, J. Symb. Comp. 16, 1993).  m / x_i
        is on the staircase, as a monic lead dividing it would divide m.
        The column reduces what differs from hom(m) by an ideal element, so
        it agrees with the vector of hom(m) modulo the relation columns."""
        n, grades, gens = source.degree, source.table.degrees, hom._images
        built: Dict[Monomial, Sparse] = {}
        memo[n] = (self, built)
        maps: Dict[int, Tuple[Dict[int, int], List[int], Dict[int, Sparse], Dict]] = {}
        for m in source.monomials:
            if not n:
                built[m] = self._vector({0: 1})
                continue
            i = m.index(next(filter(None, m)))  # the first non-zero exponent's slot
            if i not in maps:
                lower, columns = memo[n - grades[i]]
                keys = lower._packed_index if lower._packing is self._packing else map(
                    self._packing.pack, lower.monomials)
                maps[i] = (self._packing.terms(gens[i]), list(keys), {}, columns)
            factor, keys, products, columns = maps[i]
            column: Sparse = {}
            for s, c in columns[m[:i] + (m[i] - 1,) + m[i + 1 :]].items():
                if s not in products:
                    products[s] = self._vector({keys[s] + k: x for k, x in factor.items()})
                if column or c != 1:
                    _add_multiple(column, products[s], c)
                else:
                    column = dict(products[s])
            built[m] = column
        for k in [k for k in memo if k <= n - max(grades)]:
            del memo[k]
        return list(built.values())

    def invariants(self) -> Tuple[int, Tuple[int, ...]]:
        """Free rank and torsion of the piece."""
        return quotient_invariants(len(self.monomials), self.relations)


class RingHom:
    """A grade-preserving generator-image map between presentations.

    Construction checks that images are given for the source generators
    only, that every image is homogeneous of the generator's degree and
    that every source relation maps into the target ideal; otherwise the
    map would not be well defined on the quotient.
    """

    def __init__(
        self,
        source: RingPresentation,
        target: RingPresentation,
        images: Mapping[str, Poly],
    ):
        self.source = source
        self.target = target
        self._images: Dict[int, Poly] = {}
        for name in images:
            if name not in source.table.names:
                raise WellDefinednessError(f"image given for {name!r}, not a source generator")
        for i, name in enumerate(source.table.names):
            if name not in images:
                raise WellDefinednessError(f"no image given for generator {name!r}")
            img = images[name]
            if img.table != target.table:
                raise WellDefinednessError(f"image of {name!r} is over the wrong table")
            deg = source.table.degrees[i]
            if not img.is_homogeneous_of_grade(deg):
                raise GradeMismatch(
                    f"image of {name!r} must be homogeneous of grade {deg}"
                )
            self._images[i] = img
        for rel in source.relations:
            if not target.contains(self._raw_apply(rel)):
                raise WellDefinednessError(
                    f"relation {rel.render()} does not map into the target ideal"
                )

    def _raw_apply(self, p: Poly) -> Poly:
        """Image of p before any normal form."""
        return _map_terms(p, self.target.table, self._images)

    def apply(self, p: Poly) -> Poly:
        """Image of p, normal-formed in the target presentation."""
        if p.table != self.source.table:
            raise PolyError("polynomial is not over the source table")
        return self.target.normal_form(self._raw_apply(p))


@dataclass
class DegreeCheck:
    degree: int
    passed: bool
    corner_invariants: Tuple[int, Tuple[int, ...]]
    fiber_invariants: Tuple[int, Tuple[int, ...]]
    surjective: bool

    def describe(self) -> str:
        a_free, a_tors = self.corner_invariants
        f_free, f_tors = self.fiber_invariants
        verdict = "ok" if self.passed else "FAIL"
        return (
            f"deg {self.degree}: {verdict} corner=(free {a_free}, torsion {list(a_tors)})"
            f" fiber=(free {f_free}, torsion {list(f_tors)}) surjective={self.surjective}"
        )


@dataclass
class CartesianReport:
    checks: List[DegreeCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Optional[int]:
        for c in self.checks:
            if not c.passed:
                return c.degree
        return None


class CartesianSquareSpec:
    """A commuting square of presentations

        A --ab--> B
        |         |
        ac        bd
        |         |
        v         v
        C --cd--> D

    with commutativity checked on generators modulo D's relations.
    """

    def __init__(
        self,
        a: RingPresentation,
        b: RingPresentation,
        c: RingPresentation,
        d: RingPresentation,
        ab: RingHom,
        ac: RingHom,
        bd: RingHom,
        cd: RingHom,
    ):
        self.a, self.b, self.c, self.d = a, b, c, d
        self.ab, self.ac, self.bd, self.cd = ab, ac, bd, cd
        for name in a.table.names:
            gen = Poly.var(a.table, name)
            left = bd.apply(ab.apply(gen))
            right = cd.apply(ac.apply(gen))
            if left != right:
                raise WellDefinednessError(
                    f"square does not commute on generator {name!r}"
                )


def verify_cartesian(square: CartesianSquareSpec, degree_bound: int) -> CartesianReport:
    """Check degree by degree that A maps isomorphically onto the fiber
    product of B and C over D.

    In degree n the fiber product is the kernel of the difference map
    B_n + C_n -> D_n, so the square is cartesian there iff
    0 -> A_n -> B_n + C_n -> D_n is exact: A_n -> B_n + C_n is injective
    and its image is the whole kernel.  Three echelon forms decide both on
    integer lattices, with no Smith form.  On a pass A_n is isomorphic
    to the fiber product, so the fiber invariants are the corner's; only a
    failing degree computes them.  The verdict equals "equal invariants and
    surjective onto the fiber product": a surjection between isomorphic
    finitely generated abelian groups is injective (they are Hopfian).
    Each of bd, cd, ab and ac has its own image memo, for this call only.
    """
    memo: Tuple[Dict[int, Tuple[GradedPiece, Dict]], ...] = ({}, {}, {}, {})
    return CartesianReport([_check_degree(square, n, memo) for n in range(degree_bound + 1)])


def _check_degree(square: CartesianSquareSpec, n: int, memo: Tuple[dict, ...]) -> DegreeCheck:
    pa, pb, pc, pd = (ring.piece(n) for ring in (square.a, square.b, square.c, square.d))
    mon_a, mon_b = len(pa.monomials), len(pb.monomials)
    dim = mon_b + len(pc.monomials)

    def shifted(col: Sparse) -> Sparse:
        """A column of C_n as a column of B_n + C_n."""
        return {k + mon_b: x for k, x in col.items()}

    # F_n, the lattice over the fiber product: the relations among the rows
    # [difference map; relations of D_n], cut to B_n + C_n's coordinates.
    # `vector` reduces what it is given, so the images skip the normal form.
    cols_bd = pd.image_columns(pb, square.bd, memo[0])
    cols_cd = pd.image_columns(pc, square.cd, memo[1])
    diff = cols_bd + [{k: -x for k, x in col.items()} for col in cols_cd]
    _, relations_d = echelon(diff + pd.relations)
    fiber = [{k: x for k, x in rel.items() if k < dim} for rel in relations_d]

    # One echelon form of the rows [images of A's monomials; relations of
    # B_n + C_n]: its pivots span the image, and the relations among its
    # rows, cut to A's coordinates, span the kernel of Z^N_A -> B_n + C_n.
    relations = pb.relations + [shifted(col) for col in pc.relations]
    images = [
        {**ab_col, **shifted(ac_col)}
        for ab_col, ac_col in zip(
            pb.image_columns(pa, square.ab, memo[2]),
            pc.image_columns(pa, square.ac, memo[3]),
        )
    ]
    span, relations_a = echelon(images + relations)
    surjective = all(coordinates(span, f) is not None for f in fiber)
    corner_span, _ = echelon(pa.relations)
    injective = all(
        coordinates(corner_span, {k: x for k, x in rel.items() if k < mon_a}) is not None
        for rel in relations_a
    )

    factors = _echelon_factors(corner_span)  # the corner's Smith form
    corner = mon_a - len(factors), tuple(f for f in factors if f != 1)
    if injective and surjective:
        return DegreeCheck(n, True, corner, corner, True)
    # The fiber product is F_n modulo the relations of B_n + C_n, read in a
    # basis of F_n.
    basis, _ = echelon(fiber)
    sub = [coordinates(basis, col) for col in relations]
    if None in sub:
        raise PolyError("a column escapes the fiber lattice")
    return DegreeCheck(n, False, corner, quotient_invariants(len(basis), sub), surjective)


def is_nonzerodivisor(pres: RingPresentation, f: Poly) -> bool:
    """True iff multiplication by f is injective on the ring, in every degree.

    f is a non-zero-divisor modulo I iff (I : f) = I.  Z[vars] is a domain,
    so I ∩ (f) = f*(I : f): the generators of I ∩ (f) divided by f generate
    (I : f), which contains I, so it is I iff every quotient lies in I.
    """
    if f.homogeneous_grade() is None:
        raise GradeMismatch("non-zero-divisor test needs a homogeneous element")
    if f.is_zero():
        return False
    return all(
        pres.contains(exact_divide(h, f))
        for h in ideal_intersection(pres.relations, [f])
    )
