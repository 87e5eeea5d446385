"""Strong Groebner bases and ideal arithmetic over the integers.

Over Z a generating set strong enough for unique division must handle
non-invertible leading coefficients, so the completion loop closes under
both S-polynomials (monomial overlaps) and G-polynomials (gcd combinations
of leading coefficients).  Division reduces each coefficient to its
canonical Euclidean remainder in [0, lc), which makes normal forms unique
and membership decidable.

A term is a leading coefficient times a leading monomial, T_i = c_i*m_i,
and lcm(T_i, T_j) = lcm(c_i, c_j)*lcm(m_i, m_j).  A basis g_1..g_s is
strong iff, for every pair (i, j), the S-polynomial S(i, j) has a
representation sum h_k*g_k whose products all lead below lcm(m_i, m_j),
and some T_k divides gcd(c_i, c_j)*lcm(m_i, m_j) (Adams & Loustaunau,
*An Introduction to Groebner Bases*, ch. 4: over a PID the S-syzygies
generate the syzygies of the terms, and the gcd terms make the leading
terms strong).  Completion skips three kinds of polynomials that would add
nothing, after Buchberger's criteria in the form of Gebauer & Moeller, *On
an installation of Buchberger's algorithm* (J. Symb. Comp. 6, 1988):

- product criterion: if m_i, m_j are coprime and c_i, c_j are coprime,
  then with tails g' = g - T, S(i, j) = g_i'*g_j - g_j'*g_i, whose
  products lead below m_i*m_j.  Over Z both conditions are needed.
- chain criterion: if some T_k divides T = lcm(T_i, T_j), then with
  T_ik = lcm(T_i, T_k), S(i, j) = (T/T_ik)*S(i, k) - (T/T_jk)*S(j, k), so
  S(i, j) inherits the representations of S(i, k) and S(j, k) once both
  pairs are treated.  A pair skipped this way relies only on pairs treated
  before it, so the induction over treatment time is well founded.
- G-polynomials: the G-polynomial of (i, j) leads with
  gcd(c_i, c_j)*lcm(m_i, m_j); it is needed only when no T_k divides that
  term.  Basis elements are never dropped, so a divisor found once stays.

Completion, `_minimize`, `normal_form` and the reduction that
`presentation.GradedPiece.vector` borrows run on packed monomials, after
Monagan & Pearce (J. Symbolic Comput. 46, 2011): one integer per monomial
on `poly._Packing`, each exponent in a field with a guard bit above it.
The integer is the order's key, a linear form in the exponents (see
`MonomialOrder`), so the leading term is `max(terms)`, a product is one
addition, a lead L divides M iff the fields of M - L set no guard bit, and
an lcm is the fieldwise maximum.  No comparison may read an overflowed
field, and one rule sees to it: no reduction raises a term's grade.
Under grevlex that holds for any generators.  Lex and elim take only
generators that are all homogeneous, either all with the order's first
variable at its degree, or all with it at degree 0; in the second case
the first variable's exponent never grows either, since both orders lead
with its largest exponent, so the full grade does not grow.  Fields that
hold the inputs' top grade and each popped pair's lcm grade therefore
hold every exponent; a pair whose lcm grade passes them first moves the
basis to wider fields.

Pairs are kept as (lcm grade, j, i) and the lcm is formed when the pair is
popped, so moving to wider fields touches only the basis and the divisor
memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .poly import Poly, PolyError, TableMismatch, VarTable, _Packing


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-founded total order on monomials.

    kind: "grevlex" (graded by the table's variable degrees, reverse-lex
    tie-break), "lex", or "elim" (the exponent of the first variable, then
    grevlex: an elimination order for that variable).  `priority` lists
    variable names from highest to lowest; it must cover the table exactly.

    Each kind is a linear form in the exponents, which `poly._Packing`
    stores as one integer per monomial, bigger meaning bigger:

    - grevlex: the grade on top, then the exponents negated, the
      lowest-priority variable most significant;
    - lex: the exponents, the highest-priority variable most significant;
    - elim: the first variable's exponent above the grevlex key.

    Under grevlex, and under lex and elim on the generators they take, no
    reduction raises a grade, so fields sized to the largest grade in play
    hold every exponent (module docstring).
    """

    kind: str
    priority: Tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "elim"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    @staticmethod
    def grevlex(table: VarTable) -> "MonomialOrder":
        """Default order: grevlex with the table reversed, so relation
        leading terms land on the latest-declared ("new") variables."""
        return MonomialOrder("grevlex", tuple(reversed(table.names)))

    @staticmethod
    def lex(priority: Sequence[str]) -> "MonomialOrder":
        return MonomialOrder("lex", tuple(priority))


Terms = Dict[int, int]
"""Packed monomial -> non-zero coefficient."""

Lead = Tuple[int, int, Terms, int]
"""A polynomial on a packing as (leading monomial, leading coefficient,
the other terms, the fields of the leading monomial), negated where needed
so that the leading coefficient is positive."""


def _lead(terms: Terms, packing: _Packing) -> Lead:
    key = max(terms)
    coeff = terms[key]
    sign = 1 if coeff > 0 else -1
    tail = {k: sign * c for k, c in terms.items() if k != key}
    return key, sign * coeff, tail, packing.sign * key & packing.low


def _check_fields_rule(polys: Sequence[Poly], order: MonomialOrder) -> None:
    """Refuse generators of lex or elim that are not all homogeneous, with
    the order's first variable either at its degree in all or at 0 in all
    (module docstring): on others a reduction could overflow a field."""
    if order.kind == "grevlex":
        return
    table = polys[0].table
    first = table.index(order.priority[0])
    for drop in (0, table.degrees[first]):
        if all(len({table.grade(m) - drop * m[first] for m in g.terms}) == 1 for g in polys):
            return
    raise PolyError(
        f"{order.kind} takes only generators that are all homogeneous, with"
        f" {order.priority[0]} at its degree in all or at degree 0 in all"
    )


def _combination(f: Lead, a: int, g: Lead, b: int, m: int, packing: _Packing) -> Terms:
    """a*(m/LM f)*f + b*(m/LM g)*g for the packed monomial m = lcm(LM f, LM g)."""
    c = a * f[1] + b * g[1]
    terms = {m: c} if c else {}
    for (lm, _, tail, _), coef in ((f, a), (g, b)):
        shift = m - lm
        for mono, coeff in tail.items():
            k = shift + mono
            val = terms.get(k, 0) + coef * coeff
            if val:
                terms[k] = val
            elif k in terms:  # a Bezout coefficient may be 0
                del terms[k]
    return terms


def spolynomial(f: Lead, g: Lead, m: int, packing: _Packing) -> Terms:
    """Cancel the leading terms using lcm of coefficients and monomials."""
    c = lcm(f[1], g[1])
    return _combination(f, c // f[1], g, -(c // g[1]), m, packing)


def gpolynomial(f: Lead, g: Lead, m: int, packing: _Packing) -> Terms:
    """Combine the leading terms into gcd(lc f, lc g) times the lcm monomial."""
    s, t = _bezout(f[1], g[1])
    return _combination(f, s, g, t, m, packing)


def _bezout(a: int, b: int) -> Tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _reduce(
    work: Terms, leads: Sequence[Lead], packing: _Packing, divisors: Dict[int, Tuple[int, int]]
) -> Terms:
    """Full division remainder of the packed terms `work`, which it
    consumes: every coefficient of the result is the canonical Euclidean
    remainder modulo the applicable leading coefficients.  Each term is
    divided by the dividing lead of smallest coefficient, the first one on
    a tie.  `divisors` memoizes {monomial: (leads scanned, index of the
    best lead or -1)} for callers that only ever append to `leads`, so a
    later call scans only the leads added since."""
    out: Terms = {}
    n = len(leads)
    sign, guards = packing.sign, packing.guards
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        seen, best = divisors.get(mono, (0, -1))
        if seen < n:
            best_c = leads[best][1] if best >= 0 else 0
            probe = sign * mono
            for idx in range(seen, n):
                lead = leads[idx]
                # lead divides mono iff no field of mono / lead goes negative
                if (best < 0 or lead[1] < best_c) and not (probe - lead[3]) & guards:
                    best, best_c = idx, lead[1]
            divisors[mono] = (n, best)
        if best < 0:
            out[mono] = coeff
            continue
        gm, gc, tail, _ = leads[best]
        q, r = divmod(coeff, gc)
        if q:
            shift = mono - gm
            for m2, c2 in tail.items():
                k = shift + m2
                val = work.get(k, 0) - q * c2
                if val:
                    work[k] = val
                elif k in work:
                    del work[k]
        if r:
            out[mono] = r
    return out


@dataclass(frozen=True)
class IdealBasis:
    """A generating set with its order; `is_strong_groebner` marks bases on
    which division yields unique remainders."""

    polys: Tuple[Poly, ...]
    order: MonomialOrder
    is_strong_groebner: bool = False

    @property
    def table(self) -> VarTable:
        return self.polys[0].table

    def _division(self, bound: int) -> Tuple[_Packing, Tuple[Lead, ...]]:
        """A packing whose fields hold exponents up to `bound` and the
        positive leads of `polys` on it.  The widest one built so far stays
        on the basis."""
        packed = self.__dict__.get("_packed")
        if packed is None or packed[0].capacity < bound:
            top = max(max(map(self.table.grade, g.terms)) for g in self.polys)
            packing = _Packing(self.table, max(bound, top), self.order)
            _check_fields_rule(self.polys, self.order)
            leads = tuple(_lead(packing.terms(g), packing) for g in self.polys)
            packed = self._keep(packing, leads)
        return packed

    def _keep(self, packing: _Packing, leads: Tuple[Lead, ...]):
        """Make (packing, leads) the basis's division data."""
        packed = (packing, leads)
        object.__setattr__(self, "_packed", packed)
        return packed


def strong_groebner(gens: Sequence[Poly], order: MonomialOrder) -> IdealBasis:
    """Complete `gens` to a strong Groebner basis over Z.

    Pairs are taken in order of the grade of the lcm of their leading
    monomials (Buchberger's normal strategy), oldest first on a tie.  A
    popped pair (i, j) skips its S-polynomial by the product criterion
    (coprime leading monomials and coprime leading coefficients) or by the
    chain criterion (some other element's term divides lcm(T_i, T_j), and
    neither (i, k) nor (j, k) is still pending), and skips its G-polynomial
    when some element's term divides gcd(c_i, c_j)*lcm(m_i, m_j); the
    module docstring has the proofs.  Every element stays a reducer.  The
    result is the reduced basis sorted by leading term, so it depends only
    on the ideal and the order, not on the order of `gens`.  The empty
    input yields the zero ideal (an empty basis).

    The work runs on packed monomials.  Under lex or elim, generators that
    break the module docstring's rule for the fields (all homogeneous, with
    the first variable at its degree in all or at 0 in all) raise
    PolyError.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return IdealBasis((), order, True)
    table = polys[0].table
    for g in polys:
        if g.table != table:
            raise TableMismatch("generators use different variable tables")
    top = max(max(map(table.grade, g.terms)) for g in polys)
    packing = _Packing(table, 2 * top, order)
    _check_fields_rule(polys, order)

    basis: List[Lead] = []
    for g in polys:
        lead = _lead(packing.terms(g), packing)
        if all(lead[:3] != b[:3] for b in basis):
            basis.append(lead)

    divisors: Dict[int, Tuple[int, int]] = {}
    grades: Dict[int, int] = {}  # {lcm fields: grade}, for one packing

    def repack(bound: int):
        """Move the basis onto a packing whose fields hold `bound`."""
        nonlocal packing
        old, packing = packing, _Packing(table, bound, order)
        for idx, (key, coeff, tail, _) in enumerate(basis):
            terms = {packing.pack(old.exponents(old.sign * k)): c for k, c in tail.items()}
            terms[packing.pack(old.exponents(old.sign * key))] = coeff
            basis[idx] = _lead(terms, packing)
        divisors.clear()
        grades.clear()

    def pairs_with(j: int) -> List[Tuple[int, int, int]]:
        """The pairs (i, j) for i < j, as (grade of the lcm, j, i)."""
        guards, spread, b = packing.guards, packing.width - 1, basis[j][3]
        out = []
        for i in range(j):
            a = basis[i][3]
            on = ((a | guards) - b) & guards  # packing.fields_max, inlined
            on -= on >> spread
            fields = (a & on) | (b & ~on)
            grade = grades.get(fields)
            if grade is None:
                grade = grades[fields] = packing.grade(fields)
            out.append((grade, j, i))
        return out

    pairs = [item for j in range(len(basis)) for item in pairs_with(j)]
    heapify(pairs)
    # partners[i]: the k whose pair with i is still pending
    partners = [set(range(len(basis))) - {i} for i in range(len(basis))]

    def extend(terms: Terms):
        rem = _reduce(terms, basis, packing, divisors)
        if not rem:
            return
        basis.append(_lead(rem, packing))
        new = len(basis) - 1
        partners.append(set(range(new)))
        for item in pairs_with(new):
            heappush(pairs, item)
        for k in range(new):
            partners[k].add(new)

    while pairs:
        lcm_grade, j, i = heappop(pairs)
        if lcm_grade > packing.capacity:
            # every term the pair makes has at most this grade
            repack(2 * lcm_grade)
        f, g = basis[i], basis[j]
        fc, gc = f[1], g[1]
        waiting_i, waiting_j = partners[i], partners[j]
        waiting_i.discard(j)
        waiting_j.discard(i)
        d = gcd(fc, gc)
        guards, half = packing.guards, packing.half
        fields = packing.fields_max(f[3], g[3])
        # else the product criterion: coprime monomials and coefficients
        if d > 1 or (f[3] + half) & (g[3] + half) & guards:
            lc = fc // d * gc
            for k, (_, kc, _, km) in enumerate(basis):
                if (
                    lc % kc == 0
                    and k != i
                    and k != j
                    and k not in waiting_i
                    and k not in waiting_j
                    and not (fields - km) & guards
                ):
                    break  # the chain criterion
            else:
                extend(spolynomial(f, g, packing.key(fields), packing))
        # f or g itself divides the G-polynomial's lead when fc | gc or gc | fc
        if (
            fc % gc
            and gc % fc
            and not any(d % kc == 0 and not (fields - km) & guards for _, kc, _, km in basis)
        ):
            extend(gpolynomial(f, g, packing.key(fields), packing))

    reduced = _minimize(basis, packing)
    reduced.sort(key=lambda lead: (lead[0], lead[1]))
    result = IdealBasis(
        tuple(packing.poly({**lead[2], lead[0]: lead[1]}) for lead in reduced), order, True
    )
    result._keep(packing, tuple(reduced))
    return result


def _minimize(basis: List[Lead], packing: _Packing) -> List[Lead]:
    """Drop generators whose leading term is a term-multiple of another's,
    then reduce each tail; both steps preserve strongness and the ideal.
    A tail whose terms are all canonical remainders modulo the other leads
    is kept as it is, since `_reduce` would return it unchanged."""
    guards = packing.guards
    kept: List[Lead] = []
    for idx, lead in enumerate(basis):
        gm, gc, _, gf = lead
        redundant = False
        for jdx, (hm, hc, _, hf) in enumerate(basis):
            if jdx == idx:
                continue
            if gc % hc == 0 and not (gf - hf) & guards:
                if (hm, hc) == (gm, gc) and jdx > idx:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(lead)
    reduced = []
    for idx, lead in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        if all(_is_remainder(mono, coeff, others, packing) for mono, coeff in lead[2].items()):
            reduced.append(lead)
            continue
        tail = _reduce(dict(lead[2]), others, packing, {})
        tail[lead[0]] = lead[1]
        reduced.append(_lead(tail, packing))
    return reduced


def _is_remainder(mono: int, coeff: int, leads: Sequence[Lead], packing: _Packing) -> bool:
    """True iff `_reduce` keeps the term coeff*mono as it is: no lead
    divides mono, or 0 <= coeff < the smallest dividing lead's coefficient."""
    probe, guards = packing.sign * mono, packing.guards
    dividing = (lc for _, lc, _, lf in leads if not (probe - lf) & guards)
    if coeff < 0:
        return next(dividing, None) is None
    return all(coeff < lc for lc in dividing)


def normal_form(p: Poly, basis: IdealBasis) -> Poly:
    """Unique remainder of p modulo a strong Groebner basis.

    Idempotent; zero iff p lies in the ideal.
    """
    if not basis.is_strong_groebner:
        raise PolyError("normal_form requires a strong Groebner basis")
    if p.is_zero() or not basis.polys:
        return p
    if p.table != basis.table:
        raise TableMismatch("polynomial and basis use different tables")
    packing, leads = basis._division(max(map(p.table.grade, p.terms)))
    return packing.poly(_reduce(packing.terms(p), leads, packing, {}))


def ideal_contains(
    p: Poly, gens: Sequence[Poly], order: Optional[MonomialOrder] = None
) -> bool:
    """True iff p lies in the ideal generated by gens over Z."""
    if p.is_zero():
        return True
    if order is None:
        order = MonomialOrder.grevlex(p.table)
    basis = strong_groebner(gens, order)
    return normal_form(p, basis).is_zero()


def ideal_equal(
    gens_a: Sequence[Poly],
    gens_b: Union[Sequence[Poly], IdealBasis],
    order: Optional[MonomialOrder] = None,
) -> bool:
    """Decide whether the two generating sets span the same ideal.

    Complete `gens_b` first, unless it is a strong basis already (then an
    `order` other than its own raises PolyError).  A generator of a
    outside I_b decides False (an element of b's reduced basis is taken
    with no normal form), and a's generators holding the whole reduced
    basis of b decide True.
    Otherwise compare the reduced strong bases, which are unique for the
    ideal and the order.  Both bases have the minimal terms of the
    leading-term ideal as their leading terms.  Two elements with the same
    leading term differ by an ideal element all of whose terms are
    canonical remainders, and a nonzero ideal element has a leading term
    that some basis term divides, which a canonical remainder forbids; so
    the difference is 0.  Raises TableMismatch unless both sets use one
    table.
    """
    basis_b = gens_b if isinstance(gens_b, IdealBasis) else None
    if basis_b is not None:
        if order not in (None, basis_b.order):
            raise PolyError("the order differs from the basis's order")
        gens_b, order = basis_b.polys, basis_b.order
    live_a = [g for g in gens_a if not g.is_zero()]
    live = live_a + [g for g in gens_b if not g.is_zero()]
    if not live:
        return True
    table = live[0].table
    if any(g.table != table for g in live):
        raise TableMismatch("the generating sets use different variable tables")
    if order is None:
        order = MonomialOrder.grevlex(table)
    if basis_b is None:
        basis_b = strong_groebner(gens_b, order)
    reduced_b = set(basis_b.polys)
    if any(g not in reduced_b and not normal_form(g, basis_b).is_zero() for g in live_a):
        return False
    if reduced_b <= set(live_a):
        return True
    return strong_groebner(gens_a, order).polys == basis_b.polys


def ideal_intersection(gens_a: Sequence[Poly], gens_b: Sequence[Poly]) -> Tuple[Poly, ...]:
    """Generators of the intersection I ∩ J of the ideals gens_a, gens_b.

    For a new variable t, I ∩ J = (t*I + (1 - t)*J) ∩ Z[vars]: set t = 1,
    then t = 0; and h = t*h + (1 - t)*h.  Under an order that puts t first,
    the t-free elements of a strong basis form a strong basis of the t-free
    part (Adams & Loustaunau, ch. 4).  Grevlex on the other variables keeps
    the coefficients far smaller than lex does over Z.  Both generating sets
    must be homogeneous, or PolyError is raised: that makes the generators
    above homogeneous with t at degree 0, which the elimination order takes
    (module docstring).
    """
    a = [g for g in gens_a if g]
    b = [g for g in gens_b if g]
    if any(g.homogeneous_grade() is None for g in a + b):
        raise PolyError("ideal_intersection needs homogeneous generators")
    if not a or not b:
        return ()
    table = a[0].table
    t = "t" + "_" * max(map(len, table.names))  # longer than every name
    wide = VarTable([(t, 1), *zip(table.names, table.degrees)])
    t_poly = Poly.var(wide, t)
    gens = [t_poly * g.change_table(wide) for g in a]
    gens += [(1 - t_poly) * g.change_table(wide) for g in b]
    basis = strong_groebner(gens, MonomialOrder("elim", (t, *reversed(table.names))))
    return tuple(g.change_table(table) for g in basis.polys if not any(m[0] for m in g.terms))
