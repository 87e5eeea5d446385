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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, mul, neg, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .poly import Monomial, Poly, PolyError, TableMismatch, VarTable


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-founded total order on monomials.

    kind: "grevlex" (graded by the table's variable degrees, reverse-lex
    tie-break), "lex", or "elim" (the exponent of the first variable, then
    grevlex: an elimination order for that variable).  `priority` lists
    variable names from highest to lowest; it must cover the table exactly.
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

    def key(self, table: VarTable):
        """A sort key: bigger key means bigger monomial."""
        if set(self.priority) != set(table.names):
            raise PolyError("order priority does not cover the table")
        perm = tuple(table.index(n) for n in self.priority)
        if self.kind == "lex":
            return lambda mono: tuple(map(mono.__getitem__, perm))
        degs = table.degrees
        rev = perm[::-1]

        def grevlex_key(mono: Monomial):
            return (sum(map(mul, mono, degs)), tuple(map(neg, map(mono.__getitem__, rev))))

        if self.kind == "elim":
            first = perm[0]
            return lambda mono: (mono[first], grevlex_key(mono))
        return grevlex_key


Lead = Tuple[Monomial, int, Poly]
"""A basis element with its leading monomial and leading coefficient,
negated where needed so that the coefficient is positive."""


def _lead(p: Poly, key: Callable[[Monomial], tuple]) -> Lead:
    if p.is_zero():
        raise PolyError("zero polynomial has no leading term")
    mono = max(p.terms, key=key)
    coeff = p.terms[mono]
    return (mono, coeff, p) if coeff > 0 else (mono, -coeff, -p)


class _KeyCache(dict):
    """Order keys of the monomials met during one call, computed once each."""

    def __init__(self, key: Callable[[Monomial], tuple]):
        super().__init__()
        self.key = key

    def __missing__(self, mono: Monomial) -> tuple:
        value = self[mono] = self.key(mono)
        return value


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


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

    @cached_property
    def _division(self) -> Tuple[Callable[[Monomial], tuple], Tuple[Lead, ...]]:
        """The order key and the positive leads, computed once per basis."""
        key = self.order.key(self.table)
        return key, tuple(_lead(g, key) for g in self.polys)


def _combination(f: Lead, a: int, g: Lead, b: int) -> Poly:
    """a*(m/LM f)*f + b*(m/LM g)*g for m = lcm(LM f, LM g)."""
    m = _mono_lcm(f[0], g[0])
    terms: Dict[Monomial, int] = {}
    for (lm, _, p), c in ((f, a), (g, b)):
        shift = _mono_sub(m, lm)
        for mono, coeff in p.terms.items():
            k = tuple(map(add, mono, shift))
            val = terms.get(k, 0) + c * coeff
            if val:
                terms[k] = val
            elif k in terms:  # a Bezout coefficient c may be 0
                del terms[k]
    return Poly._canonical(f[2].table, terms)


def spolynomial(f: Lead, g: Lead) -> Poly:
    """Cancel the leading terms using lcm of coefficients and monomials."""
    c = lcm(f[1], g[1])
    return _combination(f, c // f[1], g, -(c // g[1]))


def gpolynomial(f: Lead, g: Lead) -> Poly:
    """Combine the leading terms into gcd(lc f, lc g) times the lcm monomial."""
    s, t = _bezout(f[1], g[1])
    return _combination(f, s, g, t)


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


def _reduce(p: Poly, leads: Sequence[Lead], key: Callable[[Monomial], tuple]) -> Poly:
    """Full division remainder: every coefficient of the result is the
    canonical Euclidean remainder modulo the applicable leading coefficients.
    Each term is divided by the dividing lead of smallest coefficient, the
    first one on a tie."""
    if not leads:
        return p
    return Poly._canonical(p.table, _reduce_terms(dict(p.terms), leads, key, {}))


def _reduce_terms(
    work: Dict[Monomial, int],
    leads: Sequence[Lead],
    key: Callable[[Monomial], tuple],
    divisors: Dict[Monomial, Tuple[int, int]],
) -> Dict[Monomial, int]:
    """The remainder terms of `_reduce`, consuming `work`.  `divisors`
    memoizes {monomial: (leads scanned, index of the best lead or -1)} for
    callers that only ever append to `leads`, so a later call scans only
    the leads added since."""
    out: Dict[Monomial, int] = {}
    n = len(leads)
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        seen, best = divisors.get(mono, (0, -1))
        if seen < n:
            best_c = leads[best][1] if best >= 0 else 0
            for idx in range(seen, n):
                lm, lc, _ = leads[idx]
                if (best < 0 or lc < best_c) and all(map(le, lm, mono)):
                    best, best_c = idx, lc
            divisors[mono] = (n, best)
        if best < 0:
            out[mono] = coeff
            continue
        gm, gc, g = leads[best]
        q, r = divmod(coeff, gc)
        if q:
            shift = _mono_sub(mono, gm)
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
    return out


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
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        return IdealBasis((), order, True)
    table = polys[0].table
    for g in polys:
        if g.table != table:
            raise TableMismatch("generators use different variable tables")
    key = _KeyCache(order.key(table)).__getitem__

    basis: List[Lead] = []
    for g in polys:
        lead = _lead(g, key)
        if all(lead[2] != b[2] for b in basis):
            basis.append(lead)

    degs = table.degrees
    divisors: Dict[Monomial, Tuple[int, int]] = {}

    def pair(i: int, j: int) -> Tuple[int, int, int, Monomial]:
        m = _mono_lcm(basis[i][0], basis[j][0])
        return sum(map(mul, m, degs)), j, i, m

    pairs = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    # partners[i]: the k whose pair with i is still pending
    partners = [set(range(len(basis))) - {i} for i in range(len(basis))]

    def extend(p: Poly):
        rem = _reduce_terms(dict(p.terms), basis, key, divisors)
        if not rem:
            return
        basis.append(_lead(Poly._canonical(table, rem), key))
        new = len(basis) - 1
        partners.append(set(range(new)))
        for k in range(new):
            heappush(pairs, pair(k, new))
            partners[k].add(new)

    while pairs:
        _, j, i, m = heappop(pairs)
        (fm, fc, _), (gm, gc, _) = f, g = basis[i], basis[j]
        waiting_i, waiting_j = partners[i], partners[j]
        waiting_i.remove(j)
        waiting_j.remove(i)
        d = gcd(fc, gc)
        if d > 1 or any(map(min, fm, gm)):  # else the product criterion
            lc = fc // d * gc
            for k, (km, kc, _) in enumerate(basis):
                if (
                    lc % kc == 0
                    and k != i
                    and k != j
                    and k not in waiting_i
                    and k not in waiting_j
                    and all(map(le, km, m))
                ):
                    break  # the chain criterion
            else:
                extend(spolynomial(f, g))
        # f or g itself divides the G-polynomial's lead when fc | gc or gc | fc
        if (
            fc % gc
            and gc % fc
            and not any(d % kc == 0 and all(map(le, km, m)) for km, kc, _ in basis)
        ):
            extend(gpolynomial(f, g))

    reduced = _minimize(basis, key)
    reduced.sort(key=lambda lead: (key(lead[0]), lead[1]))
    return IdealBasis(tuple(p for _, _, p in reduced), order, True)


def _minimize(basis: List[Lead], key: Callable[[Monomial], tuple]) -> List[Lead]:
    """Drop generators whose leading term is a term-multiple of another's,
    then reduce each tail; both steps preserve strongness and the ideal.
    A tail whose terms are all canonical remainders modulo the other leads
    is kept as it is, since `_reduce` would return it unchanged."""
    kept: List[Lead] = []
    for idx, (gm, gc, g) in enumerate(basis):
        redundant = False
        for jdx, (hm, hc, _) in enumerate(basis):
            if jdx == idx:
                continue
            if gc % hc == 0 and _mono_divides(hm, gm):
                if (hm, hc) == (gm, gc) and jdx > idx:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append((gm, gc, g))
    reduced = []
    for idx, (gm, gc, g) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        if all(
            _is_remainder(mono, coeff, others)
            for mono, coeff in g.terms.items()
            if mono != gm
        ):
            reduced.append((gm, gc, g))
            continue
        tail = _reduce(g - Poly(g.table, {gm: gc}), others, key)
        reduced.append((gm, gc, Poly(g.table, {**tail.terms, gm: gc})))
    return reduced


def _is_remainder(mono: Monomial, coeff: int, leads: Sequence[Lead]) -> bool:
    """True iff `_reduce` keeps the term coeff*mono as it is: no lead
    divides mono, or 0 <= coeff < the smallest dividing lead's coefficient."""
    if coeff < 0:
        return not any(_mono_divides(lm, mono) for lm, _, _ in leads)
    return all(coeff < lc for lm, lc, _ in leads if _mono_divides(lm, mono))


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
    key, leads = basis._division
    return _reduce(p, leads, _KeyCache(key).__getitem__)


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
    outside I_b decides False, and a's generators holding the whole
    reduced basis of b decide True.
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
    if any(not normal_form(g, basis_b).is_zero() for g in live_a):
        return False
    if set(basis_b.polys) <= set(live_a):
        return True
    return strong_groebner(gens_a, order).polys == basis_b.polys


def ideal_intersection(gens_a: Sequence[Poly], gens_b: Sequence[Poly]) -> Tuple[Poly, ...]:
    """Generators of the intersection I ∩ J of the ideals gens_a, gens_b.

    For a new variable t, I ∩ J = (t*I + (1 - t)*J) ∩ Z[vars]: set t = 1,
    then t = 0; and h = t*h + (1 - t)*h.  Under an order that puts t first,
    the t-free elements of a strong basis form a strong basis of the t-free
    part (Adams & Loustaunau, ch. 4).  Grevlex on the other variables keeps
    the coefficients far smaller than lex does over Z.
    """
    a = [g for g in gens_a if g]
    b = [g for g in gens_b if g]
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
