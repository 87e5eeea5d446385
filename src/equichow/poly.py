"""Exact sparse multivariate polynomial arithmetic over the integers.

Polynomials live over a fixed table of graded variables.  Coefficients are
arbitrary-precision Python ints; monomials are dense exponent tuples, one
slot per table variable.  Every operation returns a canonical value: zero
coefficients are never stored, so two polynomials are equal iff their term
mappings are equal.  Exact division, the fixed-point sums and strong
Groebner completion pack each monomial into one int (`_Packing`) under an
exponent bound of the call; under a monomial order the int is its key.

Rendering follows one fixed convention (terms sorted by total grade, then
lexicographically over the table order, both descending) so that rendered
strings are usable as golden values and round-trip through the parser.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import add, and_, mul, rshift
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

Monomial = Tuple[int, ...]


class PolyError(Exception):
    """Base class for rejected polynomial inputs."""


class TableMismatch(PolyError):
    """Operands do not share a variable table."""


class GradeMismatch(PolyError):
    """A substitution image is not homogeneous of the required grade."""


class NotDivisible(PolyError):
    """Exact division left a nonzero remainder over the integers."""


class NotSymmetric(PolyError):
    """Input is not invariant under the requested variable swap."""


class VarTable:
    """Immutable ordered table of (variable name, positive degree) pairs."""

    __slots__ = ("names", "degrees", "_pos")

    def __init__(self, entries: Iterable[Tuple[str, int]]):
        names = []
        degrees = []
        for name, deg in entries:
            if not name or not isinstance(name, str):
                raise PolyError(f"bad variable name {name!r}")
            if deg < 1:
                raise PolyError(f"variable {name!r} must have degree >= 1, got {deg}")
            names.append(name)
            degrees.append(int(deg))
        if len(set(names)) != len(names):
            raise PolyError("duplicate variable names in table")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "_pos", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *args):
        raise AttributeError("VarTable is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"VarTable({inner})"

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def grade(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.degrees))

    def monomials_of_grade(self, n: int) -> Tuple[Monomial, ...]:
        """All exponent tuples of total grade exactly n, in a fixed order."""
        return _monomials_of_grade(self, n)


@lru_cache(maxsize=None)
def _monomials_of_grade(table: VarTable, n: int) -> Tuple[Monomial, ...]:
    if n < 0:
        return ()
    out = []

    def rec(i: int, remaining: int, prefix: Tuple[int, ...]):
        if i == len(table):
            if remaining == 0:
                out.append(prefix)
            return
        d = table.degrees[i]
        if i == len(table) - 1:
            if remaining % d == 0:
                out.append(prefix + (remaining // d,))
            return
        for e in range(remaining // d + 1):
            rec(i + 1, remaining - e * d, prefix + (e,))

    rec(0, n, ())
    return tuple(out)


class Poly:
    """A canonical sparse polynomial with integer coefficients.

    Instances are immutable by convention: no method mutates `terms` after
    construction, so values can be shared, hashed and used as dict keys.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, int]):
        clean: Dict[Monomial, int] = {}
        width = len(table)
        for mono, coeff in terms.items():
            if len(mono) != width:
                raise PolyError(f"monomial width {len(mono)} != table width {width}")
            if coeff:
                clean[mono] = int(coeff)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _canonical(table: VarTable, terms: Dict[Monomial, int]) -> "Poly":
        """Wrap terms that are already canonical (monomials of the table's
        width, non-zero int coefficients) without checking them again; the
        ring operations build their results this way."""
        p = object.__new__(Poly)
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Poly":
        return Poly(table, {})

    @staticmethod
    def const(table: VarTable, c: int) -> "Poly":
        return Poly(table, {(0,) * len(table): c})

    @staticmethod
    def var(table: VarTable, name: str, exp: int = 1) -> "Poly":
        mono = [0] * len(table)
        mono[table.index(name)] = exp
        return Poly(table, {tuple(mono): 1})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly.const(self.table, other)
        if isinstance(other, Poly):
            if other.table is not self.table and other.table != self.table:
                raise TableMismatch("operands use different variable tables")
            return other
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            # coeff != 0, so a sum of 0 means mono was already in acc
            val = acc.get(mono, 0) + coeff
            if val:
                acc[mono] = val
            else:
                del acc[mono]
        return Poly._canonical(self.table, acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._canonical(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            if not other:
                return Poly._canonical(self.table, {})
            return Poly._canonical(
                self.table, {m: c * other for m, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: Dict[Monomial, int] = {}
        get = acc.get
        right = tuple(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                mono = tuple(map(add, m1, m2))
                acc[mono] = get(mono, 0) + c1 * c2
        return Poly._canonical(self.table, {m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PolyError("negative power")
        result = Poly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == Poly.const(self.table, other).terms
        return (
            isinstance(other, Poly)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.table, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"

    def __str__(self) -> str:
        return self.render()

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables_used(self) -> Tuple[str, ...]:
        used = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(self.table.names[i])
        return tuple(n for n in self.table.names if n in used)

    def homogeneous_grade(self) -> Optional[int]:
        """The common grade of all terms, or None if inhomogeneous.

        The zero polynomial counts as homogeneous of every grade and
        returns 0.
        """
        grades = {self.table.grade(m) for m in self.terms}
        if not grades:
            return 0
        if len(grades) > 1:
            return None
        return grades.pop()

    def is_homogeneous_of_grade(self, n: int) -> bool:
        return all(self.table.grade(m) == n for m in self.terms)

    # -- substitution and table moves ---------------------------------------

    def substitute(self, assignment: Mapping[str, "Poly"]) -> "Poly":
        """Ring-homomorphic substitution; unassigned variables map to themselves.

        Each image must be homogeneous of the same grade as the variable it
        replaces (zero is allowed), so grading is preserved.
        """
        table = self.table
        images: Dict[int, Poly] = {}
        for name, img in assignment.items():
            idx = table.index(name)
            if not isinstance(img, Poly) or img.table != table:
                raise TableMismatch(f"image of {name!r} is not over the same table")
            if not img.is_homogeneous_of_grade(table.degrees[idx]):
                raise GradeMismatch(
                    f"image of {name!r} is not homogeneous of grade {table.degrees[idx]}"
                )
            images[idx] = img
        if not images:
            return self

        return _map_terms(self, table, images)

    def change_table(
        self, new_table: VarTable, rename: Optional[Mapping[str, str]] = None
    ) -> "Poly":
        """Rebuild the polynomial over another table.

        Every variable actually used must map (via `rename`, default: same
        name) to a variable of `new_table` with the same degree.
        """
        rename = rename or {}
        slots: Dict[int, int] = {}
        for name in self.variables_used():
            j, i = new_table.index(rename.get(name, name)), self.table.index(name)
            if new_table.degrees[j] != self.table.degrees[i]:
                raise GradeMismatch(f"variable {name!r} changes degree under table move")
            slots[i] = j
        # nothing but slot moves; two variables renamed alike multiply
        acc: Dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            moved = [0] * len(new_table)
            for i, e in enumerate(mono):
                if e:
                    moved[slots[i]] += e
            key = tuple(moved)
            acc[key] = acc.get(key, 0) + coeff
        return Poly._canonical(new_table, {m: c for m, c in acc.items() if c})

    # -- rendering -------------------------------------------------------------

    def sorted_terms(self) -> Tuple[Tuple[Monomial, int], ...]:
        """Terms in canonical order (grade, then table-lex, both descending)."""
        return tuple(
            sorted(
                self.terms.items(),
                key=lambda kv: (self.table.grade(kv[0]), kv[0]),
                reverse=True,
            )
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for k, (mono, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for name, e in zip(self.table.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono_txt = "*".join(factors)
            mag = abs(coeff)
            if mono_txt and mag == 1:
                body = mono_txt
            elif mono_txt:
                body = f"{mag}*{mono_txt}"
            else:
                body = str(mag)
            if k == 0:
                chunks.append(("-" if coeff < 0 else "") + body)
            else:
                chunks.append((" - " if coeff < 0 else " + ") + body)
        return "".join(chunks)


def _map_terms(p: Poly, table: VarTable, images: Mapping[int, Poly]) -> Poly:
    """The image over `table` of p under the ring map sending the variable in
    slot i to images[i]; a variable without an image keeps its slot, which
    `table` must share.  It runs on packed terms, on one `_Packing` whose
    fields hold the plain degree of p times that of the widest image.  A
    one-term image moves the exponent to its monomial's slots; the others
    are multiplied out, each power once per call."""
    spread = max((sum(m) for img in images.values() for m in img.terms), default=1)
    packing = _Packing(table, max(map(sum, p.terms), default=0) * max(spread, 1))
    packed = {i: packing.terms(img) for i, img in images.items()}
    powers: Dict[int, List[Dict[int, int]]] = {}
    acc: Dict[int, int] = {}
    for mono, coeff in p.terms.items():
        key, product = 0, {0: 1}
        for i, e in enumerate(mono):
            if not e:
                continue
            terms = packed.get(i)
            if terms is None:
                key += e * packing.units[i]
            elif len(terms) == 1:
                ((k, c),) = terms.items()
                key, coeff = key + e * k, coeff * c**e
            elif not terms:
                break
            else:
                for _ in range(len(powers.setdefault(i, [{0: 1}])), e + 1):
                    powers[i].append(_add_product({}, powers[i][-1], terms))
                product = _add_product({}, product, powers[i][e])
        else:
            _add_product(acc, product, {key: coeff})
    return packing.poly(acc)


# -- packed monomials -----------------------------------------------------------


class _Packing:
    """One integer per monomial of a table: each variable's exponent sits in
    a field of bound.bit_length() bits with a guard bit above them, so a
    field holds exponents up to `capacity` >= bound.  The integer is a
    linear form in the exponents, sum(e_i * units[i]), so a product of
    monomials is one addition, and comparing the integers compares the
    monomials.  With no `order` (a `MonomialOrder`), the integer is X: the
    grade in the top bits, then the fields with slot 0 most significant,
    which orders by grade, then table-lex.  With an order it is the order's
    key, bigger meaning bigger:

    - grevlex: the grade on top, then the fields with the lowest-priority
      variable most significant, negated: key = X - 2*(X & low);
    - lex: the fields alone, the highest-priority variable most significant;
    - elim: the first variable's exponent above the grevlex key, over a
      grade part wide enough for any grade of in-range exponents.

    `sign` is -1 where the fields are negated, so (sign*key) & low reads
    the fields back.  A field that overflows or goes negative, as in the
    quotient by a monomial that does not divide, sets its guard bit."""

    def __init__(self, table: VarTable, bound: int, order=None):
        n, width = len(table), bound.bit_length() + 1
        kind = order.kind if order is not None else None
        if order is None:
            rank = list(range(n))  # rank 0 is the most significant field
        elif set(order.priority) != set(table.names):
            raise PolyError("order priority does not cover the table")
        else:
            by_priority = [table.index(name) for name in order.priority]
            rank = [0] * n
            for r, i in enumerate(by_priority if kind == "lex" else by_priority[::-1]):
                rank[i] = r
        self.table, self.width, self.mask = table, width, (1 << width) - 1
        self.capacity = (1 << width - 1) - 1
        top, self.sign = n * width, -1 if kind in ("grevlex", "elim") else 1
        self.low = (1 << top) - 1
        self.shifts = [(n - 1 - r) * width for r in rank]
        self.guards = sum(1 << s + width - 1 for s in self.shifts)
        # (guards - half) has the lowest bit of each field; adding half to
        # in-range fields sets the guard bit of each non-zero one.
        self.half = self.guards - (self.guards >> width - 1)
        units = [(1 << s) * self.sign for s in self.shifts]
        if kind != "lex":
            units = [u + (d << top) for u, d in zip(units, table.degrees)]
        if kind == "elim":
            # above every grade of in-range exponents
            units[table.index(order.priority[0])] += 1 << top + width + sum(table.degrees).bit_length()
        self.units = units

    def pack(self, mono: Iterable[int]) -> int:
        return sum(map(mul, mono, self.units))

    def exponents(self, fields: int) -> Iterator[int]:
        """The exponents, in table order, of the monomial with these fields;
        the fields of a packed monomial k are (sign*k) & low."""
        return map(and_, map(rshift, repeat(fields), self.shifts), repeat(self.mask))

    def grade(self, fields: int) -> int:
        return sum(map(mul, self.table.degrees, self.exponents(fields)))

    def key(self, fields: int) -> int:
        return self.pack(self.exponents(fields))

    def fields_max(self, a: int, b: int) -> int:
        """The fieldwise maximum of two in-range field values: the fields of
        the lcm of their monomials."""
        guards = self.guards
        on = ((a | guards) - b) & guards  # the guard bits of the fields where a >= b
        on -= on >> self.width - 1
        return (a & on) | (b & ~on)

    def terms(self, p: Poly) -> Dict[int, int]:
        return {self.pack(m): c for m, c in p.terms.items()}

    def poly(self, terms: Mapping[int, int]) -> Poly:
        """The Poly of packed terms, zero coefficients dropped."""
        shifts, mask, sign = self.shifts, self.mask, self.sign
        terms = {
            tuple(sign * k >> s & mask for s in shifts): c for k, c in terms.items() if c
        }
        return Poly._canonical(self.table, terms)


def _add_product(acc: Dict[int, int], a: Mapping, b: Mapping) -> Dict[int, int]:
    """Add a * b into the packed terms acc (zeros may stay); return acc."""
    get = acc.get
    right = tuple(b.items())
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


# -- exact division -------------------------------------------------------------


def exact_divide(p: Poly, q: Poly) -> Poly:
    """Return r with r*q == p over the integers, or raise NotDivisible.

    `_divide_packed` on monomials packed with the largest plain degree
    (sum of exponents) of p and q as the exponent bound: every term of an
    exact quotient times q stays within that of p.
    """
    if q.table != p.table:
        raise TableMismatch("operands use different variable tables")
    if q.is_zero():
        raise PolyError("division by the zero polynomial")
    if p.is_zero():
        return p
    packing = _Packing(p.table, max(map(sum, [*p.terms, *q.terms])))
    return packing.poly(_divide_packed(packing.terms(p), packing.terms(q), packing))


def _divide_packed(p: Dict[int, int], q: Dict[int, int], packing: _Packing) -> Dict[int, int]:
    """The packed terms r with r*q == p, for p and a non-zero q packed with
    no order under a bound that holds every term of an exact quotient
    times q; NotDivisible if there is none.  Greedy leading-term division:
    a difference or product that sets a guard bit, like any coefficient
    non-divisibility, means there is none."""

    def not_divisible() -> NotDivisible:
        p_text, q_text = packing.poly(p).render(), packing.poly(q).render()
        return NotDivisible(f"{p_text} is not divisible by {q_text}")

    guards = packing.guards
    rest = {key: c for key, c in p.items() if c}
    q_terms = sorted(q.items(), reverse=True)
    q_lead, q_coeff = q_terms[0]
    # The leading term of `rest` is the largest popped key still in it.
    heap = [-key for key in rest]
    heapify(heap)
    out: Dict[int, int] = {}
    while heap:
        key = -heappop(heap)
        coeff = rest.get(key)
        if coeff is None:
            continue
        diff = key - q_lead
        if diff & guards or coeff % q_coeff:
            raise not_divisible()
        c = out[diff] = coeff // q_coeff
        for m2, c2 in q_terms:
            key = diff + m2
            if key & guards:
                raise not_divisible()
            val = rest.get(key, 0) - c * c2
            if val:
                if key not in rest:
                    heappush(heap, -key)
                rest[key] = val
            else:
                rest.pop(key, None)
    return out


# -- symmetric rewriting ---------------------------------------------------------


def to_elementary_symmetric(
    p: Poly, pair: Tuple[str, str], targets: Tuple[str, str]
) -> Poly:
    """Rewrite a polynomial symmetric in `pair` in terms of e1 and e2.

    `targets` are the table variables receiving the elementary symmetric
    functions of the pair (degrees 1 and 2).  All other variables are
    treated as scalars.  Raises NotSymmetric if swapping the pair changes p.
    A term x^a*y^b with a > b and its mirror image make (x*y)^b times the
    power sum x^(a-b) + y^(a-b), and the power sums follow Newton's
    identity p_k = e1*p_(k-1) - e2*p_(k-2), with p_0 = 2 and p_1 = e1; a
    term with a = b is e2^a.
    """
    table = p.table
    i1, i2 = table.index(pair[0]), table.index(pair[1])
    j1, j2 = table.index(targets[0]), table.index(targets[1])
    if table.degrees[i1] != 1 or table.degrees[i2] != 1:
        raise GradeMismatch("pair variables must have degree 1")
    if table.degrees[j1] != 1 or table.degrees[j2] != 2:
        raise GradeMismatch("targets must have degrees 1 and 2")

    swapped: Dict[Monomial, int] = {}
    for mono, coeff in p.terms.items():
        m = list(mono)
        m[i1], m[i2] = m[i2], m[i1]
        swapped[tuple(m)] = coeff
    if swapped != p.terms:
        raise NotSymmetric(f"not symmetric under {pair[0]} <-> {pair[1]}")

    s1, s2 = Poly.var(table, targets[0]), Poly.var(table, targets[1])
    sums = [Poly.const(table, 2), s1]
    acc: Dict[Monomial, int] = {}
    for mono, coeff in p.terms.items():
        a, b = mono[i1], mono[i2]
        if a < b:
            continue  # the mirror image of a term taken
        while len(sums) <= a - b:
            sums.append(s1 * sums[-1] - s2 * sums[-2])
        rest = list(mono)
        rest[i1], rest[i2], rest[j2] = 0, 0, rest[j2] + b
        for m, c in (sums[a - b].terms.items() if a > b else [((0,) * len(table), 1)]):
            m = tuple(map(add, m, rest))
            acc[m] = acc.get(m, 0) + c * coeff
    return Poly(table, acc)
