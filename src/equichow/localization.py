"""Torus fixed-point localization on products of projectivized symmetric
powers of rank-2 representations.

A space is a product of factors P(Sym^d of a rank-2 representation with
weights w0, w1); its torus-fixed points are index vectors, one slot per
factor.  Pushforwards along monomial-power maps are evaluated with the
explicit fixed-point formula: restrict the class at each fixed point,
divide by the equivariant Euler class of the tangent space, multiply by
the class of the image point, and sum.  The sum always clears its
denominators; a residue means the descriptor is inconsistent and raises.

Denominators never need polynomial gcds: they stay inside the
multiplicative set generated by integers and the per-factor forms
(w1 - w0), so cancellation is a single exact division at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    NotDivisible,
    Poly,
    PolyError,
    TableMismatch,
    VarTable,
    content_and_primitive,
    exact_divide,
)

FixedPoint = Tuple[int, ...]


class DescriptorError(PolyError):
    """A space or map descriptor violates its invariants."""


class DenominatorResidue(PolyError):
    """The fixed-point sum failed to clear its denominators."""


@dataclass(frozen=True)
class SpaceFactor:
    """One factor P(Sym^d E^v) with torus weights (w0, w1) on E and a named
    hyperplane class variable."""

    d: int
    w0: Poly
    w1: Poly
    hvar: str

    def __post_init__(self):
        if self.d < 1:
            raise DescriptorError("symmetric power degree must be >= 1")
        for w in (self.w0, self.w1):
            if not w.is_homogeneous_of_grade(1):
                raise DescriptorError("weights must be homogeneous of grade 1")
        if self.w0 == self.w1:
            raise DescriptorError("weights must differ for isolated fixed points")
        self.w0.table.index(self.hvar)

    @property
    def table(self) -> VarTable:
        return self.w0.table

    def hyperplane(self) -> Poly:
        return Poly.var(self.table, self.hvar)


def _check_weight_variables(factors: Sequence[SpaceFactor], hvars: Iterable[str]):
    """Weights are torus characters: they may not involve a hyperplane class."""
    hvars = set(hvars)
    for f in factors:
        for w in (f.w0, f.w1):
            for name in w.variables_used():
                if name in hvars:
                    raise DescriptorError(
                        f"weight may not involve the hyperplane variable {name!r}"
                    )


class SpaceDescriptor:
    """A product of factors over one variable table with distinct h-vars."""

    def __init__(self, factors: Sequence[SpaceFactor]):
        factors = tuple(factors)
        if not factors:
            raise DescriptorError("a space needs at least one factor")
        table = factors[0].table
        hvars = []
        for f in factors:
            if f.table != table:
                raise TableMismatch("factors use different variable tables")
            hvars.append(f.hvar)
        if len(set(hvars)) != len(hvars):
            raise DescriptorError("hyperplane variables must be distinct")
        _check_weight_variables(factors, hvars)
        self.factors = factors
        self.table = table
        self.hvars = tuple(hvars)

    @property
    def dimension(self) -> int:
        return sum(f.d for f in self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def enumerate_fixed_points(space: SpaceDescriptor) -> List[FixedPoint]:
    """All index vectors (i_j), 0 <= i_j <= d_j, in lexicographic order."""
    points: List[FixedPoint] = [()]
    for f in space.factors:
        points = [p + (i,) for p in points for i in range(f.d + 1)]
    return points


def _check_point(space: SpaceDescriptor, fp: FixedPoint):
    if len(fp) != len(space.factors):
        raise DescriptorError("fixed point has the wrong number of slots")
    for i, f in zip(fp, space.factors):
        if not 0 <= i <= f.d:
            raise DescriptorError(f"index {i} out of range for degree {f.d}")


def point_class(space: SpaceDescriptor, fp: FixedPoint) -> Poly:
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


def restrict_hyperplane(space: SpaceDescriptor, fp: FixedPoint, factor: int) -> Poly:
    """Value of the factor's hyperplane class at the fixed point."""
    _check_point(space, fp)
    if not 0 <= factor < len(space.factors):
        raise DescriptorError("factor index out of range")
    f = space.factors[factor]
    i = fp[factor]
    return f.w0 * i + f.w1 * (f.d - i)


def fixed_point_substitution(space: SpaceDescriptor, fp: FixedPoint) -> Dict[str, Poly]:
    return {
        f.hvar: restrict_hyperplane(space, fp, k)
        for k, f in enumerate(space.factors)
    }


@dataclass(frozen=True)
class Denominator:
    """An integer times a power product of primitive grade-1 forms."""

    const: int
    forms: Tuple[Tuple[Poly, int], ...]

    def __post_init__(self):
        if self.const == 0:
            raise DescriptorError("denominator constant must be nonzero")

    @staticmethod
    def from_factors(const: int, factors: Iterable[Tuple[Poly, int]]) -> "Denominator":
        """Canonicalize: each form becomes primitive with positive lead, its
        content (with sign) absorbed into the constant."""
        acc: Dict[Poly, int] = {}
        for form, mult in factors:
            if mult == 0:
                continue
            c, prim = content_and_primitive(form)
            if prim.is_zero():
                raise DescriptorError("zero form in a denominator")
            const *= c**mult
            acc[prim] = acc.get(prim, 0) + mult
        ordered = tuple(
            sorted(
                ((f, m) for f, m in acc.items() if m),
                key=lambda fm: sorted(fm[0].terms.items()),
            )
        )
        return Denominator(const, ordered)

    def expand(self) -> Poly:
        out: Optional[Poly] = None
        for form, mult in self.forms:
            piece = form**mult
            out = piece if out is None else out * piece
        if out is None:
            raise DescriptorError("cannot expand a bare integer denominator")
        return out * self.const

    def expand_over(self, table: VarTable) -> Poly:
        if self.forms:
            return self.expand()
        return Poly.const(table, self.const)

    def lcm(self, other: "Denominator") -> "Denominator":
        const = abs(self.const * other.const) // math.gcd(self.const, other.const)
        acc = dict(self.forms)
        for form, mult in other.forms:
            acc[form] = max(acc.get(form, 0), mult)
        return Denominator.from_factors(const, acc.items())

    def cofactor(self, multiple: "Denominator", table: VarTable) -> Poly:
        """The polynomial multiple / self (exact by construction)."""
        if multiple.const % self.const:
            raise DescriptorError("denominator constants do not divide")
        out = Poly.const(table, multiple.const // self.const)
        acc = dict(multiple.forms)
        for form, mult in self.forms:
            acc[form] = acc.get(form, 0) - mult
        for form, mult in acc.items():
            if mult < 0:
                raise DescriptorError("denominator is not a divisor of the target")
            if mult:
                out = out * form**mult
        return out


@dataclass(frozen=True)
class LocalizedElement:
    """numerator / (integer * power product of grade-1 forms)."""

    numerator: Poly
    denominator: Denominator

    def __add__(self, other: "LocalizedElement") -> "LocalizedElement":
        common = self.denominator.lcm(other.denominator)
        table = self.numerator.table
        num = self.numerator * self.denominator.cofactor(common, table) + (
            other.numerator * other.denominator.cofactor(common, table)
        )
        return LocalizedElement(num, common)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        table = self.numerator.table
        left = self.numerator * other.denominator.expand_over(table)
        right = other.numerator * self.denominator.expand_over(table)
        return left == right

    def to_poly(self) -> Poly:
        table = self.numerator.table
        try:
            return exact_divide(
                self.numerator, self.denominator.expand_over(table)
            )
        except NotDivisible as exc:
            raise DenominatorResidue(str(exc)) from None


def tangent_euler(space: SpaceDescriptor, fp: FixedPoint) -> LocalizedElement:
    """Reciprocal of the equivariant Euler class of the tangent space at the
    fixed point, as it enters the localization sum.

    Per factor the Euler class is (-1)^i * i! * (d-i)! * (w1 - w0)^d; the
    product over factors sits in the denominator.
    """
    _check_point(space, fp)
    const = 1
    factors = []
    for i, f in zip(fp, space.factors):
        const *= (-1) ** i * math.factorial(i) * math.factorial(f.d - i)
        factors.append((f.w1 - f.w0, f.d))
    return LocalizedElement(
        Poly.const(space.table, 1), Denominator.from_factors(const, factors)
    )


@dataclass(frozen=True)
class MapBlock:
    """A multiplication map on a group of consecutive source factors:
    (f_1, ..., f_k) -> prod f_j^(a_j), landing in P(Sym^D) with
    D = sum a_j d_j and the block's shared weight pair."""

    indices: Tuple[int, ...]
    exponents: Tuple[int, ...]
    target: SpaceFactor


class MapDescriptor:
    """A monomial-power map between spaces, possibly factorwise (product)."""

    def __init__(self, source: SpaceDescriptor, blocks: Sequence[MapBlock]):
        self.source = source
        self.blocks = tuple(blocks)
        covered: List[int] = []
        for block in self.blocks:
            if len(block.indices) != len(block.exponents):
                raise DescriptorError("block indices and exponents differ in length")
            shared = (block.target.w0, block.target.w1)
            degree = 0
            for idx, a in zip(block.indices, block.exponents):
                if a < 1:
                    raise DescriptorError("map exponents must be >= 1")
                f = source.factors[idx]
                if (f.w0, f.w1) != shared:
                    raise DescriptorError(
                        "all factors of a multiplication block must share the"
                        " target weight pair"
                    )
                degree += a * f.d
                covered.append(idx)
            if degree != block.target.d:
                raise DescriptorError("target degree does not match the exponents")
            if block.target.hvar in source.hvars:
                raise DescriptorError("target h-var collides with a source h-var")
        if sorted(covered) != list(range(len(source.factors))):
            raise DescriptorError("blocks must cover every source factor once")
        self.target = SpaceDescriptor([b.target for b in self.blocks])
        _check_weight_variables(source.factors, self.target.hvars)

    @staticmethod
    def multiplication(
        source: SpaceDescriptor, exponents: Sequence[int], target_hvar: str = "h"
    ) -> "MapDescriptor":
        exponents = tuple(exponents)
        if len(exponents) != len(source.factors):
            raise DescriptorError("one exponent per source factor required")
        f0 = source.factors[0]
        degree = sum(a * f.d for a, f in zip(exponents, source.factors))
        target = SpaceFactor(degree, f0.w0, f0.w1, target_hvar)
        block = MapBlock(tuple(range(len(source.factors))), exponents, target)
        return MapDescriptor(source, [block])

    @staticmethod
    def product(
        source: SpaceDescriptor,
        exponents: Sequence[int],
        target_hvars: Optional[Sequence[str]] = None,
    ) -> "MapDescriptor":
        exponents = tuple(exponents)
        if len(exponents) != len(source.factors):
            raise DescriptorError("one exponent per source factor required")
        if target_hvars is None:
            target_hvars = [f"h{k + 1}" for k in range(len(source.factors))]
        blocks = []
        for k, (a, f) in enumerate(zip(exponents, source.factors)):
            target = SpaceFactor(a * f.d, f.w0, f.w1, target_hvars[k])
            blocks.append(MapBlock((k,), (a,), target))
        return MapDescriptor(source, blocks)


def map_image_fixed_point(mapping: MapDescriptor, fp: FixedPoint) -> FixedPoint:
    """Image index per block: sum of a_j * i_j over the block's factors."""
    _check_point(mapping.source, fp)
    return tuple(
        sum(a * fp[idx] for idx, a in zip(block.indices, block.exponents))
        for block in mapping.blocks
    )


def _check_class_variables(mapping: MapDescriptor, cls: Poly):
    allowed = set(mapping.source.table.names) - {
        b.target.hvar for b in mapping.blocks
    }
    for name in cls.variables_used():
        if name not in allowed:
            raise DescriptorError(
                f"class may not involve the target variable {name!r}"
            )


def pushforward(mapping: MapDescriptor, cls: Poly) -> Poly:
    """Equivariant pushforward of cls by the explicit fixed-point formula.

    Raises DenominatorResidue if the sum fails to clear its denominators,
    which signals an inconsistent descriptor.
    """
    if cls.table != mapping.source.table:
        raise TableMismatch("class is not over the map's variable table")
    _check_class_variables(mapping, cls)
    source, target = mapping.source, mapping.target
    total: Optional[LocalizedElement] = None
    for fp in enumerate_fixed_points(source):
        restricted = cls.substitute(fixed_point_substitution(source, fp))
        euler = tangent_euler(source, fp)
        image = point_class(target, map_image_fixed_point(mapping, fp))
        summand = LocalizedElement(restricted * image, euler.denominator)
        total = summand if total is None else total + summand
    return total.to_poly()


def specialize_oracle(
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
    weights of the trial instead of through the symbolic `point_class` and
    `tangent_euler` that `pushforward` uses.
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
                (f.w0.evaluate(values), f.w1.evaluate(values))
                for f in source.factors
            ]
            if all(w0 != w1 for w0, w1 in src_w):
                break
        tgt_w = [
            (f.w0.evaluate(values), f.w1.evaluate(values)) for f in target.factors
        ]
        target_point = tuple(rng.randint(0, f.d) for f in target.factors)
        for f, (w0, w1), i in zip(target.factors, tgt_w, target_point):
            values[f.hvar] = w0 * i + w1 * (f.d - i)
        euler_forms = 1
        for f, (w0, w1) in zip(source.factors, src_w):
            euler_forms *= (w1 - w0) ** f.d
        lhs = Fraction(0)
        for fp, image, const in points:
            point_value = 1
            for f, (w0, w1), q in zip(target.factors, tgt_w, image):
                h = values[f.hvar]
                for j in range(f.d + 1):
                    if j != q:
                        point_value *= h - j * w0 - (f.d - j) * w1
            if not point_value:
                continue
            sub = dict(values)
            for f, (w0, w1), i in zip(source.factors, src_w, fp):
                sub[f.hvar] = w0 * i + w1 * (f.d - i)
            lhs += Fraction(cls.evaluate(sub) * point_value, const * euler_forms)
        rhs = symbolic.evaluate(values)
        if lhs != rhs:
            return False
    return True
