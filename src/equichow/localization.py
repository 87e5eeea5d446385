"""Torus fixed-point localization on products of projectivized symmetric
powers of rank-2 representations.

A space is a product of factors P(Sym^d of a rank-2 representation with
weights w0, w1); its torus-fixed points are index vectors, one slot per
factor.  Pushforwards along monomial-power maps are evaluated with the
explicit fixed-point formula: restrict the class at each fixed point,
divide by the equivariant Euler class of the tangent space, multiply by
the class of the image point, and sum.  The sum always clears its
denominators; a residue means the descriptor is inconsistent and raises.

Denominators never need polynomial gcds: the tangent Euler class at every
fixed point is an integer c times the same product F of the forms
(w1 - w0)^d, so the sum is one numerator over lcm(c) * F, cleared by a
single exact division at the end.

The class of a target point is a product of one small class per target
factor, and many source points share an image.  So the numerator first
sums the restricted classes over the source points with the same image,
then contracts the target factors one at a time, last first: each factor
multiplies every partial sum by one of its one-factor point classes once
per prefix of the image index vector, not once per source point.  All
one-factor classes of a factor are integer combinations of the same few
products, built once (`_point_classes`).

All of it runs on packed monomials (`poly._Packing`), one integer each,
so a product of monomials is one addition.  The exponent bound is the
class's plain degree (sum of exponents) plus the target dimension, as the
weights are linear and a one-factor class has the degree of its factor;
the numerator is unpacked once, before the division.

The specialization oracle checks a pushforward at random integer weights
without these classes: at the drawn target point only the fibre over it
contributes, and each trial is one identity in integers.  It compiles the
weights, the class and the value once per call and evaluates them on one
list of values by table slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    NotDivisible,
    Poly,
    PolyError,
    TableMismatch,
    VarTable,
    _add_product,
    _Packing,
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
        if self.table.degrees[self.table.index(self.hvar)] != 1:
            raise DescriptorError(f"hyperplane variable {self.hvar} must have degree 1")

    @property
    def table(self) -> VarTable:
        return self.w0.table

    def hyperplane(self) -> Poly:
        return Poly.var(self.table, self.hvar)

    def hyperplane_value(self, i: int) -> Poly:
        """The hyperplane class at the fixed point with index i."""
        return self.w0 * i + self.w1 * (self.d - i)


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


def _point_classes(factor: SpaceFactor, indices: Iterable[int], packing: _Packing) -> Dict:
    """The packed class of the fixed point with index i on the one-factor
    space, the product of the forms h - j*w0 - (d-j)*w1 over j != i, for
    each index i.  With X = h - d*w1 and Y = w0 - w1 each form is X - j*Y,
    so the class is sum_k (-1)^k e_k(S) X^(d-k) Y^k, S = {0..d} minus i:
    the products are made once, and e_k(S) = e_k({0..d}) - i * e_(k-1)(S)."""
    d = factor.d
    x = packing.terms(factor.hyperplane() - factor.w1 * d)
    y = packing.terms(factor.w0 - factor.w1)
    x_powers = [{0: 1}]
    for _ in range(d):
        x_powers.append(_add_product({}, x_powers[-1], x))
    products, y_power = [x_powers[d]], x_powers[0]
    for k in range(1, d + 1):
        y_power = _add_product({}, y_power, y)
        products.append(_add_product({}, x_powers[d - k], y_power))
    full = [1] + [0] * d  # e_k of {0..d}
    for j in range(1, d + 1):
        for k in range(j, 0, -1):
            full[k] += j * full[k - 1]
    classes: Dict[int, Dict[int, int]] = {}
    for i in indices:
        acc: Dict[int, int] = {}
        e = 0
        for k, product in enumerate(products):
            e = full[k] - i * e
            if e:
                _add_product(acc, product, {0: -e if k & 1 else e})
        classes[i] = {m: c for m, c in acc.items() if c}
    return classes


def euler_constant(space: SpaceDescriptor, fp: FixedPoint) -> int:
    """Integer part of the equivariant Euler class of the tangent space at
    the fixed point: per factor (-1)^i * i! * (d-i)!."""
    _check_point(space, fp)
    return _euler_constant(space, fp)


def _euler_constant(space: SpaceDescriptor, fp: FixedPoint) -> int:
    """`euler_constant` of a point of `enumerate_fixed_points`."""
    const = 1
    for i, f in zip(fp, space.factors):
        const *= (-1) ** i * math.factorial(i) * math.factorial(f.d - i)
    return const


def euler_forms(space: SpaceDescriptor) -> Poly:
    """Form part of the tangent Euler class, prod (w1 - w0)^d over the
    factors; it is the same at every fixed point."""
    out = Poly.const(space.table, 1)
    for f in space.factors:
        out = out * (f.w1 - f.w0) ** f.d
    return out


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
    return _image(mapping, fp)


def _image(mapping: MapDescriptor, fp: FixedPoint) -> FixedPoint:
    """`map_image_fixed_point` of a point of `enumerate_fixed_points`."""
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

    The numerator is sum over source points p of
    restricted(p) * (C // c_p) * [image point of p], C = lcm(c_p).  The
    image class is a product of one-factor classes, one per target factor,
    so the sum is contracted one factor at a time: the terms are first
    summed over the source points with the same image q, and then, last
    factor first, each partial sum keyed by a prefix of q is multiplied by
    the one-factor class of its last index and added into the sum of the
    shorter prefix.  Each power of a source hyperplane value and each
    factor's one-factor classes are built once per call, on monomials
    packed with the exponent bound: plain degree of cls + target dimension.

    Raises DenominatorResidue if the sum fails to clear its denominators,
    which signals an inconsistent descriptor.
    """
    if cls.table != mapping.source.table:
        raise TableMismatch("class is not over the map's variable table")
    _check_class_variables(mapping, cls)
    source, target = mapping.source, mapping.target
    points = enumerate_fixed_points(source)
    consts = [_euler_constant(source, fp) for fp in points]
    common = math.lcm(*consts)
    packing = _Packing(cls.table, max(map(sum, cls.terms), default=0) + target.dimension)
    slots = [cls.table.index(h) for h in source.hvars]
    # The class's terms by their exponents of the source h-variables.
    groups: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for mono, coeff in cls.terms.items():
        rest = packing.pack(0 if s in slots else e for s, e in enumerate(mono))
        groups.setdefault(tuple(mono[s] for s in slots), {})[rest] = coeff
    values = [
        [packing.terms(f.hyperplane_value(i)) for i in range(f.d + 1)]
        for f in source.factors
    ]
    powers: Dict[Tuple[int, int], List[Dict[int, int]]] = {}
    sums: Dict[FixedPoint, Dict[int, int]] = {}
    for fp, const in zip(points, consts):
        acc = sums.setdefault(_image(mapping, fp), {})
        for exps, rest in groups.items():
            term = rest
            for j, (i, e) in enumerate(zip(fp, exps)):
                if e:
                    power = powers.setdefault((j, i), [{0: 1}])
                    while len(power) <= e:
                        power.append(_add_product({}, power[-1], values[j][i]))
                    term = _add_product({}, term, power[e])
            _add_product(acc, term, {0: common // const})
    for factor in reversed(target.factors):
        classes = _point_classes(factor, {q[-1] for q in sums}, packing)
        contracted: Dict[FixedPoint, Dict[int, int]] = {}
        for q, partial in sums.items():
            _add_product(contracted.setdefault(q[:-1], {}), partial, classes[q[-1]])
        sums = contracted
    numerator = packing.poly(sums[()])
    try:
        return exact_divide(numerator, euler_forms(source) * common)
    except NotDivisible as exc:
        raise DenominatorResidue(str(exc)) from None


def _compiled(p: Poly) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """The terms of p as (coeff, ((slot, exp), ...)), zero exponents left out."""
    return [
        (c, tuple((slot, e) for slot, e in enumerate(m) if e))
        for m, c in p.terms.items()
    ]


def _evaluate(compiled, values: Sequence[Optional[int]], names: Sequence[str]) -> int:
    """A compiled polynomial at the values by slot, None for no value."""
    total = 0
    for coeff, factors in compiled:
        for slot, e in factors:
            if values[slot] is None:
                raise PolyError(f"no value supplied for {names[slot]!r}")
            coeff *= values[slot] ** e
        total += coeff
    return total


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
    compares the localization sum with the symbolic result evaluated at
    the same point.  The sum is evaluated in integers from the descriptor
    alone, not through the `_point_classes`, `_euler_constant` and
    `euler_forms` that `pushforward` uses.  Each target h is then
    i*w0 + (d-i)*w1, so the form with j = i vanishes and the class of
    every image but the drawn point is 0: only the fibre over that point
    is summed.  With its point value P, its Euler constants c_p and
    C = lcm(c_p) (1 for an empty fibre), and F = prod (w1 - w0)^d, the
    trial passes iff P * sum cls(p) * (C // c_p) == symbolic * C * F.
    """
    if symbolic is None:
        symbolic = pushforward(mapping, cls)
    rng = Random(seed)
    source, target = mapping.source, mapping.target
    if not cls.table == symbolic.table == source.table:
        raise TableMismatch("class or value is not over the map's variable table")
    names = source.table.names
    base_slots = [s for s, n in enumerate(names) if n not in source.hvars + target.hvars]
    # Each distinct weight form is evaluated once per draw.
    forms = list(dict.fromkeys(w for f in source.factors + target.factors for w in (f.w0, f.w1)))
    compiled_forms = [_compiled(w) for w in forms]
    src, tgt = (
        [(forms.index(f.w0), forms.index(f.w1), names.index(f.hvar), f.d) for f in side.factors]
        for side in (source, target)
    )
    cls_terms, symbolic_terms = _compiled(cls), _compiled(symbolic)
    # The source points by image, each with the sign-and-factorial constant
    # of its Euler class, prod (-1)^i * i! * (d-i)!.
    fibres: Dict[FixedPoint, List[Tuple[FixedPoint, int]]] = {}
    for fp in enumerate_fixed_points(source):
        const = 1
        for i, f in zip(fp, source.factors):
            const *= (-1) ** i * math.factorial(i) * math.factorial(f.d - i)
        fibres.setdefault(_image(mapping, fp), []).append((fp, const))
    values: List[Optional[int]] = [None] * len(names)
    for _ in range(trials):
        while True:
            for slot in base_slots:
                values[slot] = rng.randint(-12, 12)
            weights = [_evaluate(w, values, names) for w in compiled_forms]
            src_w = [(weights[a], weights[b]) for a, b, _, _ in src]
            if all(w0 != w1 for w0, w1 in src_w):
                break
        target_point = tuple(rng.randint(0, d) for _, _, _, d in tgt)
        point_value = 1
        for (a, b, slot, d), i in zip(tgt, target_point):
            w0, w1 = weights[a], weights[b]
            h = values[slot] = w0 * i + w1 * (d - i)
            for j in range(d + 1):
                if j != i:
                    point_value *= h - j * w0 - (d - j) * w1
        euler_forms = math.prod((w1 - w0) ** d for (w0, w1), (*_, d) in zip(src_w, src))
        fibre = fibres.get(target_point, ())
        common = math.lcm(*(const for _, const in fibre))
        total = 0
        # Every point sets all the source h-variables, so one copy of the
        # trial's values serves them all.
        sub = list(values)
        for fp, const in fibre:
            for (w0, w1), (_, _, slot, d), i in zip(src_w, src, fp):
                sub[slot] = w0 * i + w1 * (d - i)
            total += _evaluate(cls_terms, sub, names) * (common // const)
        value = _evaluate(symbolic_terms, values, names)
        if total * point_value != value * common * euler_forms:
            return False
    return True
