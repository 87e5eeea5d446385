"""End-to-end derivation and certification of the Chow ring of the moduli
of stable genus-two curves.

The run walks the whole computation in dependency order: verify the
patched presentation of the base stack degree by degree, evaluate the
fixed-point pushforward formulas, derive the excised-locus classes, and
certify that the assembled relation ideal in Z[l1, l2, d1] equals the
known presentation

    (2*d1^2 + 2*l1*d1, d1^3 + d1^2*l1, 24*l1^2 - 48*l2, 20*l1*l2 - 4*d1*l2).

Every step compares its computed value against the expected one in
canonical form and the report carries one verdict per step.  Values whose
derivation needs non-computational outside input (the d1-dependence of the
triple-root and residual classes) are fixtures: the run verifies their
computable restrictions and labels the rest informational.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import wraps
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .groebner import ideal_contains, ideal_equal, normal_form, strong_groebner
from .localization import (
    MapDescriptor,
    SpaceDescriptor,
    SpaceFactor,
    pushforward,
    specialize_oracle,
)
from .poly import Poly, PolyError, VarTable, to_elementary_symmetric
from .presentation import (
    CartesianSquareSpec,
    RingHom,
    RingPresentation,
    is_nonzerodivisor,
    verify_cartesian,
)

MATCH = "match"
MISMATCH = "mismatch"
INFORMATIONAL = "informational"


def _vt(*pairs: Tuple[str, int]) -> VarTable:
    return VarTable(pairs)


# The tables of the two symmetric-pushforward steps, over which the
# substitution rules of `Fixtures` are written.
SYMMETRIC_TABLE = _vt(
    ("t1", 1), ("t2", 1), ("h1", 1), ("h2", 1), ("h", 1), ("l1", 1), ("l2", 2)
)
DOUBLE_TRIPLE_TABLE = _vt(
    ("a", 1),
    ("b", 1),
    ("d", 1),
    ("g1", 1),
    ("g2", 1),
    ("u1", 1),
    ("u2", 1),
    ("h1", 1),
    ("h2", 1),
    ("l1", 1),
    ("l2", 2),
)
_t1, _t2 = (Poly.var(SYMMETRIC_TABLE, n) for n in ("t1", "t2"))
_a, _b, _d = (Poly.var(DOUBLE_TRIPLE_TABLE, n) for n in ("a", "b", "d"))


@dataclass
class Fixtures:
    """All externally supplied presentations, characters and classes.

    total: candidate presentation of the patched ring, Z[l1,l2,d1,e] with
        relations (2e, e*(l1*d1 + e)).
    boundary: the closed-part ring Z[l1,l2,d1,x]/(2x, x*(x+l1)).
    open_part: Z[l1,l2].
    boundary_mod_normal: boundary with the normal class d1 killed.
    ambient: Z[l1,l2,d1], where the final presentation lives.
    character_basis: the c1 value on the boundary of each character
        generator.
    Derived relations are memoized on the instance (`_per_fixtures`).
    """

    total: RingPresentation
    boundary: RingPresentation
    open_part: RingPresentation
    boundary_mod_normal: RingPresentation
    ambient: VarTable
    character_basis: Dict[str, Poly]
    node_character: Dict[str, int]
    triple_root_class: Poly
    residual_class: Poly
    final_ideal: Tuple[Poly, ...]
    # quoted substitution rules, over SYMMETRIC_TABLE and DOUBLE_TRIPLE_TABLE
    open_restriction_rule: Poly = 2 * _t1 + 2 * _t2
    boundary_weight_rules: Tuple[Tuple[str, Poly], ...] = (
        ("g1", _b + _d - _a),
        ("g2", _a + _d - _b),
        ("h1", _a + _b + _d),
        ("h2", _a + _b + _d),
    )
    _derived: Dict[str, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def default(
        candidate_relations: Optional[Sequence[Poly]] = None,
        final_ideal: Optional[Sequence[Poly]] = None,
    ) -> "Fixtures":
        tp = _vt(("l1", 1), ("l2", 2), ("d1", 1), ("e", 2))
        tb = _vt(("l1", 1), ("l2", 2), ("d1", 1), ("x", 1))
        to = _vt(("l1", 1), ("l2", 2))
        td = _vt(("l1", 1), ("l2", 2), ("x", 1))
        ambient = _vt(("l1", 1), ("l2", 2), ("d1", 1))

        e = Poly.var(tp, "e")
        if candidate_relations is None:
            candidate_relations = [
                2 * e,
                e * (Poly.var(tp, "l1") * Poly.var(tp, "d1") + e),
            ]
        x = Poly.var(tb, "x")
        total = RingPresentation(tp, candidate_relations)
        boundary = RingPresentation(tb, [2 * x, x * (x + Poly.var(tb, "l1"))])
        open_part = RingPresentation(to, [])
        xd = Poly.var(td, "x")
        boundary_mod_normal = RingPresentation(
            td, [2 * xd, xd * (xd + Poly.var(td, "l1"))]
        )

        basis = {
            "det_sgn": Poly.var(tb, "l1") + Poly.var(tb, "x"),
            "normal": Poly.var(tb, "d1"),
            "sgn": Poly.var(tb, "x"),
        }
        node_character = {"det_sgn": 1, "normal": 1}

        l1, l2, d1 = (Poly.var(ambient, n) for n in ("l1", "l2", "d1"))
        if final_ideal is None:
            final_ideal = [
                2 * d1**2 + 2 * l1 * d1,
                d1**3 + d1**2 * l1,
                24 * l1**2 - 48 * l2,
                20 * l1 * l2 - 4 * d1 * l2,
            ]
        return Fixtures(
            total=total,
            boundary=boundary,
            open_part=open_part,
            boundary_mod_normal=boundary_mod_normal,
            ambient=ambient,
            character_basis=basis,
            node_character=node_character,
            triple_root_class=24 * l1**2 - 48 * l2,
            residual_class=20 * l1 * l2 - 4 * d1 * l2,
            final_ideal=tuple(final_ideal),
        )

    def patch_square(self) -> CartesianSquareSpec:
        a, b, c, d = self.total, self.boundary, self.open_part, self.boundary_mod_normal

        def keep(target: RingPresentation, *names: str) -> Dict[str, Poly]:
            """Each name to the target generator of that name."""
            return {n: Poly.var(target.table, n) for n in names}

        zero_c, zero_d = Poly.zero(c.table), Poly.zero(d.table)
        e_on_b = Poly.var(b.table, "d1") * Poly.var(b.table, "x")
        ab = RingHom(a, b, {**keep(b, "l1", "l2", "d1"), "e": e_on_b})
        ac = RingHom(a, c, {**keep(c, "l1", "l2"), "d1": zero_c, "e": zero_c})
        bd = RingHom(b, d, {**keep(d, "l1", "l2", "x"), "d1": zero_d})
        cd = RingHom(c, d, keep(d, "l1", "l2"))
        return CartesianSquareSpec(a, b, c, d, ab, ac, bd, cd)

    def gysin(self, p: Poly) -> Poly:
        """Pushforward along the boundary inclusion.

        Reduce p in the boundary presentation to the unique shape a + b*x,
        then send it to a*d1 + b*e, normal-formed in the total ring.  The
        two generator values (1 -> d1, x -> e) plus linearity over the
        x-free subring determine the operator.
        """
        boundary, total = self.boundary, self.total
        reduced = boundary.normal_form(p)
        x_index = boundary.table.index("x")
        a_terms: Dict[Tuple[int, ...], int] = {}
        b_terms: Dict[Tuple[int, ...], int] = {}
        for mono, coeff in reduced.terms.items():
            k = mono[x_index]
            if k == 0:
                a_terms[mono] = coeff
            elif k == 1:
                stripped = list(mono)
                stripped[x_index] = 0
                b_terms[tuple(stripped)] = coeff
            else:
                raise PolyError("normal form kept x-degree >= 2; basis is broken")
        rename = {n: n for n in boundary.table.names if n != "x"}
        a_part = Poly(boundary.table, a_terms).change_table(total.table, rename)
        b_part = Poly(boundary.table, b_terms).change_table(total.table, rename)
        image = a_part * Poly.var(total.table, "d1") + b_part * Poly.var(total.table, "e")
        return total.normal_form(image)


@dataclass(frozen=True)
class StepReport:
    name: str
    verdict: str
    computed: str
    expected: str
    details: Tuple[str, ...] = ()
    elapsed: float = 0.0

    def machine_line(self) -> str:
        return "\t".join((self.name, self.verdict, self.computed, self.expected))


@dataclass
class PipelineReport:
    steps: List[StepReport]
    degree_bound: int

    @property
    def overall(self) -> str:
        ok = all(s.verdict != MISMATCH for s in self.steps)
        return MATCH if ok else MISMATCH

    def render_machine(self) -> str:
        return "".join(s.machine_line() + "\n" for s in self.steps)

    def render_text(self) -> str:
        lines = [f"pipeline report (degree bound {self.degree_bound})", ""]
        for s in self.steps:
            lines.append(f"[{s.verdict}] {s.name}  ({s.elapsed:.3f}s)")
            lines.append(f"  computed: {s.computed}")
            lines.append(f"  expected: {s.expected}")
            for d in s.details:
                lines.append(f"  note: {d}")
        lines.append("")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def _per_fixtures(derive):
    """Memoize a value derived from a Fixtures instance on the instance, so
    a run derives it once; a derivation that raises stores nothing."""

    @wraps(derive)
    def derived(fx: Fixtures):
        if derive.__name__ not in fx._derived:
            fx._derived[derive.__name__] = derive(fx)
        return fx._derived[derive.__name__]

    return derived


def _verdict(ok: bool) -> str:
    return MATCH if ok else MISMATCH


# -- steps -------------------------------------------------------------------


def step_patching(fx: Fixtures, degree_bound: int) -> StepReport:
    """d1 is a non-zero-divisor on the boundary ring in every degree, and the
    square is cartesian in each degree up to the bound."""
    nzd = is_nonzerodivisor(fx.boundary, Poly.var(fx.boundary.table, "d1"))
    report = verify_cartesian(fx.patch_square(), degree_bound)
    ok = nzd and report.passed
    computed = (
        f"nonzerodivisor(d1)={str(nzd).lower()};"
        f" cartesian={'pass' if report.passed else f'fail@{report.first_failure()}'}"
        f"[0..{degree_bound}]"
    )
    expected = f"nonzerodivisor(d1)=true; cartesian=pass[0..{degree_bound}]"
    details = tuple(c.describe() for c in report.checks)
    return StepReport("patching", _verdict(ok), computed, expected, details)


def step_transfer(fx: Fixtures) -> StepReport:
    """Transfer values from the double cover of the boundary group: pulling
    the transfer back must act as 1 + swap on the cover's Chow ring."""
    cover = _vt(("a", 1), ("b", 1))
    cover_ring = RingPresentation(cover, [])
    a, b = Poly.var(cover, "a"), Poly.var(cover, "b")
    corner = fx.boundary_mod_normal
    pull = RingHom(
        corner,
        cover_ring,
        {"l1": a + b, "l2": a * b, "x": Poly.zero(cover)},
    )
    transfer_one = Poly.const(corner.table, 2)
    transfer_root = Poly.var(corner.table, "l1") + Poly.var(corner.table, "x")
    got = (pull.apply(transfer_one), pull.apply(transfer_root))
    want = (Poly.const(cover, 2), a + b)
    ok = got == want
    computed = f"pull(transfer(1))={got[0].render()}; pull(transfer(root))={got[1].render()}"
    expected = f"pull(transfer(1))={want[0].render()}; pull(transfer(root))={want[1].render()}"
    details = ("transfer fixture has no downstream consumer; recorded as verified",)
    return StepReport("transfer", _verdict(ok), computed, expected, details)


def _localization_values():
    t = _vt(("g1", 1), ("g2", 1), ("h1", 1), ("h2", 1), ("h", 1))
    g1, g2, h1, h2, h = (Poly.var(t, n) for n in ("g1", "g2", "h1", "h2", "h"))
    one = Poly.const(t, 1)

    cubing_src = SpaceDescriptor([SpaceFactor(1, g1, g2, "h1")])
    cubing = MapDescriptor.multiplication(cubing_src, [3], "h")

    mixed_src = SpaceDescriptor(
        [SpaceFactor(1, g1, g2, "h1"), SpaceFactor(3, g1, g2, "h2")]
    )
    mixed = MapDescriptor.multiplication(mixed_src, [3, 1], "h")

    pair_src = SpaceDescriptor(
        [SpaceFactor(1, g1, g2, "h1"), SpaceFactor(1, g1, g2, "h2")]
    )
    pair_cubing = MapDescriptor.multiplication(pair_src, [3, 3], "h")

    quad_src = SpaceDescriptor([SpaceFactor(2, g1, g2, "h1")])
    quad_cubing = MapDescriptor.multiplication(quad_src, [3], "h")

    expected = {
        "i*1": 3 * (h - 2 * g1 - g2) * (h - g1 - 2 * g2),
        "rho1*1": 3
        * (
            4 * h**2
            - 24 * h * (g1 + g2)
            + 20 * (2 * g1 + g2) * (g1 + 2 * g2)
            - 36 * g1 * g2
        ),
        "rho1*h1": h**3
        - 3 * (g1 + g2) * h**2
        + h * (2 * (g1 + g2) ** 2 - 44 * g1 * g2)
        + 108 * g1 * g2 * (g1 + g2),
        "rho2*1": 9
        * (h - 5 * g1 - g2)
        * (h - 4 * g1 - 2 * g2)
        * (h - 2 * g1 - 4 * g2)
        * (h - g1 - 5 * g2),
    }
    jobs = {
        "i*1": (cubing, one),
        "rho1*1": (mixed, one),
        "rho1*h1": (mixed, h1),
        "rho2*1": (pair_cubing, one),
    }
    return t, jobs, expected, quad_cubing


def step_localization(
    fx: Fixtures, oracle_trials: int, seed: int
) -> List[StepReport]:
    """The four displayed pushforwards; the pair-cubing map gets its own
    informational report because its honest pushforward is twice the class
    of its image (the map identifies (f, g) with (g, f))."""
    t, jobs, expected, quad_cubing = _localization_values()
    one = Poly.const(t, 1)

    sure_names = ("i*1", "rho1*1", "rho1*h1")
    computed = {name: pushforward(*jobs[name]) for name in jobs}
    oracle_ok = {
        name: specialize_oracle(
            jobs[name][0],
            jobs[name][1],
            trials=oracle_trials,
            seed=seed,
            symbolic=computed[name],
        )
        for name in jobs
    }
    ok = all(computed[n] == expected[n] for n in sure_names) and all(
        oracle_ok[n] for n in sure_names
    )
    main = StepReport(
        "localization",
        _verdict(ok),
        "; ".join(f"{n}={computed[n].render()}" for n in sure_names),
        "; ".join(f"{n}={expected[n].render()}" for n in sure_names),
        tuple(f"oracle[{n}]={str(oracle_ok[n]).lower()}" for n in sure_names),
    )

    pair_value = computed["rho2*1"]
    display = expected["rho2*1"]
    if pair_value == display:
        verdict = MATCH
    elif oracle_ok["rho2*1"]:
        verdict = INFORMATIONAL
    else:
        verdict = MISMATCH
    quad_value = pushforward(quad_cubing, one)
    details = [
        f"oracle[pair-cubing]={str(oracle_ok['rho2*1']).lower()}",
        f"pair-cubing pushforward equals 2x display: {str(pair_value == 2 * display).lower()}"
        " (the map is generically 2:1 onto its image)",
        f"single-factor cubing of quadrics reproduces the display: "
        f"{str(quad_value == display).lower()}",
        f"oracle[quadric-cubing]={str(specialize_oracle(quad_cubing, one, trials=oracle_trials, seed=seed, symbolic=quad_value)).lower()}",
    ]
    rho2 = StepReport(
        "localization/pair-cubing",
        verdict,
        f"rho2*1={pair_value.render()}",
        f"rho2*1={display.render()}",
        tuple(details),
    )
    return [main, rho2]


def c1_of_character(basis: Mapping[str, Poly], character: Mapping[str, int]) -> Poly:
    """Z-linear extension of the basis c1 assignments."""
    out = None
    for name, mult in character.items():
        if name not in basis:
            raise PolyError(f"unknown character generator {name!r}")
        term = basis[name] * mult
        out = term if out is None else out + term
    if out is None:
        raise PolyError("empty character")
    return out


def step_node_locus_class(fx: Fixtures) -> StepReport:
    """Class of the locus of sections vanishing at the node: first as a
    character first Chern class on the boundary, then pushed forward."""
    tb = fx.boundary.table
    part1 = c1_of_character(fx.character_basis, fx.node_character)
    want1 = Poly.var(tb, "l1") + Poly.var(tb, "d1") + Poly.var(tb, "x")
    part2 = fx.gysin(part1)
    tp = fx.total.table
    d1, l1, e = (Poly.var(tp, n) for n in ("d1", "l1", "e"))
    want2 = fx.total.normal_form(e + d1 * (l1 + d1))
    ok = part1 == want1 and part2 == want2
    return StepReport(
        "node-locus-class",
        _verdict(ok),
        f"on-boundary={part1.render()}; pushed={part2.render()}",
        f"on-boundary={want1.render()}; pushed={want2.render()}",
    )


def node_image_generators(fx: Fixtures) -> Tuple[Poly, Poly]:
    """The two pushforward generators of the node-locus image ideal."""
    tb = fx.boundary.table
    z = Poly.var(tb, "l1") + Poly.var(tb, "d1") + Poly.var(tb, "x")
    return fx.gysin(z), fx.gysin(z * Poly.var(tb, "x"))


@_per_fixtures
def eliminated_node_ideal(fx: Fixtures) -> Tuple[Poly, ...]:
    """Eliminate e with the first image generator and land in Z[l1,l2,d1]."""
    tp = fx.total.table
    d1, l1 = Poly.var(tp, "d1"), Poly.var(tp, "l1")
    substitution = {"e": -(d1 * (l1 + d1))}
    _, g1 = node_image_generators(fx)
    carried = list(fx.total.relations) + [g1]
    out = []
    for p in carried:
        q = p.substitute(substitution)
        out.append(q.change_table(fx.ambient))
    return tuple(out)


def step_node_image_ideal(fx: Fixtures) -> StepReport:
    """Push the node-locus ideal down and eliminate the torsion class e."""
    tb = fx.boundary.table
    z = Poly.var(tb, "l1") + Poly.var(tb, "d1") + Poly.var(tb, "x")
    g0, g1 = node_image_generators(fx)
    image = strong_groebner(list(fx.total.relations) + [g0, g1], fx.total.order)
    higher_redundant = all(
        normal_form(fx.gysin(z * Poly.var(tb, "x", k)), image).is_zero() for k in (2, 3)
    )
    eliminated = eliminated_node_ideal(fx)
    l1, l2, d1 = (Poly.var(fx.ambient, n) for n in ("l1", "l2", "d1"))
    target = [2 * d1 * (l1 + d1), d1**2 * (l1 + d1)]
    equal = ideal_equal(list(eliminated), target)
    ok = higher_redundant and equal
    computed = (
        f"ideal_equal={str(equal).lower()};"
        f" higher-pushforwards-redundant={str(higher_redundant).lower()}"
    )
    expected = "ideal_equal=true; higher-pushforwards-redundant=true"
    details = (
        f"generators: {g0.render()}; {g1.render()}",
        "eliminated: " + "; ".join(p.render() for p in eliminated),
        "target: " + "; ".join(p.render() for p in target),
    )
    return StepReport("node-image-ideal", _verdict(ok), computed, expected, details)


def _symmetric_pushforward_value(fx: Fixtures, cls_name: str) -> Poly:
    """Pushforward over weights (t1, t2), then the quoted h-restriction rule
    and a rewrite in the elementary symmetric classes l1, l2."""
    t = SYMMETRIC_TABLE
    t1, t2 = Poly.var(t, "t1"), Poly.var(t, "t2")
    src = SpaceDescriptor([SpaceFactor(1, t1, t2, "h1"), SpaceFactor(3, t1, t2, "h2")])
    mapping = MapDescriptor.multiplication(src, [3, 1], "h")
    cls = Poly.const(t, 1) if cls_name == "1" else Poly.var(t, cls_name)
    value = pushforward(mapping, cls)
    substituted = value.substitute({"h": fx.open_restriction_rule})
    return to_elementary_symmetric(substituted, ("t1", "t2"), ("l1", "l2"))


def step_triple_root_class(fx: Fixtures) -> StepReport:
    """Class of sections with a triple root, derived on the open part."""
    value = _symmetric_pushforward_value(fx, "1").change_table(fx.ambient)
    ok = value == fx.triple_root_class
    return StepReport(
        "triple-root-class",
        _verdict(ok),
        value.render(),
        fx.triple_root_class.render(),
        ("derived by localization alone; matches the fixture with no outside input",),
    )


def step_residual_class(fx: Fixtures) -> StepReport:
    """Open-part restriction of the residual pushforward class."""
    value = _symmetric_pushforward_value(fx, "h1").change_table(fx.ambient)
    l1, l2 = Poly.var(fx.ambient, "l1"), Poly.var(fx.ambient, "l2")
    want = 20 * l1 * l2
    fixture_restricted = fx.residual_class.substitute({"d1": Poly.zero(fx.ambient)})
    ok = value == want and fixture_restricted == value
    computed = (
        f"restriction={value.render()};"
        f" fixture-consistent={str(fixture_restricted == value).lower()}"
    )
    expected = f"restriction={want.render()}; fixture-consistent=true"
    details = (
        f"full fixture {fx.residual_class.render()} (d1 term quoted, not re-derived)",
    )
    return StepReport("residual-class", _verdict(ok), computed, expected, details)


@_per_fixtures
def double_triple_value(fx: Fixtures) -> Poly:
    """The two-triple-root class on the boundary, over Z[l1,l2,d1]."""
    t = DOUBLE_TRIPLE_TABLE
    g1, g2 = Poly.var(t, "g1"), Poly.var(t, "g2")
    src = SpaceDescriptor(
        [SpaceFactor(1, g1, Poly.zero(t), "u1"), SpaceFactor(1, g2, Poly.zero(t), "u2")]
    )
    mapping = MapDescriptor.product(src, [3, 3], ["h1", "h2"])
    value = pushforward(mapping, Poly.const(t, 1))
    substituted = value.substitute(dict(fx.boundary_weight_rules))
    rewritten = to_elementary_symmetric(substituted, ("a", "b"), ("l1", "l2"))
    return rewritten.change_table(fx.ambient, {"d": "d1"})


def step_double_triple_class(fx: Fixtures) -> StepReport:
    """Diagonal restriction vanishes; the torus restriction gives the class;
    the class lies in the ideal gathered so far."""
    ta = _vt(("d", 1), ("u1", 1), ("h", 1))
    dvar = Poly.var(ta, "d")
    diag_src = SpaceDescriptor([SpaceFactor(1, dvar, Poly.zero(ta), "u1")])
    diag = MapDescriptor.multiplication(diag_src, [3], "h")
    diag_value = pushforward(diag, Poly.const(ta, 1)).substitute({"h": dvar})

    value = double_triple_value(fx)
    l1, l2, d1 = (Poly.var(fx.ambient, n) for n in ("l1", "l2", "d1"))
    want = 36 * l2 * (d1**2 - 2 * l1 * d1 + 16 * l2 - 3 * l1**2)
    gathered = list(eliminated_node_ideal(fx)) + [
        fx.triple_root_class,
        fx.residual_class,
    ]
    member = ideal_contains(value, gathered)
    ok = diag_value.is_zero() and value == want and member
    computed = (
        f"diagonal={diag_value.render()}; class={value.render()};"
        f" membership={str(member).lower()}"
    )
    expected = f"diagonal=0; class={want.render()}; membership=true"
    details = (
        "membership checked in the eliminated node ideal plus the triple-root"
        " and residual classes; the two-triple-root class itself is NOT a"
        " generator of that ideal, despite loose namings that suggest it",
    )
    return StepReport("double-triple-class", _verdict(ok), computed, expected, details)


def step_final_presentation(fx: Fixtures) -> StepReport:
    """Assemble every relation and compare with the known ideal."""
    assembled = list(eliminated_node_ideal(fx)) + [
        fx.triple_root_class,
        fx.residual_class,
        double_triple_value(fx),
    ]
    final_ring = RingPresentation(fx.ambient, fx.final_ideal)
    equal = ideal_equal(assembled, final_ring.groebner())
    pieces = []
    for n in range(7):
        free, torsion = final_ring.piece(n).invariants()
        tors = ",".join(map(str, torsion)) or "-"
        pieces.append(f"deg {n}: free {free}, torsion {tors}")
    details = (
        "assembled: " + "; ".join(p.render() for p in assembled),
        "reference: " + "; ".join(p.render() for p in fx.final_ideal),
        "graded pieces: " + " | ".join(pieces),
    )
    return StepReport(
        "final-presentation",
        _verdict(equal),
        f"ideal_equal={str(equal).lower()}",
        "ideal_equal=true",
        details,
    )


def run_all(
    degree_bound: int = 8,
    oracle_trials: int = 20,
    seed: int = 0,
    fixtures: Optional[Fixtures] = None,
) -> PipelineReport:
    """Execute every step in dependency order; failures become mismatches."""
    fx = fixtures or Fixtures.default()
    steps: List[StepReport] = []

    def run(name, fn, *args):
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed step must not kill the report
            site = exc.__traceback__
            while site.tb_next is not None:
                site = site.tb_next
            code = site.tb_frame.f_code
            raised = (
                f"{type(exc).__name__} at {os.path.basename(code.co_filename)}:"
                f"{site.tb_lineno} in {code.co_name}"
            )
            result = StepReport(name, MISMATCH, f"error: {exc}", "no error", (raised,))
        elapsed = time.perf_counter() - start
        if isinstance(result, StepReport):
            result = [result]
        for idx, rep in enumerate(result):
            steps.append(replace(rep, elapsed=elapsed if idx == 0 else 0.0))

    run("patching", step_patching, fx, degree_bound)
    run("transfer", step_transfer, fx)
    run("localization", step_localization, fx, oracle_trials, seed)
    run("node-locus-class", step_node_locus_class, fx)
    run("node-image-ideal", step_node_image_ideal, fx)
    run("triple-root-class", step_triple_root_class, fx)
    run("residual-class", step_residual_class, fx)
    run("double-triple-class", step_double_triple_class, fx)
    run("final-presentation", step_final_presentation, fx)
    return PipelineReport(steps, degree_bound)
