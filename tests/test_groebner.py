import itertools
import math
import random
import time
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equichow import (
    MonomialOrder,
    Poly,
    PolyError,
    TableMismatch,
    VarTable,
    ideal_contains,
    ideal_equal,
    ideal_intersection,
    normal_form,
    strong_groebner,
)
from equichow import groebner
from equichow.groebner import IdealBasis, _lead, _reduce
from equichow.poly import _Packing
from equichow.pipeline import double_triple_value, eliminated_node_ideal
from conftest import random_homogeneous
from oracles import (
    DenseLattice,
    cached_key,
    containment_ideal_equal,
    order_key,
    plain_lead,
    plain_reduce,
    plain_strong_groebner,
    verify_strong,
)


def v(table, name):
    return Poly.var(table, name)


@pytest.fixture
def involution_ideal(boundary_table):
    l1, x = v(boundary_table, "l1"), v(boundary_table, "x")
    return [2 * x, x * x + l1 * x]


def test_strong_basis_reduces_square(boundary_table, involution_ideal):
    basis = strong_groebner(involution_ideal, MonomialOrder.grevlex(boundary_table))
    x, l1 = v(boundary_table, "x"), v(boundary_table, "l1")
    assert normal_form(x * x, basis) == l1 * x
    assert verify_strong(basis)


def test_empty_generators_give_zero_ideal(boundary_table, rng):
    basis = strong_groebner([], MonomialOrder.grevlex(boundary_table))
    from conftest import random_poly

    p = random_poly(boundary_table, rng)
    assert normal_form(p, basis) == p


def test_unit_ideal(boundary_table, rng):
    basis = strong_groebner(
        [Poly.const(boundary_table, 1)], MonomialOrder.grevlex(boundary_table)
    )
    from conftest import random_poly

    p = random_poly(boundary_table, rng)
    assert normal_form(p, basis).is_zero()


def test_normal_form_cube(boundary_table, involution_ideal):
    basis = strong_groebner(involution_ideal, MonomialOrder.grevlex(boundary_table))
    x, l1 = v(boundary_table, "x"), v(boundary_table, "l1")
    assert normal_form(x**3, basis) == l1**2 * x
    assert normal_form(Poly.zero(boundary_table), basis).is_zero()


def test_generator_reduces_to_zero():
    t = VarTable([("l1", 1), ("l2", 2), ("d1", 1), ("e", 2)])
    e, l1, d1 = v(t, "e"), v(t, "l1"), v(t, "d1")
    gens = [2 * e, e * (l1 * d1 + e)]
    basis = strong_groebner(gens, MonomialOrder.grevlex(t))
    assert normal_form(2 * e, basis).is_zero()


def test_normal_form_requires_strong_basis(boundary_table, involution_ideal):
    loose = IdealBasis(
        tuple(involution_ideal), MonomialOrder.grevlex(boundary_table), False
    )
    with pytest.raises(PolyError):
        normal_form(v(boundary_table, "x"), loose)


def test_normal_form_idempotent(boundary_table, involution_ideal):
    rng = random.Random(17)
    basis = strong_groebner(involution_ideal, MonomialOrder.grevlex(boundary_table))
    from conftest import random_poly

    for _ in range(30):
        p = random_poly(boundary_table, rng, max_exp=3)
        nf = normal_form(p, basis)
        assert normal_form(nf, basis) == nf


def test_membership_two_is_not_invertible(ambient_table):
    l1 = v(ambient_table, "l1")
    assert not ideal_contains(l1, [2 * l1])
    assert ideal_contains(Poly.zero(ambient_table), [2 * l1])


def test_membership_double_triple_class(ambient_table):
    l1, l2, d1 = (v(ambient_table, n) for n in ("l1", "l2", "d1"))
    target = 36 * l2 * (d1**2 - 2 * l1 * d1 + 16 * l2 - 3 * l1**2)
    gens = [
        2 * d1 * (l1 + d1),
        d1**2 * (l1 + d1),
        24 * l1**2 - 48 * l2,
        20 * l1 * l2 - 4 * d1 * l2,
    ]
    assert ideal_contains(target, gens)


def test_ideal_equal_factored_generators(ambient_table):
    l1, d1 = v(ambient_table, "l1"), v(ambient_table, "d1")
    a = [2 * d1**2 + 2 * l1 * d1, d1**3 + d1**2 * l1]
    b = [2 * d1 * (l1 + d1), d1**2 * (l1 + d1)]
    assert ideal_equal(a, b)


def test_ideal_not_equal_index_two(boundary_table):
    x = v(boundary_table, "x")
    assert not ideal_equal([2 * x], [x])


def test_lex_order_is_supported(ambient_table):
    l1, l2, d1 = (v(ambient_table, n) for n in ("l1", "l2", "d1"))
    order = MonomialOrder.lex(("d1", "l2", "l1"))
    basis = strong_groebner([d1 - l1, l2 - l1 * l1], order)
    nf = normal_form(d1 * l2, basis)
    assert nf == l1**3


def _naive_membership(p, gens):
    """Degree-piece membership as integer lattice membership."""
    grade = p.homogeneous_grade()
    table = p.table
    monos = table.monomials_of_grade(grade)
    index = {m: i for i, m in enumerate(monos)}
    columns = []
    for g in gens:
        shift = grade - g.homogeneous_grade()
        if shift < 0:
            continue
        for m in table.monomials_of_grade(shift):
            prod = g * Poly(table, {m: 1})
            col = [0] * len(monos)
            for mono, coeff in prod.terms.items():
                col[index[mono]] = coeff
            columns.append(col)
    target = [0] * len(monos)
    for mono, coeff in p.terms.items():
        target[index[mono]] = coeff
    return DenseLattice(columns, len(monos)).coordinates(target) is not None


def test_membership_agrees_with_naive_search(ambient_table):
    rng = random.Random(4242)
    checked = 0
    hits = 0
    while checked < 50:
        gens = [
            g
            for g in (
                random_homogeneous(ambient_table, rng, rng.randint(1, 2))
                for _ in range(2)
            )
            if not g.is_zero()
        ]
        if not gens:
            continue
        if checked % 2:
            p = random_homogeneous(ambient_table, rng, rng.randint(1, 3))
        else:
            # construct a guaranteed member so both answers get exercised
            p = Poly.zero(ambient_table)
            for g in gens:
                mult = random_homogeneous(
                    ambient_table, rng, rng.randint(0, 1), coeff=3
                )
                p = p + mult * g
        if p.homogeneous_grade() is None:
            continue
        naive = _naive_membership(p, gens)
        fast = ideal_contains(p, gens)
        assert naive == fast
        hits += int(naive)
        checked += 1
    assert 0 < hits < checked  # the sample exercises both answers


def test_groebner_deterministic(boundary_table, involution_ideal):
    order = MonomialOrder.grevlex(boundary_table)
    a = strong_groebner(involution_ideal, order)
    b = strong_groebner(involution_ideal, order)
    assert [p.render() for p in a.polys] == [p.render() for p in b.polys]


def test_gcd_combination_membership():
    # x*y = 2y*(x) ... requires the gcd (G-polynomial) pair: over a field
    # x*y would reduce trivially, but over Z it only appears via 1 = 3 - 2
    t = VarTable([("x", 1), ("y", 1)])
    x, y = v(t, "x"), v(t, "y")
    assert ideal_contains(x * y, [2 * x, 3 * y])
    assert not ideal_contains(x, [2 * x, 3 * y])
    assert not ideal_contains(y * y, [2 * x, 3 * y])


def test_basis_generates_same_ideal_cross_checked(ambient_table):
    """Close the loop with the independent SNF membership route: the
    computed basis and the input generators must span the same ideal."""
    rng = random.Random(909)
    order = MonomialOrder.grevlex(ambient_table)
    for _ in range(15):
        gens = [
            g
            for g in (
                random_homogeneous(ambient_table, rng, rng.randint(1, 2), coeff=4)
                for _ in range(rng.randint(1, 3))
            )
            if not g.is_zero()
        ]
        if not gens:
            continue
        basis = strong_groebner(gens, order)
        assert verify_strong(basis)
        for g in gens:
            assert normal_form(g, basis).is_zero()
        for b in basis.polys:
            grade = b.homogeneous_grade()
            if grade is not None and grade <= 4:
                assert _naive_membership(b, gens)


XY = VarTable([("x", 1), ("y", 1)])
XY_MONOS = [m for d in range(3) for m in XY.monomials_of_grade(d)]


def test_inhomogeneous_basis_is_pinned():
    """An ideal whose completion in pair-arrival order ran for minutes."""
    x, y = v(XY, "x"), v(XY, "y")
    gens = [
        -4 * x**2 - 2 * y**2 - 4 * x - 3 * y - 3,
        -3 * x * y + 2 * y,
        3 * x**2 - 3 * x + 3 * y - 2,
    ]
    basis = strong_groebner(gens, MonomialOrder.grevlex(XY))
    one = Poly.const(XY, 1)
    assert basis.polys == (296411 * one, x + 233277, y + 98908)
    assert normal_form(x**3, basis) == 171267 * one


def test_normal_form_normalizes_caller_basis_leads(involution_ideal, boundary_table):
    order = MonomialOrder.grevlex(boundary_table)
    basis = strong_groebner(involution_ideal, order)
    negated = IdealBasis(tuple(-g for g in basis.polys), order, True)
    x, l1 = v(boundary_table, "x"), v(boundary_table, "l1")
    for p in (x**3, 3 * x**2 + l1, 5 * x - 7):
        assert normal_form(p, negated) == normal_form(p, basis)


def test_basis_does_not_depend_on_generator_order(fixtures):
    relations = list(eliminated_node_ideal(fixtures)) + [
        fixtures.triple_root_class,
        fixtures.residual_class,
        double_triple_value(fixtures),
    ]
    assert len(relations) == 6
    order = MonomialOrder.grevlex(fixtures.ambient)
    want = strong_groebner(fixtures.final_ideal, order).polys
    orderings = random.Random(6).sample(list(itertools.permutations(range(6))), 12)
    for perm in orderings:
        assert strong_groebner([relations[i] for i in perm], order).polys == want


coefficients = st.integers(-4, 4)
xy_polys = st.lists(coefficients, min_size=len(XY_MONOS), max_size=len(XY_MONOS)).map(
    lambda cs: Poly(XY, dict(zip(XY_MONOS, cs)))
)


def forms(table, grades, values=coefficients):
    """Homogeneous polynomials on `table` of a grade drawn from `grades`."""
    return st.sampled_from(grades).flatmap(
        lambda n: st.lists(
            values,
            min_size=len(table.monomials_of_grade(n)),
            max_size=len(table.monomials_of_grade(n)),
        ).map(lambda cs: Poly(table, dict(zip(table.monomials_of_grade(n), cs))))
    )


xy_forms = forms(XY, (1, 2, 3))
# the shape `ideal_intersection` completes: t*f or (1 - t)*f for forms f
# free of t, homogeneous once t counts as degree 0
TXY = VarTable([("t", 1), ("x", 1), ("y", 1)])
TXY_T = Poly.var(TXY, "t")
txy_polys = st.tuples(st.booleans(), forms(XY, (1, 2))).map(
    lambda pair: (TXY_T if pair[0] else 1 - TXY_T) * pair[1].change_table(TXY)
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    gens=st.lists(xy_polys, min_size=1, max_size=3),
    p=xy_polys,
    multipliers=st.lists(xy_polys, min_size=3, max_size=3),
)
def test_random_ideal_properties(gens, p, multipliers):
    basis = strong_groebner(gens, MonomialOrder.grevlex(XY))
    assert verify_strong(basis)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    nf = normal_form(p, basis)
    assert normal_form(nf, basis) == nf
    member = Poly.zero(XY)
    for g, m in zip(gens, multipliers):
        member = member + m * g
    assert normal_form(member, basis).is_zero()
    assert normal_form(p + member, basis) == nf


# Small fixed strategies: completion cost grows fast with the number and
# degree of the generators, so these draws stay cheap and reproducible.
small = settings(max_examples=40, deadline=None, derandomize=True)
W = VarTable([("a", 1), ("b", 1), ("c", 2)])
w_polys = forms(W, (2, 3), st.integers(-3, 3))
# grevlex takes any generators; lex and elim take homogeneous ones
ORDERS = {
    "xy-grevlex": (xy_polys, MonomialOrder.grevlex(XY)),
    "xy-grevlex-x-first": (xy_polys, MonomialOrder("grevlex", ("x", "y"))),
    "xy-lex": (xy_forms, MonomialOrder.lex(("x", "y"))),
    # the order of `ideal_intersection`: one variable, then grevlex
    "xy-elim": (xy_forms, MonomialOrder("elim", ("y", "x"))),
    "txy-elim-t-at-0": (txy_polys, MonomialOrder("elim", ("t", "y", "x"))),
    "weighted-grevlex": (w_polys, MonomialOrder.grevlex(W)),
    "weighted-elim": (w_polys, MonomialOrder("elim", ("c", "b", "a"))),
}


@pytest.mark.parametrize("name", sorted(ORDERS))
@small
@given(data=st.data())
def test_criteria_match_plain_completion(name, data):
    polys, order = ORDERS[name]
    gens = data.draw(st.lists(polys, min_size=2, max_size=2))
    basis = strong_groebner(gens, order)
    assert basis.polys == plain_strong_groebner(gens, order).polys
    # completing a reduced basis, in either order, gives it back
    assert strong_groebner(basis.polys, order).polys == basis.polys
    assert strong_groebner(basis.polys[::-1], order).polys == basis.polys


@pytest.mark.parametrize("name", sorted(ORDERS))
@small
@given(data=st.data())
def test_normal_form_matches_plain_reduce(name, data):
    """normal_form on the packed basis against division on exponent tuples
    by the basis's leads, for drawn polynomials and ideal members."""
    polys, order = ORDERS[name]
    gens = data.draw(st.lists(polys, min_size=1, max_size=2))
    basis = strong_groebner(gens, order)
    key = cached_key(order, basis.table if basis.polys else gens[0].table)
    leads = [plain_lead(g, key) for g in basis.polys]
    multipliers = data.draw(st.lists(polys, min_size=len(gens), max_size=len(gens)))
    p = data.draw(polys)
    member = sum((m * g for m, g in zip(multipliers, gens)), Poly.zero(p.table))
    # p * p + p + 1 is inhomogeneous, which normal_form takes under every order
    for q in (p, member, p * p + member, p * p + p + 1):
        assert normal_form(q, basis) == plain_reduce(q, leads, key)
    assert normal_form(member, basis).is_zero()


EDGE = st.sampled_from((3, 4, 7, 8))
EDGE_COEFFICIENTS = st.sampled_from((-2, -1, 1, 2))
LEX_AND_ELIM = (MonomialOrder.lex(("x", "y")), MonomialOrder("elim", ("y", "x")))


@st.composite
def edge_ideals(draw):
    """Inhomogeneous x + y^e (or its mirror image) next to x^a*y^b + y^f,
    with e and a + b at 2^k - 1 or 2^k, the largest grade that k-bit fields
    hold and the smallest that needs one more bit.  Of the order kinds,
    only grevlex takes them."""
    e, total = draw(EDGE), draw(EDGE)
    a = draw(st.integers(1, total))
    first = {(1, 0): draw(EDGE_COEFFICIENTS), (0, e): draw(EDGE_COEFFICIENTS)}
    second = {(a, total - a): draw(EDGE_COEFFICIENTS)}
    f = draw(st.integers(0, total))
    second[(0, f)] = second.get((0, f), 0) + draw(EDGE_COEFFICIENTS)
    if draw(st.booleans()):
        first = {m[::-1]: c for m, c in first.items()}
        second = {m[::-1]: c for m, c in second.items()}
    return [Poly(XY, first), Poly(XY, second)]


@st.composite
def homogeneous_edge_ideals(draw, order):
    """Two binomials, each homogeneous of a grade at 2^k - 1 or 2^k, or each
    the other variable's power times a binomial in the order's first
    variable at such a grade: the two shapes that lex and elim take."""
    first = XY.index(order.priority[0])
    at_zero = draw(st.booleans())
    gens = []
    for _ in range(2):
        e = draw(EDGE)
        if at_zero:
            other = draw(st.integers(0, 3))
            exponents = (e, draw(st.integers(0, e - 1)))
            monos = [(k, other) if first == 0 else (other, k) for k in exponents]
        else:
            i, j = draw(st.lists(st.integers(0, e), min_size=2, max_size=2, unique=True))
            monos = [(i, e - i), (j, e - j)]
        gens.append(Poly(XY, {m: draw(EDGE_COEFFICIENTS) for m in monos}))
    return gens


edge_cases = st.tuples(edge_ideals(), st.just(MonomialOrder.grevlex(XY))) | st.sampled_from(
    LEX_AND_ELIM
).flatmap(lambda order: st.tuples(homogeneous_edge_ideals(order), st.just(order)))


@settings(max_examples=90, deadline=None, derandomize=True)
@given(case=edge_cases)
def test_completion_near_the_field_width_matches_plain_completion(case):
    gens, order = case
    basis = strong_groebner(gens, order)
    assert basis.polys == plain_strong_groebner(gens, order).polys
    key = cached_key(order, XY)
    p = v(XY, "x") ** 9 * v(XY, "y") + v(XY, "y") ** 17 + 3
    assert normal_form(p, basis) == plain_reduce(p, [plain_lead(g, key) for g in basis.polys], key)


T3 = VarTable([("a", 1), ("b", 1), ("c", 1)])


def test_completion_that_must_widen_the_fields(monkeypatch):
    """One homogeneous ideal whose completion outgrows the fields it starts
    with under each order kind: a pair's lcm grade passes them.  Each
    completion builds a wider packing and still matches the completion on
    exponent tuples, and so does a normal form that outgrows the basis's
    fields."""
    a, b, c = (v(T3, n) for n in ("a", "b", "c"))
    widths = []

    class Recorded(_Packing):
        def __init__(self, *args):
            super().__init__(*args)
            widths.append(self.capacity)

    monkeypatch.setattr(groebner, "_Packing", Recorded)
    gens = [b**3 - c**2 * a, b * c**2 - a**3]
    graded = [b**9 - b * c**8, a * c**2 - b**3, a * b**6 - b * c**6, a**2 * b**3 - b * c**4]
    graded.append(a**3 - b * c**2)
    for order, want in (
        (MonomialOrder.grevlex(T3), [b**3 - a * c**2, b * c**2 - a**3, a * c**4 - a**3 * b**2]),
        (MonomialOrder.lex(("a", "b", "c")), graded),
        (MonomialOrder("elim", ("a", "b", "c")), graded),
    ):
        widths.clear()
        basis = strong_groebner(gens, order)
        assert len(widths) > 1 and widths[-1] > widths[0]
        assert set(basis.polys) == set(want)
        assert basis.polys == plain_strong_groebner(gens, order).polys
        key = cached_key(order, T3)
        leads = [plain_lead(g, key) for g in basis.polys]
        widths.clear()
        p = a**40 * b**90 + b**40 * c + 5
        assert normal_form(p, basis) == plain_reduce(p, leads, key)
        assert widths and widths[-1] >= 130


def test_completing_a_reduced_basis_reduces_no_tail(monkeypatch):
    """`_minimize` keeps a tail that is already a canonical remainder, such
    as 4*y^2 next to the lead 8*y^2 in the lex basis 8*y^2, 2*x,
    x*y + 4*y^2."""
    x, y = v(XY, "x"), v(XY, "y")
    a, b, c = (v(W, n) for n in ("a", "b", "c"))
    cases = [
        ([2 * x * y + y, 3 * x * x - y * y], MonomialOrder.grevlex(XY)),
        ([2 * x, x * y - 4 * y * y], MonomialOrder.lex(("x", "y"))),
        ([2 * a * b - c, 3 * a * a + b * b, 4 * c * a - b**3], MonomialOrder.grevlex(W)),
    ]
    true_reduce, true_minimize = groebner._reduce, groebner._minimize
    tail_reductions = []
    in_minimize = []

    def counting_reduce(work, leads, packing, divisors):
        if in_minimize:
            tail_reductions.append(dict(work))
        return true_reduce(work, leads, packing, divisors)

    def flagged_minimize(basis, packing):
        in_minimize.append(True)
        try:
            return true_minimize(basis, packing)
        finally:
            in_minimize.pop()

    for gens, order in cases:
        basis = strong_groebner(gens, order)
        assert any(len(g.terms) > 1 for g in basis.polys)
        monkeypatch.setattr(groebner, "_reduce", counting_reduce)
        monkeypatch.setattr(groebner, "_minimize", flagged_minimize)
        assert strong_groebner(basis.polys, order).polys == basis.polys
        assert strong_groebner(basis.polys[::-1], order).polys == basis.polys
        monkeypatch.undo()
        assert tail_reductions == []
    # a tail that is not reduced is still reduced
    monkeypatch.setattr(groebner, "_reduce", counting_reduce)
    monkeypatch.setattr(groebner, "_minimize", flagged_minimize)
    basis = strong_groebner([x * y + y * y, y * y], MonomialOrder.grevlex(XY))
    assert set(basis.polys) == {x * y, y * y}
    assert tail_reductions


@small
@given(
    gens=st.lists(xy_polys, min_size=1, max_size=2),
    multipliers=st.lists(xy_polys, min_size=2, max_size=2),
    scale=st.sampled_from((1, 2, 3)),
    reduced=st.booleans(),
)
def test_ideal_equal_agrees_with_mutual_containment(gens, multipliers, scale, reduced):
    """The same ideal with a member added, and the ideal with its first
    generator scaled, which may or may not be the same ideal; the first
    side is either the generators or their reduced strong basis."""
    member = sum((m * g for m, g in zip(multipliers, gens)), Poly.zero(XY))
    first = list(strong_groebner(gens, MonomialOrder.grevlex(XY)).polys) if reduced else gens
    for other in (gens + [member], [scale * gens[0]] + gens[1:]):
        want = containment_ideal_equal(gens, other)
        assert ideal_equal(first, other) == want
        assert ideal_equal(other, first) == want
    assert ideal_equal(first, gens + [member])


def test_ideal_equal_completion_count(monkeypatch):
    """One completion decides when the first side holds the second side's
    reduced basis or leaves its ideal; only the remaining case needs two.
    A strong basis as the second side is used as it is: that side is never
    completed."""
    x, y = v(XY, "x"), v(XY, "y")
    order = MonomialOrder.grevlex(XY)
    gens = [2 * x * y + x * x, 3 * y * y]
    reduced = list(strong_groebner(gens, order).polys)
    cases = [
        (reduced, gens, True, 1),
        ([x], [2 * x], False, 1),
        ([x + y, x - y], [2 * x, x + y], True, 2),
    ]
    cases += [
        (a, strong_groebner(b, order), want, completions - 1)
        for a, b, want, completions in cases
    ]
    true_groebner = groebner.strong_groebner
    calls = []

    def counting_groebner(gens, order):
        calls.append(gens)
        return true_groebner(gens, order)

    monkeypatch.setattr(groebner, "strong_groebner", counting_groebner)
    for a, b, want, completions in cases:
        calls.clear()
        assert ideal_equal(a, b, order) == want
        assert len(calls) == completions
        if isinstance(b, IdealBasis):
            assert ideal_equal(a, b) == want


def test_ideal_equal_takes_no_normal_form_of_a_basis_element(monkeypatch, fixtures):
    """When a's generators are b's reduced basis, no normal form is taken
    and the verdict is True; with one more generator of a, only that one
    is normal-formed.  The verdicts equal mutual containment's."""
    reference = list(fixtures.final_ideal)
    order = MonomialOrder.grevlex(fixtures.ambient)
    reduced = list(strong_groebner(reference, order).polys)
    d1 = v(fixtures.ambient, "d1")
    true_normal_form = groebner.normal_form
    taken = []

    def counting_normal_form(p, basis):
        taken.append(p)
        return true_normal_form(p, basis)

    monkeypatch.setattr(groebner, "normal_form", counting_normal_form)
    for a, want, forms in [(reduced, True, 0), (reduced + [d1], False, 1)]:
        taken.clear()
        assert ideal_equal(a, reference, order) is want
        assert len(taken) == forms
        assert ideal_equal(a, strong_groebner(reference, order)) is want
    monkeypatch.undo()
    assert containment_ideal_equal(reduced, reference, order)
    assert not containment_ideal_equal(reduced + [d1], reference, order)


def test_ideal_equal_rejects_a_basis_in_another_order():
    x, y = v(XY, "x"), v(XY, "y")
    basis = strong_groebner([x * x + y * y, x * y], MonomialOrder.lex(("x", "y")))
    assert ideal_equal([x * y, x * x + y * y], basis)
    with pytest.raises(PolyError):
        ideal_equal([x * y, x * x + y * y], basis, MonomialOrder.grevlex(XY))


def test_ideal_equal_rejects_mixed_tables():
    """Z[x,y] with deg y = 1 and with deg y = 2 are different rings."""
    heavy = VarTable([("x", 1), ("y", 2)])
    x, y = v(XY, "x"), v(XY, "y")
    with pytest.raises(TableMismatch):
        ideal_equal([x, y], [v(heavy, "x"), v(heavy, "y")])
    with pytest.raises(TableMismatch):
        ideal_equal([x, v(heavy, "y")], [x, y])


def test_completion_calls_the_traced_kernels(monkeypatch):
    """The benchmark's trace counts pairs and G-polynomials by rebinding
    these module globals, so completion must call them through the module."""
    x, y = v(XY, "x"), v(XY, "y")
    counts = {}
    for name in ("spolynomial", "gpolynomial", "_reduce"):
        true_fn = getattr(groebner, name)

        def counting(*args, _fn=true_fn, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(groebner, name, counting)
    strong_groebner([2 * x * y + x * x, 3 * y * y], MonomialOrder.grevlex(XY))
    assert set(counts) == {"spolynomial", "gpolynomial", "_reduce"}
    assert min(counts.values()) > 0


@pytest.mark.parametrize("name", sorted(ORDERS))
@small
@given(data=st.data())
def test_reduce_terms_matches_plain_reduce(name, data):
    """One divisor memo serves a growing list of leads, as in completion."""
    polys, order = ORDERS[name]
    nonzero = polys.filter(lambda p: not p.is_zero())
    pending = data.draw(st.lists(nonzero, min_size=2, max_size=4))
    table = pending[0].table
    key = cached_key(order, table)
    # fields wide enough for every exponent these reductions reach
    packing = _Packing(table, 255, order)
    targets = data.draw(st.lists(polys, min_size=len(pending), max_size=len(pending)))
    leads, plain_leads, divisors = [], [], {}
    for g, p in zip(pending, targets):
        leads.append(_lead(packing.terms(g), packing))
        plain_leads.append(plain_lead(g, key))
        got = _reduce(packing.terms(p), leads, packing, divisors)
        assert packing.poly(got) == plain_reduce(p, plain_leads, key)


MONOS3 = st.tuples(*[st.integers(0, 4)] * 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=MONOS3, n=MONOS3)
def test_order_keys_match_formulas(m, n):
    """The oracle's tuple keys follow the written formulas, and the packed
    keys compare as the formulas do.  On the packing a product is a sum, a
    quotient by a non-divisor sets a guard bit, and the lcm is the
    fieldwise maximum."""
    lcm = tuple(map(max, m, n))
    for order, table, formula in (
        (MonomialOrder.grevlex(T3), T3, lambda a, b, c: (a + b + c, (-a, -b, -c))),
        (MonomialOrder("grevlex", ("a", "b", "c")), T3, lambda a, b, c: (a + b + c, (-c, -b, -a))),
        (MonomialOrder.grevlex(W), W, lambda a, b, c: (a + b + 2 * c, (-a, -b, -c))),
        (MonomialOrder.lex(("b", "a", "c")), T3, lambda a, b, c: (b, a, c)),
        (MonomialOrder("elim", ("c", "a", "b")), T3, lambda a, b, c: (c, (a + b + c, (-b, -a, -c)))),
        (MonomialOrder("elim", ("c", "a", "b")), W, lambda a, b, c: (c, (a + b + 2 * c, (-b, -a, -c)))),
    ):
        want_m, want_n = formula(*m), formula(*n)
        assert order_key(order, table)(m) == want_m
        packing = _Packing(table, 8, order)
        pm, pn = packing.pack(m), packing.pack(n)
        assert (pm > pn) == (want_m > want_n)
        assert (pm == pn) == (m == n)
        assert tuple(packing.exponents(packing.sign * pm)) == m
        assert packing.pack(map(add, m, n)) == pm + pn
        divides = all(x <= y for x, y in zip(m, n))
        assert (not packing.sign * (pn - pm) & packing.guards) == divides
        fields = packing.fields_max(packing.sign * pm & packing.low, packing.sign * pn & packing.low)
        assert packing.key(fields) == packing.pack(lcm)
        assert packing.grade(fields) == table.grade(lcm)


@pytest.mark.parametrize("kind", ["grevlex", "lex", "elim", None])
def test_fields_hold_exactly_the_capacity(kind):
    """A packing's fields hold every exponent up to `capacity`, which is at
    least the bound it was made for, and one more sets the guard bit: the
    check that completion and normal forms rely on to widen in time."""
    order = MonomialOrder(kind, ("b", "c", "a")) if kind else None
    for bound in range(0, 70):
        packing = _Packing(W, bound, order)
        assert packing.capacity >= bound
        for slot in range(3):
            for e, guarded in ((packing.capacity, False), (packing.capacity + 1, True)):
                mono = [0, 0, 0]
                mono[slot] = e
                fields = packing.sign * packing.pack(mono) & packing.low
                assert bool(fields & packing.guards) == guarded
                if not guarded:
                    assert tuple(packing.exponents(fields)) == tuple(mono)


def test_ideal_equal_sees_both_answers():
    x, y = v(XY, "x"), v(XY, "y")
    for a, b, want in (
        ([2 * x, 3 * y], [2 * x, 3 * y, x * y], True),
        ([2 * x, 3 * y], [4 * x, 3 * y], False),
        ([x * x - y], [y - x * x, x**3 - x * y], True),
        ([Poly.zero(XY)], [], True),
        ([x], [Poly.zero(XY)], False),
    ):
        assert ideal_equal(a, b) == want
        assert containment_ideal_equal(a, b) == want


XYZ = VarTable([("x", 1), ("y", 1), ("z", 2)])
term_lists = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 6)), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=term_lists, b=term_lists)
def test_intersection_of_term_ideals(a, b):
    """Ideals generated by terms c*m meet in the ideal of the pairwise
    lcm(c, c')*lcm(m, m'): a term lies in a term ideal iff the gcd of the
    coefficients of the generators whose monomial divides it divides its
    coefficient, and gcd and lcm distribute over each other."""
    gens_a = [Poly(XYZ, {m: c}) for m, c in a]
    gens_b = [Poly(XYZ, {m: c}) for m, c in b]
    expected = [
        Poly(XYZ, {tuple(map(max, m, n)): math.lcm(c, d)}) for m, c in a for n, d in b
    ]
    assert ideal_equal(ideal_intersection(gens_a, gens_b), expected)


def test_intersection_examples():
    x, y, z = (v(XYZ, n) for n in ("x", "y", "z"))
    t = VarTable([("t", 1), ("x", 1)])
    for a, b, want in (
        ([x + y], [x - y], [x * x - y * y]),
        ([2 * x, x * x + z], [3 * y], [6 * x * y, 3 * x * x * y + 3 * y * z]),
        ([x], [y], [x * y]),
        ([v(t, "t")], [v(t, "x")], [v(t, "t") * v(t, "x")]),
    ):
        assert ideal_equal(ideal_intersection(a, b), want)
    assert ideal_intersection([x], []) == ideal_intersection([Poly.zero(XYZ)], [x]) == ()
    # inhomogeneous ideals are refused, although their intersections exist
    for a, b in (([x - 1], [x - 2]), ([2 * x + 1], [3 * x - 1])):
        with pytest.raises(PolyError, match="^ideal_intersection needs homogeneous generators$"):
            ideal_intersection(a, b)


W_FORMS = forms(W, (1, 2), st.integers(-3, 3)).filter(lambda p: not p.is_zero())


@example(
    gens_a=[v(W, "a") * v(W, "b") + v(W, "c")], gens_b=[2 * v(W, "a"), v(W, "b") ** 2 - v(W, "c")]
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gens_a=st.lists(W_FORMS, min_size=1, max_size=2),
    gens_b=st.lists(W_FORMS, min_size=1, max_size=2),
)
def test_intersection_cross_checked_on_homogeneous_ideals(gens_a, gens_b):
    """I ∩ J for homogeneous I, J on a table with a weighted variable: every
    output lies in I and in J, every product of a generator of I and one of
    J lies in the ideal of the outputs, and that ideal is the t-free part
    of the completion of t*I + (1 - t)*J with no pair criteria, under the
    same elimination order."""
    got = ideal_intersection(gens_a, gens_b)
    order = MonomialOrder.grevlex(W)
    meet = strong_groebner(got, order)
    for gens in (gens_a, gens_b):
        basis = strong_groebner(gens, order)
        assert all(normal_form(h, basis).is_zero() for h in got)
    assert all(normal_form(f * g, meet).is_zero() for f in gens_a for g in gens_b)
    t = "t" + "_" * max(map(len, W.names))
    wide = VarTable([(t, 1), *zip(W.names, W.degrees)])
    t_poly = Poly.var(wide, t)
    lifted = [t_poly * f.change_table(wide) for f in gens_a]
    lifted += [(1 - t_poly) * g.change_table(wide) for g in gens_b]
    plain = plain_strong_groebner(lifted, MonomialOrder("elim", (t, *reversed(W.names))))
    free = [g.change_table(W) for g in plain.polys if not any(m[0] for m in g.terms)]
    assert ideal_equal(got, free)


TX = VarTable([("t", 1), ("x", 1)])


def test_lex_and_elim_refuse_generators_outside_the_field_rule():
    """Lex and elim take only generators that are all homogeneous, with the
    order's first variable at its degree in all or at degree 0 in all.  An
    inhomogeneous pair is refused at once, and so is a set mixing the two
    shapes: t - x is homogeneous only with t at its degree, t*x^2 + x^2
    only with t at 0, and their S-polynomials keep neither grading.
    Grevlex completes the same sets."""
    x, y = v(XY, "x"), v(XY, "y")
    t, tx = v(TX, "t"), v(TX, "x")
    inhomogeneous = [x * x - y, x * y - 1]
    text = "{} takes only generators that are all homogeneous, with {} at its degree in all or at degree 0 in all"
    for gens, order, want in (
        (inhomogeneous, MonomialOrder.lex(("x", "y")), text.format("lex", "x")),
        (inhomogeneous, MonomialOrder("elim", ("y", "x")), text.format("elim", "y")),
        ([t - tx, t * tx**2 + tx**2], MonomialOrder("elim", ("t", "x")), text.format("elim", "t")),
    ):
        start = time.perf_counter()
        with pytest.raises(PolyError) as refused:
            strong_groebner(gens, order)
        assert time.perf_counter() - start < 0.01
        assert str(refused.value) == want
        assert verify_strong(strong_groebner(gens, MonomialOrder.grevlex(gens[0].table)))
    start = time.perf_counter()
    with pytest.raises(PolyError) as refused:
        ideal_equal(inhomogeneous, [x * x - y], MonomialOrder.lex(("x", "y")))
    assert str(refused.value) == text.format("lex", "x")
    # a basis marked strong by its caller meets the same rule in normal_form
    with pytest.raises(PolyError) as refused:
        normal_form(x, IdealBasis(tuple(inhomogeneous), MonomialOrder.lex(("x", "y")), True))
    assert str(refused.value) == text.format("lex", "x")
    with pytest.raises(PolyError) as refused:
        ideal_intersection([x - 1], [x - 2])
    assert str(refused.value) == "ideal_intersection needs homogeneous generators"
    assert time.perf_counter() - start < 0.02
    assert ideal_equal(inhomogeneous, inhomogeneous[::-1])
