import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichow import (
    GradeMismatch,
    Poly,
    PolyError,
    RingHom,
    RingPresentation,
    VarTable,
    is_nonzerodivisor,
    verify_cartesian,
)
from equichow.pipeline import Fixtures, c1_of_character
from equichow.presentation import CartesianSquareSpec, WellDefinednessError
from conftest import doubling_square, random_homogeneous
from oracles import nonzerodivisor_up_to


def v(table, name):
    return Poly.var(table, name)


def test_graded_piece_of_patched_ring(fixtures):
    assert fixtures.total.piece(1).invariants() == (2, ())


def test_graded_piece_free_polynomial_ring():
    t = VarTable([("l1", 1), ("l2", 2)])
    assert RingPresentation(t, []).piece(2).invariants() == (2, ())


def test_graded_piece_pure_torsion():
    t = VarTable([("x", 1)])
    pres = RingPresentation(t, [2 * v(t, "x")])
    assert pres.piece(1).invariants() == (0, (2,))


def test_graded_piece_independent_of_orderings(fixtures):
    base = fixtures.boundary.piece(4).invariants()
    permuted_table = VarTable([("x", 1), ("d1", 1), ("l2", 2), ("l1", 1)])
    rels = [r.change_table(permuted_table) for r in fixtures.boundary.relations]
    permuted = RingPresentation(permuted_table, list(reversed(rels)))
    assert permuted.piece(4).invariants() == base


def test_graded_piece_rejects_inhomogeneous():
    t = VarTable([("l1", 1), ("l2", 2)])
    with pytest.raises(PolyError):
        RingPresentation(t, [v(t, "l1") + v(t, "l2")])


def dense_form(draw, table, grade):
    """A form of the grade with a drawn coefficient in [-3, 3] on every
    monomial."""
    monos = table.monomials_of_grade(grade)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
    return Poly(table, dict(zip(monos, coeffs)))


@st.composite
def multi_term_maps(draw):
    """Dense random images of a:1 and b:2 in Z[u, v, w] (w of degree 2),
    and a random polynomial in a and b."""
    source = VarTable([("a", 1), ("b", 2)])
    target = VarTable([("u", 1), ("v", 1), ("w", 2)])
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 2))
    terms = draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=5))
    images = {"a": dense_form(draw, target, 1), "b": dense_form(draw, target, 2)}
    return images, Poly(source, terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=multi_term_maps())
def test_raw_apply_matches_naive_sum(case):
    images, p = case
    source, target = p.table, images["a"].table
    hom = RingHom(RingPresentation(source, []), RingPresentation(target, []), images)
    naive = Poly.zero(target)
    for mono, coeff in p.terms.items():
        term = Poly.const(target, coeff)
        for name, e in zip(source.names, mono):
            term = term * images[name] ** e
        naive = naive + term
    got = hom._raw_apply(p)
    assert got == naive
    assert all(got.terms.values())


def test_hom_restriction_kills_boundary_classes(fixtures):
    tp = fixtures.total.table
    to = fixtures.open_part.table
    hom = RingHom(
        fixtures.total,
        fixtures.open_part,
        {
            "l1": v(to, "l1"),
            "l2": v(to, "l2"),
            "d1": Poly.zero(to),
            "e": Poly.zero(to),
        },
    )
    d1, l1, e = v(tp, "d1"), v(tp, "l1"), v(tp, "e")
    assert hom.apply(e + d1 * (l1 + d1)).is_zero()


def test_hom_pullback_of_pushforward_class(fixtures):
    tb = fixtures.boundary.table
    hom = RingHom(
        fixtures.total,
        fixtures.boundary,
        {
            "l1": v(tb, "l1"),
            "l2": v(tb, "l2"),
            "d1": v(tb, "d1"),
            "e": v(tb, "d1") * v(tb, "x"),
        },
    )
    assert hom.apply(v(fixtures.total.table, "e")) == v(tb, "d1") * v(tb, "x")


def test_identity_hom(fixtures, rng):
    tb = fixtures.boundary.table
    hom = RingHom(
        fixtures.boundary,
        fixtures.boundary,
        {n: v(tb, n) for n in tb.names},
    )
    p = random_homogeneous(tb, rng, 3)
    assert hom.apply(p) == fixtures.boundary.normal_form(p)


def test_hom_rejects_ill_defined_map(fixtures):
    to = fixtures.open_part.table
    with pytest.raises(WellDefinednessError):
        RingHom(
            fixtures.boundary,
            fixtures.open_part,
            {
                "l1": v(to, "l1"),
                "l2": v(to, "l2"),
                "d1": Poly.zero(to),
                "x": v(to, "l1"),  # 2x would map to 2*l1, not a relation
            },
        )


def test_hom_multiplicative_and_graded(fixtures):
    rng = random.Random(8)
    tb = fixtures.boundary.table
    hom = RingHom(
        fixtures.total,
        fixtures.boundary,
        {
            "l1": v(tb, "l1"),
            "l2": v(tb, "l2"),
            "d1": v(tb, "d1"),
            "e": v(tb, "d1") * v(tb, "x"),
        },
    )
    for _ in range(15):
        grade_p = rng.randint(1, 3)
        p = random_homogeneous(fixtures.total.table, rng, grade_p)
        q = random_homogeneous(fixtures.total.table, rng, rng.randint(1, 3))
        left = hom.apply(fixtures.total.normal_form(p * q))
        right = fixtures.boundary.normal_form(hom.apply(p) * hom.apply(q))
        assert left == right
        image = hom.apply(p)
        assert image.is_zero() or image.homogeneous_grade() == grade_p


def test_cartesian_square_of_patched_ring(fixtures):
    report = verify_cartesian(fixtures.patch_square(), 4)
    assert report.passed
    assert [c.degree for c in report.checks] == [0, 1, 2, 3, 4]


def test_cartesian_negative_control_fails_in_degree_two(fixtures):
    tp = fixtures.total.table
    e, l1, d1 = v(tp, "e"), v(tp, "l1"), v(tp, "d1")
    weakened = Fixtures.default(candidate_relations=[e * (l1 * d1 + e)])
    report = verify_cartesian(weakened.patch_square(), 3)
    assert not report.passed
    assert report.first_failure() == 2


def test_cartesian_free_corner_fails(fixtures):
    free = Fixtures.default(candidate_relations=[])
    report = verify_cartesian(free.patch_square(), 2)
    assert report.first_failure() == 2


def test_cartesian_doubling_square_is_not_surjective():
    """A = B = C = D = Z[s] or Z[t] with s -> 2t on both sides: the corner
    and the fiber product Z[t] have equal invariants in every degree, but
    s^n only reaches 2^n t^n, so only surjectivity can fail."""
    report = verify_cartesian(doubling_square(), 2)
    assert [c.corner_invariants == c.fiber_invariants for c in report.checks] == [True] * 3
    assert [c.surjective for c in report.checks] == [True, False, False]
    assert report.first_failure() == 1


def _weakened_square():
    tp = Fixtures.default().total.table
    e, l1, d1 = v(tp, "e"), v(tp, "l1"), v(tp, "d1")
    return Fixtures.default(candidate_relations=[e * (l1 * d1 + e)]).patch_square()


def _free_corner_square():
    return Fixtures.default(candidate_relations=[]).patch_square()


@pytest.mark.parametrize(
    "square, bound, digest",
    [
        (_weakened_square, 8, "02d241818fc7"),
        (_free_corner_square, 8, "206bfcdcc6c0"),
        (doubling_square, 6, "3b6cfab1e9b5"),
    ],
    ids=["weakened", "free-corner", "doubling"],
)
def test_failing_square_reports_are_pinned(square, bound, digest):
    """Every line of a failing square's report, the failing degrees' fiber
    invariants included, hashes as the five-Smith-form check printed it."""
    lines = "\n".join(c.describe() for c in verify_cartesian(square(), bound).checks)
    assert hashlib.sha1(lines.encode()).hexdigest()[:12] == digest


def test_cartesian_trivial_square(fixtures):
    ring = fixtures.boundary
    ident = RingHom(ring, ring, {n: v(ring.table, n) for n in ring.table.names})
    square = CartesianSquareSpec(
        ring, ring, ring, ring, ident, ident, ident, ident
    )
    assert verify_cartesian(square, 4).passed


def test_hom_rejects_image_of_a_non_generator(fixtures):
    """An image for a name the source does not have is an error, not an
    entry to ignore."""
    ring = fixtures.open_part
    t = ring.table
    with pytest.raises(WellDefinednessError, match="'d1', not a source generator"):
        RingHom(ring, ring, {"l1": v(t, "l1"), "l2": v(t, "l2"), "d1": v(t, "l1")})


def test_cartesian_rejects_non_commuting_square(fixtures):
    ring = fixtures.open_part
    t = ring.table
    ident = RingHom(ring, ring, {"l1": v(t, "l1"), "l2": v(t, "l2")})
    twisted = RingHom(ring, ring, {"l1": 2 * v(t, "l1"), "l2": v(t, "l2")})
    with pytest.raises(WellDefinednessError):
        CartesianSquareSpec(ring, ring, ring, ring, ident, ident, ident, twisted)


def test_nonzerodivisor_examples(fixtures):
    pres = fixtures.boundary
    tb = pres.table
    for f, expected in [(v(tb, "d1"), True), (v(tb, "x"), False), (Poly.const(tb, 1), True)]:
        assert is_nonzerodivisor(pres, f) is expected
        assert nonzerodivisor_up_to(pres, f, 8) is expected
    assert not is_nonzerodivisor(pres, Poly.zero(tb))
    with pytest.raises(GradeMismatch):
        is_nonzerodivisor(pres, v(tb, "d1") + v(tb, "l2"))


def test_nonzerodivisor_negative_controls(fixtures):
    """d1 kills x modulo d1*x, and d1^2*x modulo d1^3*x: witnesses of
    degree 1 and 3, which the bounded loop sees only from that degree on."""
    tb = fixtures.boundary.table
    l1, d1, x = v(tb, "l1"), v(tb, "d1"), v(tb, "x")
    for relations, witness in [([2 * x, d1 * x], 1), ([2 * x, x * x + l1 * x, d1**3 * x], 3)]:
        pres = RingPresentation(tb, relations)
        assert not is_nonzerodivisor(pres, d1)
        assert not nonzerodivisor_up_to(pres, d1, witness)
        assert nonzerodivisor_up_to(pres, d1, witness - 1)


@st.composite
def nonzerodivisor_cases(draw):
    """1-2 relations of degree <= 2 in at most three degree-1 variables, and
    a linear f, all with coefficients in [-3, 3].  Three generic cubics in
    three variables can keep strong_groebner busy for minutes; this
    strategy cannot reach them."""
    table = VarTable([(n, 1) for n in "abc"[: draw(st.integers(1, 3))]])
    count = draw(st.integers(1, 2))
    relations = [dense_form(draw, table, draw(st.integers(1, 2))) for _ in range(count)]
    return RingPresentation(table, relations), dense_form(draw, table, 1)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=nonzerodivisor_cases())
def test_nonzerodivisor_agrees_with_bounded_loop(case):
    """Every zero-divisor drawn here has a witness of degree <= 3, so the
    loop at bound 4 sees it."""
    pres, f = case
    assert is_nonzerodivisor(pres, f) is nonzerodivisor_up_to(pres, f, 4)


def test_gysin_generator_values(fixtures):
    tb = fixtures.boundary.table
    tp = fixtures.total.table
    gy = fixtures.gysin
    l1, d1, x = v(tb, "l1"), v(tb, "d1"), v(tb, "x")
    assert gy(Poly.const(tb, 1)) == v(tp, "d1")
    assert gy(x) == v(tp, "e")
    assert gy(x * x) == v(tp, "l1") * v(tp, "e")
    expected = fixtures.total.normal_form(
        v(tp, "e") + v(tp, "d1") * (v(tp, "l1") + v(tp, "d1"))
    )
    assert gy(l1 + d1 + x) == expected
    assert gy(Poly.zero(tb)).is_zero()


def test_gysin_projection_formula(fixtures):
    rng = random.Random(55)
    tb = fixtures.boundary.table
    pull = RingHom(
        fixtures.total,
        fixtures.boundary,
        {
            "l1": v(tb, "l1"),
            "l2": v(tb, "l2"),
            "d1": v(tb, "d1"),
            "e": v(tb, "d1") * v(tb, "x"),
        },
    )
    for _ in range(40):
        x_cls = random_homogeneous(fixtures.total.table, rng, rng.randint(0, 3))
        y_cls = random_homogeneous(tb, rng, rng.randint(0, 3))
        left = fixtures.gysin(pull.apply(x_cls) * y_cls)
        right = fixtures.total.normal_form(x_cls * fixtures.gysin(y_cls))
        assert left == right


def test_gysin_self_intersection(fixtures):
    rng = random.Random(56)
    tb = fixtures.boundary.table
    pull = RingHom(
        fixtures.total,
        fixtures.boundary,
        {
            "l1": v(tb, "l1"),
            "l2": v(tb, "l2"),
            "d1": v(tb, "d1"),
            "e": v(tb, "d1") * v(tb, "x"),
        },
    )
    for _ in range(25):
        y_cls = random_homogeneous(tb, rng, rng.randint(0, 4))
        left = pull.apply(fixtures.gysin(y_cls))
        right = fixtures.boundary.normal_form(v(tb, "d1") * y_cls)
        assert left == right


def test_character_c1_values(fixtures):
    tb = fixtures.boundary.table
    got = c1_of_character(fixtures.character_basis, fixtures.node_character)
    assert got == v(tb, "l1") + v(tb, "x") + v(tb, "d1")
    trivial = c1_of_character(fixtures.character_basis, {"sgn": 0})
    assert trivial.is_zero()
    doubled = c1_of_character(fixtures.character_basis, {"sgn": 2})
    assert doubled == 2 * v(tb, "x")
    assert fixtures.boundary.normal_form(doubled).is_zero()


def test_character_rejects_unknown_generator(fixtures):
    with pytest.raises(PolyError, match="unknown character generator"):
        c1_of_character(fixtures.character_basis, {"mystery": 1})
    with pytest.raises(PolyError, match="unknown character generator"):
        c1_of_character({}, {"sgn": 1})
    with pytest.raises(PolyError, match="empty character"):
        c1_of_character(fixtures.character_basis, {})
