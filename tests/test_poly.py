import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichow import (
    GradeMismatch,
    NotDivisible,
    NotSymmetric,
    Poly,
    PolyError,
    TableMismatch,
    VarTable,
    exact_divide,
    parse_poly,
    to_elementary_symmetric,
)
from equichow.poly import _divide_packed, _map_terms, _Packing
from equichow.textio import MAX_EXPONENT
from conftest import random_poly
from oracles import evaluate, plain_exact_divide, poly_map_terms


def v(table, name):
    return Poly.var(table, name)


def test_mul_binomial(gamma_table):
    h, g1, g2 = (v(gamma_table, n) for n in ("h", "g1", "g2"))
    assert (h - g1) * (h - g2) == h * h - (g1 + g2) * h + g1 * g2


def test_mul_identity(gamma_table, rng):
    p = random_poly(gamma_table, rng)
    assert Poly.const(gamma_table, 1) * p == p


def test_mul_cross_term_expansion():
    t = VarTable([("a", 1), ("b", 1), ("d", 1)])
    a, b, d = (v(t, n) for n in ("a", "b", "d"))
    left = (3 * a - b - d) * (3 * b - a - d)
    right = d * d - 2 * (a + b) * d + 10 * a * b - 3 * a * a - 3 * b * b
    assert left == right


def test_mul_rejects_table_mismatch(gamma_table, boundary_table):
    with pytest.raises(TableMismatch):
        v(gamma_table, "h") * v(boundary_table, "l1")


def test_ring_axioms_on_random_values(gamma_table):
    rng = random.Random(7)
    for _ in range(30):
        p = random_poly(gamma_table, rng)
        q = random_poly(gamma_table, rng)
        r = random_poly(gamma_table, rng)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_substitute_kills_triple_point_class():
    t = VarTable([("d", 1), ("h", 1)])
    d, h = v(t, "d"), v(t, "h")
    p = 3 * (h - 2 * d) * (h - d)
    assert p.substitute({"h": d}).is_zero()


def test_substitute_empty_assignment_is_identity(gamma_table, rng):
    p = random_poly(gamma_table, rng)
    assert p.substitute({}) == p


def test_substitute_is_ring_hom(gamma_table):
    rng = random.Random(11)
    g1, g2 = v(gamma_table, "g1"), v(gamma_table, "g2")
    assignment = {"h": 2 * g1 - 3 * g2}
    for _ in range(20):
        p = random_poly(gamma_table, rng)
        q = random_poly(gamma_table, rng)
        assert (p * q).substitute(assignment) == p.substitute(
            assignment
        ) * q.substitute(assignment)


def test_substitute_preserves_grade_on_homogeneous(boundary_table):
    l1, d1, x = (v(boundary_table, n) for n in ("l1", "d1", "x"))
    p = l1 * d1 + x * x
    image = p.substitute({"x": l1 + d1})
    assert image.homogeneous_grade() == p.homogeneous_grade() == 2


def test_substitute_rejects_grade_mismatch(boundary_table):
    l2 = v(boundary_table, "l2")
    with pytest.raises(GradeMismatch):
        v(boundary_table, "l1").substitute({"l1": l2})


def test_exact_divide_examples(gamma_table):
    h, g1, g2 = (v(gamma_table, n) for n in ("h", "g1", "g2"))
    assert exact_divide((g2 - g1) ** 2, g2 - g1) == g2 - g1
    assert exact_divide(h * h - g1 * g1, h - g1) == h + g1
    with pytest.raises(NotDivisible):
        exact_divide(h - g1, h - g2)


def test_exact_divide_rejects_zero_divisor(gamma_table):
    with pytest.raises(PolyError):
        exact_divide(v(gamma_table, "h"), Poly.zero(gamma_table))


def test_exact_divide_round_trip(gamma_table):
    rng = random.Random(99)
    done = 0
    while done < 200:
        p = random_poly(gamma_table, rng)
        q = random_poly(gamma_table, rng)
        if q.is_zero():
            continue
        assert exact_divide(p * q, q) == p
        done += 1


def test_symmetric_power_sum():
    t = VarTable([("t1", 1), ("t2", 1), ("l1", 1), ("l2", 2)])
    t1, t2, l1, l2 = (v(t, n) for n in ("t1", "t2", "l1", "l2"))
    assert to_elementary_symmetric(t1**2 + t2**2, ("t1", "t2"), ("l1", "l2")) == (
        l1**2 - 2 * l2
    )


def test_symmetric_cross_product():
    t = VarTable([("t1", 1), ("t2", 1), ("l1", 1), ("l2", 2)])
    t1, t2, l1, l2 = (v(t, n) for n in ("t1", "t2", "l1", "l2"))
    value = to_elementary_symmetric(
        (2 * t1 + t2) * (t1 + 2 * t2), ("t1", "t2"), ("l1", "l2")
    )
    assert value == 2 * l1**2 + l2


def test_symmetric_rejects_antisymmetric():
    t = VarTable([("t1", 1), ("t2", 1), ("l1", 1), ("l2", 2)])
    with pytest.raises(NotSymmetric):
        to_elementary_symmetric(v(t, "t1") - v(t, "t2"), ("t1", "t2"), ("l1", "l2"))


def test_symmetric_round_trip():
    t = VarTable([("t1", 1), ("t2", 1), ("c", 1), ("l1", 1), ("l2", 2)])
    t1, t2 = v(t, "t1"), v(t, "t2")
    rng = random.Random(5)
    for _ in range(20):
        acc = {}
        for _ in range(3):
            mono = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2), 0, 0)
            acc[mono] = acc.get(mono, 0) + rng.randint(-6, 6)
        half = Poly(t, acc)
        sym = half + half.substitute({"t1": t2, "t2": t1})
        rewritten = to_elementary_symmetric(sym, ("t1", "t2"), ("l1", "l2"))
        back = rewritten.substitute({"l1": t1 + t2, "l2": t1 * t2})
        assert back == sym


def test_render_golden(ambient_table):
    l1, l2 = v(ambient_table, "l1"), v(ambient_table, "l2")
    assert (24 * l1**2 - 48 * l2).render() == "24*l1^2 - 48*l2"
    assert Poly.zero(ambient_table).render() == "0"
    assert (-l1).render() == "-l1"


def test_render_unit_coefficients(boundary_table):
    l1, x = v(boundary_table, "l1"), v(boundary_table, "x")
    assert (l1**2 * x).render() == "l1^2*x"


def test_change_table_roundtrip(ambient_table):
    src = VarTable([("t1", 1), ("t2", 1), ("l1", 1), ("l2", 2)])
    p = 24 * v(src, "l1") ** 2 - 48 * v(src, "l2")
    moved = p.change_table(ambient_table)
    assert moved == 24 * v(ambient_table, "l1") ** 2 - 48 * v(ambient_table, "l2")
    with pytest.raises(PolyError):
        (v(src, "t1")).change_table(ambient_table)


@st.composite
def ring_maps(draw):
    """A polynomial over a table of weighted variables, a wider table that
    shares its slots, and images over it for some of the variables: zero,
    one term or several, each homogeneous of its variable's degree.  The
    other variables keep their slots."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    source = VarTable([(f"v{i}", d) for i, d in enumerate(degrees)])
    extra = draw(st.lists(st.integers(1, 2), max_size=2))
    target = VarTable(list(zip(source.names, degrees)) + [(f"w{i}", d) for i, d in enumerate(extra)])
    images = {}
    for i, d in enumerate(degrees):
        kind = draw(st.sampled_from(["kept", "zero", "one term", "terms"]))
        monos = target.monomials_of_grade(d)
        if kind == "zero":
            images[i] = Poly.zero(target)
        elif kind == "one term":
            images[i] = Poly(target, {draw(st.sampled_from(monos)): draw(st.sampled_from([-2, 1, 3]))})
        elif kind == "terms":
            coefficients = st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos))
            images[i] = Poly(target, dict(zip(monos, draw(coefficients))))
    exponents = st.tuples(*[st.integers(0, 3) for _ in degrees])
    terms = draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=5))
    return Poly(source, terms), target, images


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=ring_maps())
def test_map_terms_agrees_with_poly_products(case):
    p, target, images = case
    assert _map_terms(p, target, images) == poly_map_terms(p, target, images)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=ring_maps(), data=st.data())
def test_change_table_round_trips(case, data):
    """Moving onto a table with the variables in a drawn order and back
    gives p again; the move is the Poly-product map onto the new slots."""
    p = case[0]
    table = p.table
    order = data.draw(st.permutations(range(len(table))))
    moved_table = VarTable([(table.names[i], table.degrees[i]) for i in order])
    moved = p.change_table(moved_table)
    names = {i: Poly.var(moved_table, name) for i, name in enumerate(table.names)}
    assert moved == poly_map_terms(p, moved_table, names)
    assert moved.change_table(table) == p


def test_evaluate():
    t = VarTable([("a", 1), ("b", 1)])
    p = 3 * v(t, "a") ** 2 - v(t, "b")
    assert evaluate(p, {"a": 2, "b": 5}) == 7
    with pytest.raises(PolyError, match="no value supplied for 'b'"):
        evaluate(p, {"a": 2})


# Property tests on a small weighted table.  Draws include zero
# coefficients and repeated monomials, so canonicalisation is exercised.
WT = VarTable([("a", 1), ("b", 1), ("c", 2)])
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(WT)), st.integers(-5, 5), max_size=4
).map(lambda terms: Poly(WT, terms))
properties = settings(max_examples=60, deadline=None, derandomize=True)


def assert_canonical(p):
    assert all(type(c) is int and c for c in p.terms.values())
    assert all(len(m) == len(WT) for m in p.terms)
    assert p == Poly(WT, p.terms)
    assert p.terms == Poly(WT, p.terms).terms


@properties
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@properties
@given(polys, polys, st.integers(-4, 4))
def test_results_are_canonical(p, q, n):
    for result in (p + q, p - q, -p, p * q, p * n, n * p, n + p, n - p, p**2):
        assert_canonical(result)
    assert (p - p).terms == {}
    assert p * n == p * Poly.const(WT, n)
    assert (p * 0).terms == {}
    assert p * 0 == p * Poly.const(WT, 0)


@properties
@given(polys)
def test_render_parse_round_trip(p):
    assert parse_poly(p.render(), WT) == p


# Exact division on packed monomials against the division on exponent
# tuples, with exponents up to the parser's cap and c of degree 2.
capped_polys = st.dictionaries(
    st.tuples(*[st.integers(0, MAX_EXPONENT)] * len(WT)),
    st.integers(-5, 5),
    max_size=3,
).map(lambda terms: Poly(WT, terms))


def division_text(divide, p, q):
    try:
        return divide(p, q)
    except NotDivisible as exc:
        return str(exc)


def division_outcome(divide, p, q):
    try:
        return divide(p, q)
    except NotDivisible:
        return NotDivisible


@settings(max_examples=150, deadline=None, derandomize=True)
@given(capped_polys, capped_polys.filter(bool), polys, st.integers(-3, 3))
def test_exact_divide_matches_the_plain_division(p, q, small, c):
    """Exact products give p back; products plus a small polynomial or
    plus c times a monomial of q (perturbed, almost never exact) get the
    verdict and the quotient of the division on exponent tuples."""
    assert exact_divide(p * q, q) == p
    top = max(q.terms)
    for dividend in (p * q + small, p * q + Poly(WT, {top: c}), p):
        assert division_outcome(exact_divide, dividend, q) == division_outcome(
            plain_exact_divide, dividend, q
        )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(capped_polys, capped_polys.filter(bool), polys, st.integers(-3, 3), st.integers(0, 8))
def test_packed_division_matches_the_plain_division(p, q, small, c, spare):
    """The packed kernel, on a packing whose bound passes the plain degrees
    of dividend and divisor by `spare` as the fixed-point sum's packing
    does, gives the quotient of the division on exponent tuples on exact
    products, and its NotDivisible text where that division raises."""

    def packed(dividend, q):
        degrees = [sum(m) for m in dividend.terms] + [sum(m) for m in q.terms]
        packing = _Packing(WT, max(degrees) + spare)
        return packing.poly(_divide_packed(packing.terms(dividend), packing.terms(q), packing))

    top = max(q.terms)
    for dividend in (p * q, p * q + small, p * q + Poly(WT, {top: c}), p):
        assert division_text(packed, dividend, q) == division_text(plain_exact_divide, dividend, q)


def test_exact_divide_rejects_before_a_field_overflows():
    """y^9 over y + x^9 (y of grade 10, so y leads) is not exact.  The
    greedy quotient y^8 - x^9*y^7 + x^18*y^6 - x^27*y^5 + x^36*y^4 ...
    passes the dividend's exponent bound 9, and x^36 does not fit the
    5-bit field with its guard bit: unchecked, it would carry into the
    field of y above it."""
    t = VarTable([("y", 10), ("x", 1)])
    y, x = v(t, "y"), v(t, "x")
    assert _Packing(t, 9).mask == 2**5 - 1 < 36
    for divide in (exact_divide, plain_exact_divide):
        with pytest.raises(NotDivisible, match=r"y\^9 is not divisible by y \+ x\^9"):
            divide(y**9, y + x**9)
