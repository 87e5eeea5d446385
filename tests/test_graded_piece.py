"""Graded pieces over the Groebner staircase against the relation-times-
monomial builder of `oracles`."""

import gc
import weakref
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichow import (
    GradeMismatch,
    Poly,
    RingHom,
    RingPresentation,
    VarTable,
    is_nonzerodivisor,
    verify_cartesian,
)
from equichow.jobfile import parse_square_job
from equichow.pipeline import Fixtures
from equichow.presentation import CartesianSquareSpec, GradedPiece
from conftest import doubling_square
from oracles import (
    dense,
    image_columns,
    monomial_nonzerodivisor_up_to,
    monomial_piece_invariants,
    naive_image_columns,
    nonzerodivisor_up_to,
    order_key,
    reduced_vector,
    same_classes,
    smith_check_degree,
    vector,
)

FX = Fixtures.default()
JOBS = Path(__file__).resolve().parents[1] / "jobs"
RINGS = {
    "total": FX.total,
    "boundary": FX.boundary,
    "open": FX.open_part,
    "boundary-mod-normal": FX.boundary_mod_normal,
    "final": RingPresentation(FX.ambient, FX.final_ideal),
}


@pytest.mark.parametrize("name", list(RINGS))
def test_invariants_match_monomial_builder(name):
    pres = RINGS[name]
    for n in range(11):
        assert pres.piece(n).invariants() == monomial_piece_invariants(pres, n)


@pytest.mark.parametrize("name, expected", [("d1", True), ("x", False)])
def test_nonzerodivisor_matches_monomial_builder(name, expected):
    elt = Poly.var(FX.boundary.table, name)
    assert nonzerodivisor_up_to(FX.boundary, elt, 6) is expected
    assert monomial_nonzerodivisor_up_to(FX.boundary, elt, 6) is expected
    assert is_nonzerodivisor(FX.boundary, elt) is expected


def test_boundary_piece_in_degree_one():
    """Z[l1,l2,d1,x]/(2x, x^2 + x*l1) in degree 1: x survives with pivot 2."""
    pres = FX.boundary
    piece = pres.piece(1)
    l1, d1, x = (Poly.var(pres.table, n) for n in ("l1", "d1", "x"))
    assert len(piece.monomials) == 3
    assert piece.relations == [vector(piece, 2 * x)]
    assert sorted(dense(piece.relations[0], 3)) == [0, 0, 2]
    assert sorted(dense(vector(piece, l1 + 3 * d1 - 5 * x), 3)) == [-5, 1, 3]
    with pytest.raises(GradeMismatch):
        vector(piece, x * x)


def test_vector_reduces_by_monic_leads():
    """x^2 = -x*l1 in the boundary ring, so both have one vector."""
    pres = FX.boundary
    l1, x = Poly.var(pres.table, "l1"), Poly.var(pres.table, "x")
    piece = pres.piece(2)
    assert vector(piece, x * x) == vector(piece, -x * l1)


def _pivot_coefficients(pres, n):
    """c_m for every degree-n monomial m: the gcd of the leading
    coefficients of the basis elements whose leading monomial divides m,
    0 when none does."""
    key = order_key(pres.order, pres.table)
    leads = []
    for g in pres.groebner().polys:
        lm = max(g.terms, key=key)
        leads.append((lm, abs(g.terms[lm])))
    out = {}
    for m in pres.table.monomials_of_grade(n):
        c = 0
        for lm, lc in leads:
            if all(a <= b for a, b in zip(lm, m)):
                c = gcd(c, lc)
        out[m] = c
    return out


@st.composite
def presentations(draw):
    degrees = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    table = VarTable([(f"v{i}", d) for i, d in enumerate(degrees)])
    relations = []
    # At most two relations: three generic ones in three variables can keep
    # strong_groebner, which has no pair budget, busy for minutes.
    for _ in range(draw(st.integers(1, 2))):
        grade = draw(st.integers(1, 3))
        monos = table.monomials_of_grade(grade)
        size = len(monos)
        coefficients = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        relations.append(Poly(table, dict(zip(monos, coefficients))))
    return RingPresentation(table, relations)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(pres=presentations())
def test_random_presentation_pieces(pres):
    key = order_key(pres.order, pres.table)
    for n in range(5):
        piece = pres.piece(n)
        assert piece.invariants() == monomial_piece_invariants(pres, n)

        c = _pivot_coefficients(pres, n)
        assert piece.monomials == tuple(m for m in c if c[m] != 1)
        pivots = [m for m in piece.monomials if c[m] > 1]
        assert len(piece.relations) == len(pivots)
        for column, m in zip(piece.relations, pivots):
            for row, other in zip(dense(column, len(piece.monomials)), piece.monomials):
                if other == m:
                    assert row == c[m]
                elif key(other) > key(m):
                    assert row == 0


def _coefficients(draw, monos, bound=4):
    values = st.integers(-bound, bound)
    return draw(st.lists(values, min_size=len(monos), max_size=len(monos)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pres=presentations(), data=st.data())
def test_vector_skips_only_reductions_that_change_nothing(pres, data):
    """vector(p) equals the vector of p reduced by the monic leads, for p on
    the staircase and for p with a term that a monic lead divides."""
    n = data.draw(st.integers(0, 5))
    piece = pres.piece(n)
    table = pres.table
    on = Poly(table, dict(zip(piece.monomials, _coefficients(data.draw, piece.monomials))))
    off = [m for m in table.monomials_of_grade(n) if m not in piece.monomials]
    polys = [on]
    if off:
        m = data.draw(st.sampled_from(off))
        polys.append(on + Poly(table, {m: data.draw(st.sampled_from([-3, -1, 1, 2]))}))
    for p in polys:
        assert vector(piece, p) == reduced_vector(pres, piece, p)
    outside = table.monomials_of_grade(n + 1)
    if outside:
        with pytest.raises(GradeMismatch):
            vector(piece, on + Poly(table, {outside[0]: 1}))


def _columns_during(square, degree_bound):
    """verify_cartesian(square, degree_bound) with every image_columns call
    checked against the columns built from scratch, and so is the
    Poly-product build of `oracles`, with a memo of its own per map.
    Returns the source degrees of the calls."""
    build = GradedPiece.image_columns
    degrees = []
    products = {}

    def checked(target, source, hom, memo):
        columns = build(target, source, hom, memo)
        naive = naive_image_columns(target, source, hom._raw_apply)
        assert image_columns(target, source, hom, products.setdefault(id(memo), {})) == naive
        # Exact on these squares; `test_columns_differ_but_agree_modulo_
        # relations` has a ring where the reductions are not.
        assert columns == naive
        degrees.append(source.degree)
        return columns

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GradedPiece, "image_columns", checked)
        verify_cartesian(square, degree_bound)
    return degrees


@pytest.mark.parametrize(
    "square",
    [lambda: Fixtures.default().patch_square(), doubling_square],
    ids=["patch", "doubling"],
)
def test_memoized_columns_of_fixed_squares(square):
    assert _columns_during(square(), 12) == [n for n in range(13) for _ in range(4)]


def _job_square():
    return parse_square_job((JOBS / "patch_square.job").read_text()).square


def _classes_during(square, degree_bound, corrupt=None):
    """verify_cartesian(square, degree_bound) with the columns of every
    image_columns call compared with the Poly-product build of `oracles`
    modulo the target's relations; `corrupt(columns)` may perturb the
    engine's columns first.  Returns the verdict of each call."""
    build = GradedPiece.image_columns
    verdicts = []
    products = {}

    def checked(target, source, hom, memo):
        columns = build(target, source, hom, memo)
        reference = image_columns(target, source, hom, products.setdefault(id(memo), {}))
        if corrupt is not None:
            columns = corrupt([dict(c) for c in columns])
        verdicts.append(same_classes(columns, reference, target.relations))
        return columns

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GradedPiece, "image_columns", checked)
        verify_cartesian(square, degree_bound)
    return verdicts


@pytest.mark.parametrize(
    "square", [lambda: Fixtures.default().patch_square(), _job_square], ids=["default", "job"]
)
def test_map_columns_agree_with_poly_products_to_degree_20(square):
    assert _classes_during(square(), 20) == [True] * 84


def test_perturbed_column_fails_the_class_check():
    """Doubling the last column of every call is caught in every degree:
    the last source monomial is a power of l1, which every map sends to a
    power of l1, free of torsion."""

    def double_last(columns):
        columns[-1] = {k: 2 * x for k, x in columns[-1].items()}
        return columns

    verdicts = _classes_during(Fixtures.default().patch_square(), 6, double_last)
    assert verdicts == [False] * 28


def test_columns_differ_but_agree_modulo_relations():
    """In Z[a,b,c]/(3a + 3b + 2c, 3b, b^2 + c^2 - ac) the degree-3 columns
    of s -> a + b, u -> c - a reduce a product of reduced vectors, not the
    image itself, and differ from the columns built from scratch by
    relation columns.  A column made twice itself is caught."""
    table = VarTable([("a", 1), ("b", 1), ("c", 1)])
    a, b, c = (Poly.var(table, n) for n in table.names)
    target = RingPresentation(table, [3 * a + 3 * b + 2 * c, 3 * b, b * b + c * c - a * c])
    free = RingPresentation(VarTable([("s", 1), ("u", 1)]))
    hom = RingHom(free, target, {"s": a + b, "u": c - a})
    memo = {}
    for n in range(4):
        columns = target.piece(n).image_columns(free.piece(n), hom, memo)
    naive = naive_image_columns(target.piece(3), free.piece(3), hom._raw_apply)
    relations = target.piece(3).relations
    assert columns != naive
    assert same_classes(columns, naive, relations)
    k = next(k for k, col in enumerate(columns) if col)
    doubled = columns[:k] + [{r: 2 * x for r, x in columns[k].items()}] + columns[k + 1 :]
    assert not same_classes(doubled, naive, relations)


@st.composite
def maps_into_presentations(draw):
    """A free ring on grade-1 and grade-2 generators and a map from it into a
    random presentation, with multi-term and zero generator images."""
    target = draw(presentations())
    grades = [1, 2] + draw(st.lists(st.integers(1, 2), max_size=1))
    source = RingPresentation(VarTable([(f"s{i}", d) for i, d in enumerate(grades)]))
    images = {}
    for name, d in zip(source.table.names, grades):
        monos = target.table.monomials_of_grade(d)
        coefficients = _coefficients(draw, monos, 3)
        if draw(st.integers(0, 3)) == 0:
            coefficients = [0] * len(monos)
        images[name] = Poly(target.table, dict(zip(monos, coefficients)))
    return RingHom(source, target, images)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hom=maps_into_presentations())
def test_memoized_columns_of_random_maps(hom):
    """The square A = B = C -> D with identities on top and the drawn map on
    both sides; bd and cd are one map, each with its own memo."""
    free = hom.source
    ident = RingHom(free, free, {n: Poly.var(free.table, n) for n in free.table.names})
    square = CartesianSquareSpec(free, free, free, hom.target, ident, ident, hom, hom)
    assert _columns_during(square, 12) == [n for n in range(13) for _ in range(4)]


@st.composite
def squares(draw):
    """Commuting squares over a drawn map `hom` from a free ring F into a
    presentation P, drawn as in `maps_into_presentations`: the pullback of
    the identity of P along hom (A = B = F, C = D = P), which is cartesian;
    the map on both sides (A = B = C = F, D = P) or on top (A = F,
    B = C = D = P), cartesian only where hom is injective; or the map on
    both sides with one side doubled (ab doubles every generator and cd is
    hom times 2 on generators), not surjective where hom is not zero."""
    hom = draw(maps_into_presentations())
    free, target = hom.source, hom.target
    names, table = free.table.names, free.table

    def free_map(scale):
        return RingHom(free, free, {n: scale * Poly.var(table, n) for n in names})

    ident = free_map(1)
    tident = RingHom(target, target, {n: Poly.var(target.table, n) for n in target.table.names})
    shape = draw(st.sampled_from(["pullback", "sides", "top", "doubled side"]))
    if shape == "pullback":
        return CartesianSquareSpec(free, free, target, target, ident, hom, hom, tident)
    if shape == "sides":
        return CartesianSquareSpec(free, free, free, target, ident, ident, hom, hom)
    if shape == "top":
        return CartesianSquareSpec(free, target, target, target, hom, hom, tident, tident)
    doubled = RingHom(free, target, {n: 2 * hom._images[i] for i, n in enumerate(names)})
    return CartesianSquareSpec(free, free, free, target, free_map(2), ident, hom, doubled)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(square=squares())
def test_verify_cartesian_agrees_with_smith_oracle(square):
    """Every field of every degree's check equals the five-Smith-form
    oracle's, up to degree 8, on passing and failing squares."""
    report = verify_cartesian(square, 8)
    assert report.checks == [smith_check_degree(square, n) for n in range(9)]


def test_checked_presentations_make_no_reference_cycle():
    """A presentation whose pieces a check has built dies with its last
    reference, with the cyclic garbage collector off."""
    gc.disable()
    try:
        fx = Fixtures.default()
        verify_cartesian(fx.patch_square(), 3)
        square = (fx.total, fx.boundary, fx.open_part, fx.boundary_mod_normal)
        refs = [weakref.ref(pres) for pres in square]
        del fx, square
        assert [ref() for ref in refs] == [None] * 4

        boundary = Fixtures.default().boundary
        assert nonzerodivisor_up_to(boundary, Poly.var(boundary.table, "d1"), 3)
        ref = weakref.ref(boundary)
        del boundary
        assert ref() is None
    finally:
        gc.enable()
