import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichow import (
    DenominatorResidue,
    MapDescriptor,
    Poly,
    SpaceDescriptor,
    SpaceFactor,
    VarTable,
    enumerate_fixed_points,
    euler_constant,
    euler_forms,
    localization,
    map_image_fixed_point,
    parse_poly,
    pushforward,
    specialize_oracle,
)
from equichow.jobfile import MAX_TARGET_DIMENSION
from equichow.localization import DescriptorError, _point_classes
from equichow.poly import _Packing
from oracles import (
    plain_pushforward,
    plain_specialize_oracle,
    point_class,
    restrict_hyperplane,
)


TABLE = VarTable([("g1", 1), ("g2", 1), ("h1", 1), ("h2", 1), ("h", 1)])
G1, G2, H1, H2, H = (Poly.var(TABLE, n) for n in ("g1", "g2", "h1", "h2", "h"))
ONE = Poly.const(TABLE, 1)


def single(d, w0=G1, w1=G2, hvar="h1"):
    return SpaceDescriptor([SpaceFactor(d, w0, w1, hvar)])


def cubing_map():
    return MapDescriptor.multiplication(single(1), [3], "h")


def mixed_map():
    src = SpaceDescriptor(
        [SpaceFactor(1, G1, G2, "h1"), SpaceFactor(3, G1, G2, "h2")]
    )
    return MapDescriptor.multiplication(src, [3, 1], "h")


def test_fixed_point_counts():
    assert len(enumerate_fixed_points(single(6))) == 7
    two = SpaceDescriptor(
        [SpaceFactor(1, G1, G2, "h1"), SpaceFactor(3, G1, G2, "h2")]
    )
    assert len(enumerate_fixed_points(two)) == 8
    assert enumerate_fixed_points(single(1)) == [(0,), (1,)]


def test_point_class_with_degenerate_weight():
    t = VarTable([("d", 1), ("h", 1)])
    d, h = Poly.var(t, "d"), Poly.var(t, "h")
    space = SpaceDescriptor([SpaceFactor(3, d, Poly.zero(t), "h")])
    assert point_class(space, (3,)) == (h - 2 * d) * (h - d) * h


def test_point_class_single_omitted_factor():
    assert point_class(single(1, hvar="h"), (0,)) == H - G1


def test_point_class_of_product_is_product():
    two = SpaceDescriptor(
        [SpaceFactor(1, G1, G2, "h1"), SpaceFactor(3, G1, G2, "h2")]
    )
    fp = (1, 2)
    assert point_class(two, fp) == point_class(
        single(1, hvar="h1"), (1,)
    ) * point_class(single(3, hvar="h2"), (2,))


CLASS_TABLE = VarTable([("g1", 1), ("g2", 1), ("h", 1)])
CG1, CG2 = Poly.var(CLASS_TABLE, "g1"), Poly.var(CLASS_TABLE, "g2")
CZERO = Poly.zero(CLASS_TABLE)
LINEAR_FORMS = st.builds(
    lambda a, b: a * CG1 + b * CG2, st.integers(-4, 4), st.integers(-4, 4)
)
CLASS_WEIGHT_PAIRS = st.one_of(
    st.sampled_from([(CG1, CG2), (CG2, CG1)]),
    st.sampled_from([(CG1, CZERO), (CZERO, CG1), (CG2, CZERO), (CZERO, CG2)]),
    st.tuples(LINEAR_FORMS, LINEAR_FORMS),
).filter(lambda pair: pair[0] != pair[1])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(CLASS_WEIGHT_PAIRS)
def test_shared_product_classes_equal_point_class(pair):
    """The classes built from shared products X^(d-k) * Y^k are the
    products of linear forms that `point_class` defines, at every index
    of every degree up to the target-dimension cap."""
    for d in range(1, MAX_TARGET_DIMENSION + 1):
        factor = SpaceFactor(d, pair[0], pair[1], "h")
        one = SpaceDescriptor([factor])
        packing = _Packing(CLASS_TABLE, d)
        classes = _point_classes(factor, range(d + 1), packing)
        assert {i: packing.poly(c) for i, c in classes.items()} == {
            i: point_class(one, (i,)) for i in range(d + 1)
        }


def test_point_class_rejects_bad_index():
    with pytest.raises(DescriptorError):
        point_class(single(3), (4,))


def euler_value(space, fp):
    return euler_constant(space, fp) * euler_forms(space)


def test_tangent_euler_values():
    assert euler_constant(single(3), (1,)) == -2
    assert euler_forms(single(3)) == (G2 - G1) ** 3
    assert euler_value(single(3), (1,)) == -2 * (G2 - G1) ** 3
    assert euler_value(single(1), (0,)) == G2 - G1
    two = SpaceDescriptor(
        [SpaceFactor(1, G1, G2, "h1"), SpaceFactor(3, G1, G2, "h2")]
    )
    assert euler_value(two, (1, 0)) == -6 * (G1 - G2) ** 4


def test_restrict_hyperplane_values():
    assert restrict_hyperplane(single(6), (6,), 0) == 6 * G1
    assert restrict_hyperplane(single(3), (1,), 0) == G1 + 2 * G2
    t = VarTable([("d", 1), ("h", 1)])
    d = Poly.var(t, "d")
    space = SpaceDescriptor([SpaceFactor(1, d, Poly.zero(t), "h")])
    assert restrict_hyperplane(space, (0,), 0).is_zero()
    with pytest.raises(DescriptorError):
        restrict_hyperplane(single(3), (1,), 5)


def test_fixed_point_consistency():
    space = single(3, hvar="h")
    points = enumerate_fixed_points(space)
    for fp in points:
        values = {"h": restrict_hyperplane(space, fp, 0)}
        for other in points:
            restricted = point_class(space, other).substitute(values)
            if other == fp:
                assert restricted == euler_value(space, fp)
            else:
                assert restricted.is_zero()


def test_public_point_functions_reject_bad_points():
    """A point from outside is checked: wrong slot count or index range."""
    for bad in [(4,), (-1,), (1, 0)]:
        with pytest.raises(DescriptorError):
            euler_constant(single(3), bad)
        with pytest.raises(DescriptorError):
            map_image_fixed_point(cubing_map(), bad)


def test_engine_checks_no_point_it_made(monkeypatch):
    """`pushforward` and the oracle take their points from
    enumerate_fixed_points and check none of them again."""
    checked = []
    true_check = localization._check_point
    monkeypatch.setattr(localization, "_check_point", lambda *a: checked.append(a) or true_check(*a))
    value = pushforward(mixed_map(), H1 * H1)
    assert specialize_oracle(mixed_map(), H1 * H1, trials=5, seed=0, symbolic=value)
    assert checked == []
    assert euler_constant(single(3), (1,)) == -2
    assert len(checked) == 1


def test_map_image_indices():
    assert map_image_fixed_point(cubing_map(), (1,)) == (3,)
    rho1 = mixed_map()
    assert map_image_fixed_point(rho1, (0, 2)) == (2,)
    pair = MapDescriptor.multiplication(
        SpaceDescriptor([SpaceFactor(1, G1, G2, "h1"), SpaceFactor(1, G1, G2, "h2")]),
        [3, 3],
        "h",
    )
    assert map_image_fixed_point(pair, (1, 0)) == (3,)


def test_pushforward_of_one_through_cubing():
    value = pushforward(cubing_map(), ONE)
    assert value == 3 * (H - 2 * G1 - G2) * (H - G1 - 2 * G2)


def test_pushforward_of_hyperplane():
    value = pushforward(mixed_map(), H1)
    expected = (
        H**3
        - 3 * (G1 + G2) * H**2
        + H * (2 * (G1 + G2) ** 2 - 44 * G1 * G2)
        + 108 * G1 * G2 * (G1 + G2)
    )
    assert value == expected


def test_pushforward_identity_map(rng):
    ident = MapDescriptor.multiplication(single(1, hvar="h1"), [1], "h")
    cls = (2 * G1 - G2) * H1 + G1 * G1
    assert pushforward(ident, cls) == cls.substitute({"h1": H})


def test_pushforward_degree_shift():
    rho1 = mixed_map()
    for cls, grade in ((ONE, 0), (H1, 1), (H1 * H2, 2)):
        value = pushforward(rho1, cls)
        assert value.homogeneous_grade() == grade + (6 - 4)


def test_pushforward_grothendieck_relation():
    rho1 = mixed_map()
    lhs = pushforward(rho1, H1 * H1)
    rhs = (G1 + G2) * pushforward(rho1, H1) - G1 * G2 * pushforward(rho1, ONE)
    assert lhs == rhs


def test_product_map_kuenneth():
    t = VarTable(
        [("g1", 1), ("g2", 1), ("u1", 1), ("u2", 1), ("h1", 1), ("h2", 1)]
    )
    g1, g2 = Poly.var(t, "g1"), Poly.var(t, "g2")
    src = SpaceDescriptor(
        [SpaceFactor(1, g1, Poly.zero(t), "u1"), SpaceFactor(1, g2, Poly.zero(t), "u2")]
    )
    product = MapDescriptor.product(src, [3, 3], ["h1", "h2"])
    value = pushforward(product, Poly.const(t, 1))
    first = MapDescriptor.multiplication(
        SpaceDescriptor([SpaceFactor(1, g1, Poly.zero(t), "u1")]), [3], "h1"
    )
    second = MapDescriptor.multiplication(
        SpaceDescriptor([SpaceFactor(1, g2, Poly.zero(t), "u2")]), [3], "h2"
    )
    assert value == pushforward(first, Poly.const(t, 1)) * pushforward(
        second, Poly.const(t, 1)
    )


def test_pushforward_rejects_target_variable_in_class():
    with pytest.raises(DescriptorError):
        pushforward(cubing_map(), H)


def test_pushforward_rejects_foreign_table():
    from equichow import TableMismatch

    other = VarTable([("z", 1)])
    with pytest.raises(TableMismatch):
        pushforward(cubing_map(), Poly.var(other, "z"))


def test_descriptor_invariants():
    with pytest.raises(DescriptorError):
        SpaceFactor(1, G1, G1, "h1")
    with pytest.raises(DescriptorError):
        SpaceFactor(0, G1, G2, "h1")
    with pytest.raises(DescriptorError):
        SpaceDescriptor(
            [SpaceFactor(1, G1, G2, "h1"), SpaceFactor(1, G1, G2, "h1")]
        )
    with pytest.raises(DescriptorError):
        MapDescriptor.multiplication(single(1), [0], "h")
    with pytest.raises(DescriptorError):
        MapDescriptor.multiplication(single(1), [3], "h1")
    quadric = VarTable([("g1", 1), ("g2", 1), ("h", 2)])
    with pytest.raises(DescriptorError, match="must have degree 1"):
        SpaceFactor(1, Poly.var(quadric, "g1"), Poly.var(quadric, "g2"), "h")


def test_denominator_residue_raised(corrupt_point_class):
    with pytest.raises(DenominatorResidue):
        pushforward(cubing_map(), ONE)


def test_oracle_accepts_engine_values():
    assert specialize_oracle(cubing_map(), ONE, trials=20, seed=0)
    assert specialize_oracle(mixed_map(), H1 * H1, trials=20, seed=0)


def test_oracle_rejects_corrupted_value():
    good = pushforward(cubing_map(), ONE)
    corrupted = good + Poly.const(TABLE, 1)
    assert not specialize_oracle(
        cubing_map(), ONE, trials=20, seed=0, symbolic=corrupted
    )


def test_oracle_rejects_a_corruption_off_the_fibres():
    """The cubing map hits only target points 0 and 3, where this
    corruption vanishes; at the points 1 and 2 the fibre is empty and the
    corrupted value must evaluate to 0 there, which it does not."""
    good = pushforward(cubing_map(), ONE)
    corrupted = good + (H - 3 * G2) * (H - 3 * G1)
    assert not specialize_oracle(
        cubing_map(), ONE, trials=20, seed=0, symbolic=corrupted
    )
    verdicts = [
        specialize_oracle(cubing_map(), ONE, trials=1, seed=s, symbolic=corrupted)
        for s in range(8)
    ]
    assert verdicts == [True, True, False, False, True, False, False, True]


def three_factor_product():
    t = VarTable(
        [("g1", 1), ("g2", 1), ("g3", 1)]
        + [(f"u{k}", 1) for k in (1, 2, 3)]
        + [(f"h{k}", 1) for k in (1, 2, 3)]
    )
    g1, g2, g3 = (Poly.var(t, n) for n in ("g1", "g2", "g3"))
    src = SpaceDescriptor(
        [
            SpaceFactor(1, g1, g2, "u1"),
            SpaceFactor(2, g2, Poly.zero(t), "u2"),
            SpaceFactor(1, g1 + g2, g3, "u3"),
        ]
    )
    return t, MapDescriptor.product(src, [2, 1, 3])


def test_oracle_accepts_product_maps():
    t, product = three_factor_product()
    u1, u2, u3, g3 = (Poly.var(t, n) for n in ("u1", "u2", "u3", "g3"))
    for cls in (Poly.const(t, 1), u1 * u2**2 + g3 * u3, u1 * u2 * u3):
        assert specialize_oracle(product, cls, trials=10, seed=3)
    two = MapDescriptor.product(
        SpaceDescriptor(product.source.factors[:2]), [3, 2], ["h1", "h2"]
    )
    assert specialize_oracle(two, u1 * u2, trials=10, seed=4)


def test_oracle_rejects_corruption_of_the_right_degree():
    t, product = three_factor_product()
    u2 = Poly.var(t, "u2")
    cases = [(mixed_map(), H1 * H1, G1), (product, u2, Poly.var(t, "g1"))]
    for mapping, cls, g in cases:
        good = pushforward(mapping, cls)
        corrupted = good + g ** good.homogeneous_grade()
        assert specialize_oracle(mapping, cls, trials=20, seed=0, symbolic=good)
        assert not specialize_oracle(
            mapping, cls, trials=20, seed=0, symbolic=corrupted
        )


def test_oracle_is_independent_of_pushforward(monkeypatch):
    """The oracle still passes true values with every symbolic kernel of
    `pushforward`, the packed ones too, made to raise."""
    t, product = three_factor_product()
    cases = [(mixed_map(), H1 * H1), (product, Poly.var(t, "u1") * Poly.var(t, "u2"))]
    values = [pushforward(mapping, cls) for mapping, cls in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used the engine it checks")

    kernels = ("pushforward", "_point_classes", "euler_constant", "_euler_constant", "euler_forms")
    packed = ("_Packing", "_add_product", "exact_divide")
    for name in kernels + packed:
        monkeypatch.setattr(localization, name, forbidden)
    for (mapping, cls), good in zip(cases, values):
        assert specialize_oracle(mapping, cls, trials=20, seed=0, symbolic=good)


def test_oracle_handles_zero_weight():
    t = VarTable([("d", 1), ("u1", 1), ("h", 1)])
    d = Poly.var(t, "d")
    diag = MapDescriptor.multiplication(
        SpaceDescriptor([SpaceFactor(1, d, Poly.zero(t), "u1")]), [3], "h"
    )
    assert specialize_oracle(diag, Poly.const(t, 1), trials=10, seed=2)


RANDOM_TABLE = VarTable(
    [("g1", 1), ("g2", 1)]
    + [(f"u{k}", 1) for k in (1, 2, 3)]
    + [(f"h{k}", 1) for k in (1, 2, 3)]
    + [("h", 1)]
)
RG1, RG2 = Poly.var(RANDOM_TABLE, "g1"), Poly.var(RANDOM_TABLE, "g2")
# A zero weight and forms that recur, so that factors share weights.
WEIGHTS = (Poly.zero(RANDOM_TABLE), RG1, RG2, RG1 + RG2, 2 * RG1 - RG2)
WEIGHT_PAIRS = st.tuples(st.sampled_from(WEIGHTS), st.sampled_from(WEIGHTS)).filter(
    lambda pair: pair[0] != pair[1]
)
MAX_TARGET_DEGREE = 9


@st.composite
def random_push(draw, min_factors=1, product=None, max_terms=1):
    """A multiplication or product map (`product` None draws which) on
    min_factors-3 factors with d and exponents in 1-3 (target degrees
    summing to at most MAX_TARGET_DEGREE), and a class of 1-max_terms
    terms with small non-zero coefficients, each a monomial in the weight
    variables and the source h-variables of grade at most the source
    dimension."""
    k = draw(st.integers(min_factors, 3))
    room = MAX_TARGET_DEGREE
    shape = []
    for j in range(k):
        spare = room - (k - 1 - j)
        d = draw(st.integers(1, min(3, spare)))
        a = draw(st.integers(1, min(3, spare // d)))
        room -= a * d
        shape.append((d, a))
    if product is None:
        product = k > 1 and draw(st.booleans())
    shared = draw(WEIGHT_PAIRS)
    pairs = [draw(WEIGHT_PAIRS) if product else shared for _ in range(k)]
    space = SpaceDescriptor(
        [
            SpaceFactor(d, w0, w1, f"u{j + 1}")
            for j, ((d, _), (w0, w1)) in enumerate(zip(shape, pairs))
        ]
    )
    exponents = [a for _, a in shape]
    build = MapDescriptor.product if product else MapDescriptor.multiplication
    cls = Poly.zero(RANDOM_TABLE)
    for _ in range(draw(st.integers(1, max_terms))):
        term = Poly.const(RANDOM_TABLE, draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
        names = draw(
            st.lists(
                st.sampled_from(("g1", "g2") + space.hvars), max_size=space.dimension
            )
        )
        for name in names:
            term = term * Poly.var(RANDOM_TABLE, name)
        cls = cls + term
    return build(space, exponents), cls


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_push(), st.integers(0, 2**16))
def test_pushforward_agrees_with_oracle_on_random_descriptors(push, seed):
    mapping, cls = push
    value = pushforward(mapping, cls)
    assert specialize_oracle(mapping, cls, trials=3, seed=seed, symbolic=value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_push(), st.integers(0, 2**16))
def test_oracle_verdicts_match_the_plain_oracle(push, seed):
    """The fibre sum in integers gives the verdict of the rational sum over
    every source point, for the true value and two corruptions."""
    mapping, cls = push
    good = pushforward(mapping, cls)
    grade = (
        cls.homogeneous_grade()
        + mapping.target.dimension
        - mapping.source.dimension
    )
    for value in (good, good + RG1**grade, good + 1):
        args = (mapping, cls, 3, seed, value)  # trials, seed, symbolic
        assert specialize_oracle(*args) == plain_specialize_oracle(*args)


@pytest.mark.parametrize("product", [False, True])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_pushforward_agrees_with_the_plain_sum(product, data):
    """The per-factor contraction over grouped images equals the sum that
    multiplies each source point's term by its whole image class, on 2-3
    factors or blocks and classes of several terms."""
    mapping, cls = data.draw(random_push(2, product, max_terms=3))
    assert pushforward(mapping, cls) == plain_pushforward(mapping, cls)


def degree_fifteen_multiplication(table=RANDOM_TABLE):
    """Two P^3 factors under the exponents 2 and 3: one target factor of
    degree 15."""
    g1, g2 = Poly.var(table, "g1"), Poly.var(table, "g2")
    space = SpaceDescriptor(
        [SpaceFactor(3, g1, g2, "u1"), SpaceFactor(3, g1, g2, "u2")]
    )
    return MapDescriptor.multiplication(space, [2, 3], "h")


def product_at_the_target_dimension_cap():
    """P^3 to P^15 and P^1 to itself, with different weight pairs."""
    space = SpaceDescriptor(
        [
            SpaceFactor(3, RG1, Poly.zero(RANDOM_TABLE), "u1"),
            SpaceFactor(1, RG1 + RG2, 2 * RG2, "u2"),
        ]
    )
    return MapDescriptor.product(space, [5, 1])


@pytest.mark.parametrize(
    "build, degrees, cls",
    [
        (degree_fifteen_multiplication, (15,), "u1^3*u2^2"),
        (product_at_the_target_dimension_cap, (15, 1), "u1^3*u2 + g2*u1^2"),
    ],
    ids=["degree-15-multiplication", "product-at-cap"],
)
def test_pushforward_agrees_with_the_plain_sum_at_high_degree(build, degrees, cls):
    mapping = build()
    assert tuple(f.d for f in mapping.target.factors) == degrees
    assert sum(degrees) <= MAX_TARGET_DIMENSION
    cls = parse_poly(cls, RANDOM_TABLE)
    assert pushforward(mapping, cls) == plain_pushforward(mapping, cls)


# RANDOM_TABLE with a variable of degree 2 that no weight uses.
CAP_TABLE = VarTable(list(zip(RANDOM_TABLE.names, RANDOM_TABLE.degrees)) + [("l", 2)])


@pytest.mark.parametrize("cls", ["g1^31*u1 + l^7*u2^3 + 5", "l^32*u1^3*u2^3 - g1"])
def test_pushforward_agrees_with_the_plain_sum_at_the_exponent_cap(cls):
    """Inhomogeneous classes with exponents up to the parser's cap, one in
    a variable of degree 2, on the target factor of degree 15: the packed
    fields must hold deg(cls) + 15 in every slot."""
    mapping = degree_fifteen_multiplication(CAP_TABLE)
    cls = parse_poly(cls, CAP_TABLE)
    assert pushforward(mapping, cls) == plain_pushforward(mapping, cls)
