import random

import pytest

from equichow import Poly, RingHom, RingPresentation, VarTable, localization
from equichow.pipeline import Fixtures
from equichow.presentation import CartesianSquareSpec


@pytest.fixture
def gamma_table():
    return VarTable([("g1", 1), ("g2", 1), ("h", 1)])


@pytest.fixture
def boundary_table():
    return VarTable([("l1", 1), ("l2", 2), ("d1", 1), ("x", 1)])


@pytest.fixture
def ambient_table():
    return VarTable([("l1", 1), ("l2", 2), ("d1", 1)])


@pytest.fixture
def fixtures():
    return Fixtures.default()


def random_poly(table, rng, max_exp=2, terms=4, coeff=8):
    """A small random polynomial; may be zero."""
    acc = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_exp) for _ in table.names)
        acc[mono] = acc.get(mono, 0) + rng.randint(-coeff, coeff)
    return Poly(table, acc)


def random_homogeneous(table, rng, grade, coeff=6):
    """A random homogeneous polynomial of the given grade (possibly zero)."""
    monos = table.monomials_of_grade(grade)
    acc = {}
    for mono in monos:
        if rng.random() < 0.5:
            c = rng.randint(-coeff, coeff)
            if c:
                acc[mono] = c
    return Poly(table, acc)


def doubling_square():
    """A = B = C = D = Z[s] or Z[t] with s -> 2t on both sides and the
    identity of Z[t] below."""
    zs = RingPresentation(VarTable([("s", 1)]))
    zt = RingPresentation(VarTable([("t", 1)]))
    double = RingHom(zs, zt, {"s": 2 * Poly.var(zt.table, "t")})
    ident = RingHom(zt, zt, {"t": Poly.var(zt.table, "t")})
    return CartesianSquareSpec(zs, zt, zt, zt, double, double, ident, ident)


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture
def corrupt_point_class(monkeypatch):
    """Add 1 to the packed index-0 class that `pushforward` builds for each
    target factor (the unit monomial packs to the key 0).  On the
    one-factor target of the cubing map that is the class of the all-zero
    target point (the image of the all-zero source point), and the
    fixed-point sum no longer clears the denominators.  The fixture fails
    the test if the corrupted function was never called, so the control
    cannot pass against code that no longer uses it."""
    true_classes = localization._point_classes
    calls = []

    def corrupted(factor, indices, packing):
        calls.append(factor)
        classes = true_classes(factor, indices, packing)
        if 0 in classes:
            classes[0] = {**classes[0], 0: classes[0].get(0, 0) + 1}
        return classes

    monkeypatch.setattr(localization, "_point_classes", corrupted)
    yield
    assert calls, "pushforward no longer calls localization._point_classes"
