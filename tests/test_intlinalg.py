import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from equichow.intlinalg import (
    Lattice,
    preimage_generators,
    quotient_invariants,
    smith_normal_form,
)
from oracles import (
    DenseLattice,
    dense,
    dense_preimage_generators,
    dense_smith_normal_form,
    dense_u,
    determinant,
    identity,
    mat_mul,
    mat_vec,
    sparse,
)


def _rows(m):
    """The sparse rows of a dense matrix."""
    return [sparse(row) for row in m]


def test_coprime_diagonal():
    dec = smith_normal_form(_rows([[2, 0], [0, 3]]))
    assert dec.factors == (1, 6)


def test_zero_matrix():
    dec = smith_normal_form(_rows([[0, 0, 0], [0, 0, 0]]))
    assert dec.factors == ()
    assert dec.rank == 0


def test_identity_matrix():
    dec = smith_normal_form(_rows(identity(4)))
    assert dec.factors == (1, 1, 1, 1)


def test_stored_zero_is_never_a_pivot():
    dec = smith_normal_form([{0: 0, 1: 2}])
    assert dec.factors == (2,)
    assert dec.u == [{0: 1}]


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _check_decomposition(m, dec):
    """|det U| = 1; U M is D V^-1, so row i of U M is d_i times a primitive
    row for i below the rank and zero from the rank on; d_i | d_(i+1)."""
    u = dense_u(dec)
    assert abs(determinant(u)) == 1
    um = mat_mul(u, m)
    for i, f in enumerate(dec.factors):
        assert math.gcd(*um[i]) == f
    assert not any(any(row) for row in um[dec.rank :])
    for i in range(dec.rank - 1):
        assert dec.factors[i + 1] % dec.factors[i] == 0
    return u


def test_decomposition_reassembles():
    rng = random.Random(31)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        _check_decomposition(m, smith_normal_form(_rows(m)))


def _random_unimodular(rng, n):
    m = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return m


def test_invariant_factors_unchanged_by_unimodular_transforms():
    rng = random.Random(77)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        base = smith_normal_form(_rows(m)).factors
        left = _random_unimodular(rng, rows)
        right = _random_unimodular(rng, cols)
        transformed = mat_mul(mat_mul(left, m), right)
        assert smith_normal_form(_rows(transformed)).factors == base


def _columns(m):
    """The sparse columns of a dense matrix."""
    return [sparse(col) for col in zip(*m)]


def _check_coordinates(lattice, b, y):
    """U b = D y: b is the sum of y_i * d_i * U^-1 e_i, for b dense and y
    sparse below the rank."""
    assert all(i < lattice.rank and c for i, c in y.items())
    scaled = [f * c for f, c in zip(lattice.dec.factors, dense(y, lattice.rank))]
    assert mat_vec(dense_u(lattice.dec), b) == scaled + [0] * (len(b) - lattice.rank)


def test_lattice_finds_integer_coordinates():
    rng = random.Random(13)
    for kind in KINDS:
        for _ in range(15):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = _matrix_of_kind(rng, kind, rows, cols)
            lattice = Lattice(_columns(m), rows)
            b = mat_vec(m, [rng.randint(-5, 5) for _ in range(cols)])
            y = lattice.coordinates(sparse(b))
            assert y is not None
            _check_coordinates(lattice, b, y)


def test_lattice_rejects_non_members():
    lattice = Lattice(_columns([[2, 0], [0, 2]]), 2)
    assert lattice.rank == 2
    assert lattice.coordinates(sparse([1, 0])) is None
    assert lattice.coordinates(sparse([2, -4])) == sparse([1, -2])
    empty = Lattice([sparse([0, 0])], 2)
    assert empty.rank == 0
    assert empty.coordinates(sparse([0, 0])) == {}
    assert empty.coordinates(sparse([0, 1])) is None


def test_kernel_vectors_annihilate():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(2, 5)
        m = _random_matrix(rng, rows, cols, bound=4)
        kernel = preimage_generators(_columns(m), [], cols)
        assert len(kernel) == cols - smith_normal_form(_rows(m)).rank
        for vec in kernel:
            assert mat_vec(m, dense(vec, cols)) == [0] * rows


def test_decomposition_on_larger_matrices():
    rng = random.Random(101)
    for _ in range(5):
        m = _random_matrix(rng, 7, 9, bound=25)
        dec = smith_normal_form(_rows(m))
        factors, u, _ = dense_smith_normal_form(m)
        assert dec.factors == factors
        assert _check_decomposition(m, dec) == u


def test_quotient_invariants():
    # Z^2 / <(2,0),(0,3)> has no free part and torsion 1|6 -> report (6,)
    free, torsion = quotient_invariants(2, _columns([[2, 0], [0, 3]]))
    assert free == 0
    assert torsion == (6,)
    free, torsion = quotient_invariants(3, [sparse([2, 0, 0])])
    assert free == 2
    assert torsion == (2,)
    assert quotient_invariants(2, []) == (2, ())


def _sympy_factors(m):
    # sympy lists a zero for every missing rank; ours lists non-zero factors.
    got = sympy_invariant_factors(SympyMatrix(m), domain=ZZ)
    return tuple(int(f) for f in got if f)


KINDS = ("dense", "sparse", "even", "even-diagonal")


def _matrix_of_kind(rng, kind, rows, cols):
    if kind == "sparse":
        # 0/±1 entries: almost every pivot is a unit.
        return [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
    if kind == "even":
        # No unit pivot, so the divisibility scan always runs.
        return [[2 * rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    if kind == "even-diagonal":
        # Scattered even entries such as 4 and 6: the pivot 4 does not
        # divide 6, so the stray-row repair has to run.
        m = [[0] * cols for _ in range(rows)]
        k = min(rows, cols)
        for i, j in zip(rng.sample(range(rows), k), rng.sample(range(cols), k)):
            m[i][j] = rng.choice((-2, 2)) * rng.choice((1, 2, 3, 5, 6, 9))
        return m
    return _random_matrix(rng, rows, cols)


def test_invariant_factors_match_sympy():
    rng = random.Random(4242)
    for kind in KINDS:
        for _ in range(15):
            m = _matrix_of_kind(rng, kind, rng.randint(1, 7), rng.randint(1, 7))
            assert smith_normal_form(_rows(m)).factors == _sympy_factors(m), m


def test_lattice_membership_agrees_with_quotient_invariants():
    """Membership agrees with an independent test: b lies in the lattice
    iff adding it as a column leaves the quotient invariants unchanged."""
    rng = random.Random(515)
    hits = misses = 0
    for kind in KINDS:
        for _ in range(15):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = _matrix_of_kind(rng, kind, rows, cols)
            columns = _columns(m)
            lattice = Lattice(columns, rows)
            image = mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)])
            stray = [rng.randint(-3, 3) for _ in range(rows)]
            for b in (image, stray, [0] * rows):
                y = lattice.coordinates(sparse(b))
                inside = quotient_invariants(rows, columns) == quotient_invariants(
                    rows, columns + [sparse(b)]
                )
                assert (y is not None) == inside
                if y is not None:
                    _check_coordinates(lattice, b, y)
                hits += inside
                misses += not inside
    assert hits and misses


@st.composite
def sparse_matrices(draw):
    """0-12 rows and columns, each entry non-zero with a drawn probability
    of 5-60%; magnitudes are mostly 1-4, as in the patching matrices."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    density = draw(st.integers(5, 60))
    magnitudes = st.sampled_from((1, 1, 1, 2, 2, 3, 4, 6, 12))
    m = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if draw(st.integers(0, 99)) < density:
                m[i][j] = draw(magnitudes) * draw(st.sampled_from((1, -1)))
    return m


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=sparse_matrices(), data=st.data())
def test_sparse_smith_agrees_with_dense_oracle(m, data):
    rows = len(m)
    dec = smith_normal_form(_rows(m))
    factors, u, _ = dense_smith_normal_form(m)
    assert dec.factors == factors
    assert dec.factors == (_sympy_factors(m) if rows and m[0] else ())
    # Same pivot rule and repair, so the very same U.
    assert _check_decomposition(m, dec) == u
    # Stored zeros are dropped on the way in.
    assert smith_normal_form([dict(enumerate(row)) for row in m]) == dec

    columns = [list(col) for col in zip(*m)]
    lattice = Lattice([sparse(c) for c in columns], rows)
    oracle = DenseLattice(columns, rows)

    def vector(size):
        return data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))

    image = mat_vec(m, vector(len(columns)))
    for b in (image, vector(rows), [2 * x for x in vector(rows)]):
        y = lattice.coordinates(sparse(b))
        want = oracle.coordinates(b)
        assert y == (None if want is None else sparse(want))
        if y is not None:
            _check_coordinates(lattice, b, y)


def _agrees_with_dense_oracle(m):
    dec = smith_normal_form(_rows(m))
    factors, u, _ = dense_smith_normal_form(m)
    assert dec.factors == factors
    assert _check_decomposition(m, dec) == u
    return dec


def test_zero_quotient_after_divisibility_repair():
    # After the unit pivot the block [[3, 3], [3, 4]] clears to leave a 1
    # that the pivot 3 does not divide.  The repair adds that row to the
    # pivot row, where the 1 beside the pivot has balanced quotient zero.
    dec = _agrees_with_dense_oracle([[1, 1, 1], [0, 3, 3], [0, 3, 4]])
    assert dec.factors == (1, 1, 3)


def test_small_matrices_near_a_pivot_of_three_agree_with_dense_oracle():
    # With entries 0, 1, 3 and 4 a pivot of 3 often leaves a stray entry
    # that it does not divide, and now and then a zero quotient after the
    # repair, as in the case above.
    rng = random.Random(1)
    for _ in range(1500):
        m = [[rng.choice((0, 1, 3, 4)) for _ in range(3)] for _ in range(3)]
        _agrees_with_dense_oracle(m)


@st.composite
def preimage_cases(draw):
    """Sparse columns of M and targets in Z^dim, some of them zero; dim and
    the domain may be 0."""
    dim, domain, targets = draw(st.integers(0, 8)), draw(st.integers(0, 8)), draw(st.integers(0, 5))
    density = draw(st.integers(10, 60))
    entries = st.sampled_from((1, 1, 2, 2, 3, 4, 6)).flatmap(
        lambda x: st.sampled_from((x, -x))
    )

    def column():
        return [draw(entries) if draw(st.integers(0, 99)) < density else 0 for _ in range(dim)]

    return [column() for _ in range(domain)], [column() for _ in range(targets)], dim


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=preimage_cases())
def test_preimage_generators_agree_with_dense_oracle(case):
    """The lattice {v : M v in <T>} read from U equals the one read from the
    dense oracle's V, by mutual membership; every generator is sparse in
    Z^domain and maps into <T>."""
    columns, targets, dim = case
    domain = len(columns)
    got = preimage_generators([sparse(c) for c in columns], [sparse(t) for t in targets], domain)
    assert all(k < domain and x for v in got for k, x in v.items())
    want = [sparse(v) for v in dense_preimage_generators(columns, targets, domain)]
    got_lattice, want_lattice = Lattice(got, domain), Lattice(want, domain)
    assert all(want_lattice.coordinates(v) is not None for v in got)
    assert all(got_lattice.coordinates(v) is not None for v in want)
    image = Lattice([sparse(t) for t in targets], dim)
    for v in got:
        mv = [sum(c[i] * x for c, x in zip(columns, dense(v, domain))) for i in range(dim)]
        assert image.coordinates(sparse(mv)) is not None
