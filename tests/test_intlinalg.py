import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from equichow import intlinalg
from equichow.intlinalg import coordinates, echelon, quotient_invariants, smith_normal_form
from oracles import (
    DenseLattice,
    dense,
    dense_preimage_generators,
    dense_smith_normal_form,
    identity,
    mat_mul,
    mat_vec,
    sparse,
)


def _rows(m):
    """The sparse rows of a dense matrix."""
    return [sparse(row) for row in m]


def test_coprime_diagonal():
    assert smith_normal_form(_rows([[2, 0], [0, 3]])) == (1, 6)


def test_zero_matrix():
    assert smith_normal_form(_rows([[0, 0, 0], [0, 0, 0]])) == ()
    assert smith_normal_form([]) == ()


def test_identity_matrix():
    assert smith_normal_form(_rows(identity(4))) == (1, 1, 1, 1)


def test_stored_zero_is_never_a_pivot():
    assert smith_normal_form([{0: 0, 1: 2}]) == (2,)
    assert smith_normal_form([{0: -3, 1: 0}]) == (3,)


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


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
        base = smith_normal_form(_rows(m))
        left = _random_unimodular(rng, rows)
        right = _random_unimodular(rng, cols)
        transformed = mat_mul(mat_mul(left, m), right)
        assert smith_normal_form(_rows(transformed)) == base


def _columns(m):
    """The sparse columns of a dense matrix."""
    return [sparse(col) for col in zip(*m)]


def _check_coordinates(pivots, b, y):
    """b is the sum of y[j] * pivots[j], for b dense and y sparse over the
    pivot columns."""
    total = [0] * len(b)
    for j, q in y.items():
        assert j in pivots and q
        for k, x in pivots[j].items():
            total[k] += q * x
    assert total == b


def test_lattice_finds_integer_coordinates():
    rng = random.Random(13)
    for kind in KINDS:
        for _ in range(15):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = _matrix_of_kind(rng, kind, rows, cols)
            pivots, _ = echelon(_columns(m))
            b = mat_vec(m, [rng.randint(-5, 5) for _ in range(cols)])
            y = coordinates(pivots, sparse(b))
            assert y is not None
            _check_coordinates(pivots, b, y)


def test_lattice_rejects_non_members():
    pivots, kernel = echelon(_columns([[2, 0], [0, 2]]))
    assert len(pivots) == 2 and kernel == []
    assert coordinates(pivots, sparse([1, 0])) is None
    assert coordinates(pivots, sparse([2, -4])) == {0: 1, 1: -2}
    empty, kernel = echelon([sparse([0, 0])])
    assert empty == {} and kernel == [{0: 1}]
    assert coordinates(empty, {0: 0}) == {}
    assert coordinates(empty, sparse([0, 1])) is None


def test_kernel_vectors_annihilate():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(2, 5)
        m = _random_matrix(rng, rows, cols, bound=4)
        _, kernel = echelon(_columns(m))
        assert len(kernel) == cols - len(smith_normal_form(_rows(m)))
        for vec in kernel:
            assert mat_vec(m, dense(vec, cols)) == [0] * rows


def test_decomposition_on_larger_matrices():
    rng = random.Random(101)
    for _ in range(5):
        m = _random_matrix(rng, 7, 9, bound=25)
        factors = smith_normal_form(_rows(m))
        assert factors == dense_smith_normal_form(m)[0] == _sympy_factors(m)


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
        # No unit pivot, so every invariant factor is even.
        return [[2 * rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    if kind == "even-diagonal":
        # Scattered even entries such as 4 and 6: the matrix is diagonal up
        # to the order of its rows and columns, so 4 and 6 reach the gcd/lcm
        # repair as they are and become 2 and 12.
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
            assert smith_normal_form(_rows(m)) == _sympy_factors(m), m


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
            pivots, _ = echelon(columns)
            image = mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)])
            stray = [rng.randint(-3, 3) for _ in range(rows)]
            for b in (image, stray, [0] * rows):
                y = coordinates(pivots, sparse(b))
                inside = quotient_invariants(rows, columns) == quotient_invariants(
                    rows, columns + [sparse(b)]
                )
                assert (y is not None) == inside
                if y is not None:
                    _check_coordinates(pivots, b, y)
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
@given(m=sparse_matrices())
def test_sparse_smith_agrees_with_dense_oracle(m):
    factors = smith_normal_form(_rows(m))
    assert factors == dense_smith_normal_form(m)[0]
    assert factors == (_sympy_factors(m) if m and m[0] else ())
    # Stored zeros are dropped on the way in.
    assert smith_normal_form([dict(enumerate(row)) for row in m]) == factors


def _agrees_with_dense_oracle(m):
    factors = smith_normal_form(_rows(m))
    assert factors == dense_smith_normal_form(m)[0]
    return factors


def test_zero_quotient_after_divisibility_repair():
    # The first echelon form leaves a 1 beside the pivot 3 in its first
    # row.  Its balanced quotient is zero, so the Hermite reduction must
    # leave it alone.  The next form's diagonal 1, 3, 1 is out of
    # divisibility order until it is sorted.
    assert _agrees_with_dense_oracle([[1, 1, 1], [0, 3, 3], [0, 3, 4]]) == (1, 1, 3)


def test_small_matrices_near_a_pivot_of_three_agree_with_dense_oracle():
    # With entries 0, 1, 3 and 4 a pivot of 3 often has a 1 or a 4 beside
    # it, of balanced quotient zero or one, and the diagonal often comes
    # out of divisibility order, as in the case above.
    rng = random.Random(1)
    for _ in range(1500):
        m = [[rng.choice((0, 1, 3, 4)) for _ in range(3)] for _ in range(3)]
        _agrees_with_dense_oracle(m)


def _check_echelon(m, vectors):
    """echelon(rows of m) against the dense oracles: the pivot rows are in
    echelon form and as many as the rank; the kernel has rows - rank
    vectors, each a relation among the rows, and spans the lattice of
    `dense_preimage_generators`; `coordinates` decides membership in the
    span of the rows as `DenseLattice` does.  Returns the echelon form."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots, kernel = echelon(_rows(m))
    assert list(pivots) == sorted(pivots)
    assert all(min(row) == j for j, row in pivots.items())
    assert len(pivots) == len(smith_normal_form(_rows(m)))
    assert len(kernel) == rows - len(pivots)
    for vec in kernel:
        assert all(0 <= i < rows and x for i, x in vec.items())
        assert [sum(m[i][k] * x for i, x in vec.items()) for k in range(cols)] == [0] * cols
    got = [dense(vec, rows) for vec in kernel]
    want = dense_preimage_generators(m, [], rows)
    assert all(DenseLattice(want, rows).coordinates(vec) is not None for vec in got)
    assert all(DenseLattice(got, rows).coordinates(vec) is not None for vec in want)
    span = DenseLattice(m, cols)
    for b in vectors:
        y = coordinates(pivots, sparse(b))
        assert (y is None) == (span.coordinates(b) is None)
        if y is not None:
            _check_coordinates(pivots, b, y)
    return pivots, kernel


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=sparse_matrices(), data=st.data())
def test_echelon_agrees_with_dense_oracle(m, data):
    """Drawn matrices, with a zero row, a repeated row and a negated row
    appended when drawn; memberships of a combination of the rows, a drawn
    vector and an even one."""
    cols = len(m[0]) if m else 0
    if m and data.draw(st.booleans()):
        m = m + [[0] * cols, m[0][:], [-x for x in m[-1]]]

    def vector(size):
        return data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))

    combination = vector(len(m))
    image = [sum(c * row[k] for c, row in zip(combination, m)) for k in range(cols)]
    _check_echelon(m, [image, vector(cols), [2 * x for x in vector(cols)]])


def test_echelon_special_rows():
    """Zero rows, repeated rows, negative leads, and a row whose lead is
    smaller than the lead of a row before it: were the first row taken as
    the pivot, its quotient would be 0."""
    rng = random.Random(7)
    cases = {
        "zero rows": [[0, 0, 0], [0, 2, 1], [0, 0, 0]],
        "repeated rows": [[1, 2, 3], [1, 2, 3], [-1, -2, -3]],
        "negative leads": [[-3, 1, 0], [-6, 2, 1], [-2, 0, 5]],
        "small lead after a large one": [[4, 1], [1, 0]],
        "leads 5, 3, -2": [[0, 5, 1], [0, 3, 7], [0, -2, 4]],
    }
    results = {}
    for name, m in cases.items():
        cols = len(m[0])
        vectors = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(20)]
        vectors += [mat_vec(list(map(list, zip(*m))), [rng.randint(-3, 3) for _ in m])]
        results[name] = _check_echelon(m, vectors)
    assert results["zero rows"] == ({1: {1: 2, 2: 1}}, [{0: 1}, {2: 1}])
    assert len(results["repeated rows"][1]) == 2
    assert results["small lead after a large one"] == ({0: {0: 1}, 1: {1: 1}}, [])


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
    """The lattice {v : M v in <T>}, read as the relations among the rows
    [columns of M; targets] cut to M's coordinates, equals the one read
    from the dense oracle's V, by mutual membership; every generator maps
    into <T>."""
    columns, targets, dim = case
    domain = len(columns)
    _, kernel = echelon([sparse(c) for c in columns + targets])
    got = [dense({k: x for k, x in v.items() if k < domain}, domain) for v in kernel]
    want = dense_preimage_generators(columns, targets, domain)
    got_lattice, want_lattice = DenseLattice(got, domain), DenseLattice(want, domain)
    assert all(want_lattice.coordinates(v) is not None for v in got)
    assert all(got_lattice.coordinates(v) is not None for v in want)
    image = DenseLattice(targets, dim)
    for v in got:
        mv = [sum(c[i] * x for c, x in zip(columns, v)) for i in range(dim)]
        assert image.coordinates(mv) is not None


ENTRY_BITS = 512


def growth_matrix(seed):
    """Sparse rows of a matrix of 1 to 40 rows and columns with entries of
    at most 3 in absolute value, filled to a density of up to a third."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 40), rng.randint(1, 40)
    m = [{} for _ in range(rows)]
    for _ in range(rng.randint(0, rows * cols // 3)):
        m[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return m


# Without shrinking a failure is reported at once: shrinking would run
# echelon again on matrices whose entries run to thousands of bits.
@settings(max_examples=40, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2**32))
@example(seed=3847)  # 537 bits in the Smith loop without Hermite reduction
def test_echelon_entries_stay_small(seed):
    """Entry growth in `echelon` is bounded only in practice (it does not
    reduce above pivots), so this pins it: the smallest-lead form stays
    near 130 bits on such matrices, while Euclid on every clash of two rows
    grew entries past 5000 bits.  The rows that `smith_normal_form` passes
    to `echelon` are bounded too, as each reaches it: without the Hermite
    reduction between forms they grew past 600 bits on such matrices."""

    def bits(rows):
        return max((abs(x).bit_length() for row in rows for x in row.values()), default=0)

    m = growth_matrix(seed)
    pivots, kernel = echelon(m)
    assert bits(list(pivots.values()) + kernel) <= ENTRY_BITS

    def bounded_echelon(rows):
        assert bits(rows) <= ENTRY_BITS
        return echelon(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intlinalg, "echelon", bounded_echelon)
        factors = smith_normal_form(m)
    assert len(factors) == len(pivots)
