"""Exact rational matrices, checked against sympy as an oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_rank,
    dense_determinant,
    dense_matmul,
    dense_rank,
    dense_solve_many,
    fraction_reduce,
    is_skew_symmetric,
    is_symmetric,
    matvec,
)
from cactusnet import linalg
from cactusnet.linalg import (
    Inconsistent,
    RationalMatrix,
    _reduce,
    solve_many,
)


def random_matrix(rng, rows, cols, sparse=False):
    def entry():
        if sparse and rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    return RationalMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def to_sympy(m):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row]
         for row in m.rows]
    )


def test_identity_and_zeros():
    i3 = RationalMatrix.identity(3)
    z = RationalMatrix.zeros(2, 3)
    assert i3 @ i3 == i3
    assert z.is_zero()
    assert (i3 - i3).is_zero()


def test_matmul_against_sympy():
    rng = random.Random(7)
    for _ in range(20):
        a = random_matrix(rng, 3, 4)
        b = random_matrix(rng, 4, 2)
        assert to_sympy(a @ b) == to_sympy(a) * to_sympy(b)


def random_entry(rng, zeros):
    if rng.random() < zeros:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def test_product_matches_the_dense_oracle():
    """The products that skip zeros, by a matrix and by a vector, against
    the dense dot product, on sparse, dense and all-zero factors of every
    small shape, 0 rows and 0 columns included (a matrix without rows has
    no columns)."""
    rng = random.Random(5)
    for rows, inner, cols in itertools.product(range(5), repeat=3):
        if rows == 0 and inner:
            continue
        for zeros in (0.0, 0.5, 0.9, 1.0):
            a = RationalMatrix([[random_entry(rng, zeros) for _ in range(inner)]
                                for _ in range(rows)])
            b = RationalMatrix([[random_entry(rng, zeros) for _ in range(cols)]
                                for _ in range(inner)])
            product = a @ b
            assert product == dense_matmul(a, b)
            assert all(type(x) is Fraction for r in product.rows for x in r)
            v = [random_entry(rng, zeros) for _ in range(inner)]
            image = matvec(a, v)
            assert image == [sum(x * y for x, y in zip(row, v)) for row in a.rows]
            assert all(type(x) is Fraction for x in image)
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])
    with pytest.raises(ValueError):
        matvec(RationalMatrix([[1, 2]]), [1])


def test_float_entries_are_refused():
    with pytest.raises(TypeError):
        RationalMatrix([[0.1]])
    with pytest.raises(TypeError):
        RationalMatrix([[1, 2]]).scale(0.5)
    with pytest.raises(TypeError):
        solve_many(RationalMatrix([[1]]), [[0.5]])
    for v in ([0.1, 0.2], [0.0, 1]):
        with pytest.raises(TypeError):
            matvec(RationalMatrix([[1, 2]]), v)
    third = Fraction(1, 3)
    m = RationalMatrix([[third, 2, "1/2"]])
    assert m.rows[0][0] is third
    assert m.rows == [[third, Fraction(2), Fraction(1, 2)]]


def sparse_rank(rows):
    return len(_reduce([{c: Fraction(x) for c, x in row.items()} for row in rows])[0])


def true_rows(rows, scales):
    """The rows ``_reduce`` leaves, as Fractions: row i is its primitive
    integer row times m / d for (m, d) = scales[i]."""
    return [{j: Fraction(x * m, d) for j, x in row.items()}
            for row, (m, d) in zip(rows, scales)]


def test_block_rank_matches_the_dense_rank():
    """The sparse kernel's rank of sparse integer rows, the block-wise
    oracle and the dense oracle agree; sparse enough that most matrices
    split into blocks."""
    rng = random.Random(23)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 14), rng.randint(1, 14)
        density = rng.choice([0.05, 0.1, 0.2, 0.4])
        rows = [{c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in range(ncols)
                 if rng.random() < density} for _ in range(nrows)]
        dense = RationalMatrix([[row.get(c, 0) for c in range(ncols)]
                                for row in rows])
        assert sparse_rank(rows) == block_rank(rows) == dense_rank(dense)
        assert dense.rank() == dense_rank(dense)
    for rows, rank in (([], 0), ([{}, {0: 2}, {}], 1)):
        assert sparse_rank(rows) == block_rank(rows) == rank


def test_determinant_against_sympy():
    rng = random.Random(11)
    for size in (1, 2, 3, 4, 5):
        for _ in range(8):
            m = random_matrix(rng, size, size, sparse=True)
            det = m.determinant()
            assert sympy.Rational(det.numerator, det.denominator) == \
                to_sympy(m).det()
    # inputs that need row swaps: a zero leading entry, a permutation, and
    # row permutations of random matrices (each swap flips the sign)
    swapped = [
        RationalMatrix([[0, 1], [1, 0]]),
        RationalMatrix([[0, 0, 2], [0, 3, 1], [5, 1, 1]]),
        RationalMatrix([[0, 2, 1], [0, 4, 2], [1, 0, 0]]),  # singular
    ]
    for size in (2, 3, 4, 5):
        for _ in range(6):
            m = random_matrix(rng, size, size, sparse=True)
            m.rows[0][0] = Fraction(0)
            perm = list(range(size))
            rng.shuffle(perm)
            swapped += [m, RationalMatrix([m.rows[i] for i in perm])]
    for m in swapped:
        det = m.determinant()
        assert sympy.Rational(det.numerator, det.denominator) == \
            to_sympy(m).det()
    # dense integer matrices with entries up to 40 bits, some singular
    for size in (1, 2, 4, 7):
        for bits in (3, 20, 40):
            for _ in range(4):
                m = RationalMatrix([[rng.randint(-2 ** bits, 2 ** bits)
                                     for _ in range(size)] for _ in range(size)])
                if size > 1 and rng.random() < 0.25:
                    m.rows[-1] = [x + y for x, y in zip(m.rows[0], m.rows[1])]
                det = m.determinant()
                assert det.denominator == 1
                assert det == int(to_sympy(m).det())


def test_rank_against_sympy():
    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, sparse=True)
        assert m.rank() == to_sympy(m).rank()
    # force rank deficiency with duplicated rows
    m = random_matrix(rng, 2, 4)
    stacked = RationalMatrix(m.rows + m.rows)
    assert stacked.rank() == m.rank()


def test_solve_consistent_systems():
    rng = random.Random(17)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, sparse=True)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = matvec(a, x)
        sol = solve_many(a, [b])
        assert not isinstance(sol, Inconsistent)
        assert matvec(a, sol.particulars[0]) == b
        for v in sol.nullspace:
            assert all(y == 0 for y in matvec(a, v))
        assert len(sol.nullspace) == cols - a.rank()


def test_solve_inconsistent_certificate():
    rng = random.Random(19)
    found = 0
    for _ in range(200):
        a = random_matrix(rng, 4, 3, sparse=True)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        sol = solve_many(a, [b])
        if isinstance(sol, Inconsistent):
            found += 1
            cert = sol.certificate
            # certificate is a left null vector of A not orthogonal to b
            lhs = [
                sum(cert[i] * a[(i, j)] for i in range(4)) for j in range(3)
            ]
            assert all(x == 0 for x in lhs)
            assert sum(c * y for c, y in zip(cert, b)) != 0
    assert found >= 5


def test_sum_and_difference_require_equal_shapes():
    row, one = RationalMatrix([[1, 2]]), RationalMatrix([[1]])
    for a, b in ((row, one), (one, row), (row, row.transpose())):
        with pytest.raises(ValueError, match="dimension mismatch"):
            a + b
        with pytest.raises(ValueError, match="dimension mismatch"):
            a - b
    assert row + row == RationalMatrix([[2, 4]])


def test_transpose_and_symmetry():
    m = RationalMatrix([[1, 2], [2, 5]])
    assert is_symmetric(m)
    s = RationalMatrix([[0, 3], [-3, 0]])
    assert is_skew_symmetric(s)
    assert s.transpose() == -s


def test_submatrix():
    m = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.submatrix([0, 2], [1]) == RationalMatrix([[2], [8]])


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2, 3]]).determinant()


def to_fractions(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


def test_solve_many_matches_sympy():
    """Particular solutions (free variables zero) and the nullspace basis
    agree exactly with sympy's Gauss-Jordan solve and nullspace."""
    rng = random.Random(29)
    with_kernel = 0
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, sparse=True)
        xs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
               for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        rhs = [matvec(a, x) for x in xs]
        sol = solve_many(a, rhs)
        assert not isinstance(sol, Inconsistent)
        sa = to_sympy(a)
        assert [to_fractions(v) for v in sa.nullspace()] == sol.nullspace
        with_kernel += bool(sol.nullspace)
        assert len(sol.particulars) == len(rhs)
        for b, x in zip(rhs, sol.particulars):
            assert matvec(a, x) == b
            gen, params = sa.gauss_jordan_solve(sympy.Matrix(
                [sympy.Rational(y.numerator, y.denominator) for y in b]))
            expected = gen.subs({t: 0 for t in params})
            assert to_fractions(expected) == x
            assert solve_many(a, [b]).particulars == [x]
    assert with_kernel >= 5


def test_solve_many_inconsistent_certificate():
    rng = random.Random(31)
    found = 0
    for _ in range(100):
        a = random_matrix(rng, 4, 3, sparse=True)
        consistent = matvec(a, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
        other = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        rhs = [consistent, other]
        sol = solve_many(a, rhs)
        sa = to_sympy(a)
        try:
            sa.gauss_jordan_solve(sympy.Matrix(other))
        except ValueError:
            assert isinstance(sol, Inconsistent)
        else:
            assert not isinstance(sol, Inconsistent)
            continue
        found += 1
        cert = sol.certificate
        lhs = [sum(cert[i] * a[(i, j)] for i in range(4)) for j in range(3)]
        assert all(x == 0 for x in lhs)
        assert sum(c * y for c, y in zip(cert, other)) != 0
        # a single-column solve reports the same certificate
        assert solve_many(a, [other]).certificate == cert
    assert found >= 5


def test_solve_many_shapes():
    a = RationalMatrix([[1, 2], [2, 4]])
    sol = solve_many(a, [])
    assert sol.particulars == [] and sol.nullspace == [[-2, 1]]
    empty = solve_many(RationalMatrix([]), [])
    assert empty.particulars == [] and empty.nullspace == []
    with pytest.raises(ValueError):
        solve_many(a, [[1, 2, 3]])


def first_inconsistent(a, rhs):
    """Index of the first column the dense oracle cannot solve, or None."""
    return next((k for k, b in enumerate(rhs)
                 if isinstance(dense_solve_many(a, [b]), Inconsistent)), None)


def assert_certifies(cert, a, b):
    """y^T A = 0 and y^T b != 0."""
    assert len(cert) == a.nrows
    assert all(type(y) is Fraction for y in cert)
    assert all(sum((y * row[j] for y, row in zip(cert, a.rows)), Fraction(0)) == 0
               for j in range(a.ncols))
    assert sum(y * x for y, x in zip(cert, b)) != 0


@st.composite
def sparse_systems(draw):
    """A sparse rational matrix, often rank-deficient (some rows are
    combinations of others), with right-hand sides of which some lie in
    the column space and some need not."""
    entry = st.one_of(st.just(0), st.just(0), st.just(0),
                      st.fractions(-4, 4, max_denominator=3))
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in range(nrows):
        if i and draw(st.booleans()):
            k, j = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            t = draw(st.fractions(-2, 2, max_denominator=2))
            rows[i] = [t * x + y for x, y in zip(rows[k], rows[j])]
    a = RationalMatrix(rows)
    rhs = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            rhs.append(matvec(a, draw(st.lists(entry, min_size=ncols, max_size=ncols))))
        else:
            rhs.append(draw(st.lists(entry, min_size=nrows, max_size=nrows)))
    return a, rhs


@given(sparse_systems())
@settings(max_examples=150, deadline=None)
def test_sparse_kernel_matches_the_dense_oracle(system):
    """Rank, determinant, particular solutions and nullspace equal the
    dense Gauss-Jordan oracle's, from dense and from sparse rows, and every
    certificate of an inconsistent column is valid."""
    a, rhs = system
    assert a.rank() == dense_rank(a)
    size = min(a.nrows, a.ncols)
    square = a.submatrix(range(size), range(size))
    assert square.determinant() == dense_determinant(square)
    sol = solve_many(a, rhs)
    def sparse(vectors):
        return [{j: x for j, x in enumerate(v) if x} for v in vectors]

    assert solve_many(sparse(a.rows), sparse(rhs), ncols=a.ncols) == sol
    expected = dense_solve_many(a, rhs)
    bad = first_inconsistent(a, rhs)
    if bad is None:
        assert sol == expected
    else:
        assert isinstance(sol, Inconsistent) and isinstance(expected, Inconsistent)
        assert_certifies(sol.certificate, a, rhs[bad])
        assert solve_many(a, [rhs[bad]]) == sol


def test_sparse_kernel_on_empty_and_zero_rows():
    """No rows, zero rows and zero columns: the nullspace is every free
    unit vector and a nonzero right-hand side of a zero row is
    inconsistent."""
    assert solve_many([], [], ncols=3).nullspace == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert solve_many([], [[]], ncols=2).particulars == [[0, 0]]
    zero = RationalMatrix.zeros(2, 2)
    assert zero.rank() == 0 and zero.determinant() == 0
    sol = solve_many(zero, [[0, 0], [0, 5]])
    assert sol == Inconsistent([Fraction(0), Fraction(1)])
    assert RationalMatrix([]).determinant() == 1
    with pytest.raises(ValueError, match="row width"):
        solve_many([{2: 1}], [], ncols=2)
    with pytest.raises(ValueError, match="row width"):
        solve_many([[1, 2, 3]], [], ncols=2)
    with pytest.raises(ValueError, match="rhs length"):
        solve_many([{0: 1}], [{1: 1}], ncols=1)
    # sparse right-hand sides give the same solutions as dense ones
    a = RationalMatrix([[1, 2, 0], [0, 1, 1]])
    assert solve_many(a, [{1: 3}, {}]) == solve_many(a, [[0, 3], [0, 0]])
    with pytest.raises(TypeError):
        solve_many([{0: 0.0}], [], ncols=1)
    with pytest.raises(TypeError, match="ncols"):
        solve_many([{0: 1}], [])


@st.composite
def kernel_rows(draw):
    """Sparse rows for the elimination kernel: small rationals or
    30-60-bit ones, with zero rows, repeated rows and multiples of
    earlier rows, over ``ncols`` columns and up to three further keys
    (right-hand sides).  Returns (rows, ncols)."""
    if draw(st.booleans()):
        entry = st.fractions(-4, 4, max_denominator=3)
    else:
        entry = st.builds(lambda s, p, q: Fraction(s * p, q),
                          st.sampled_from([-1, 1]), st.integers(2 ** 30, 2 ** 60),
                          st.sampled_from([1, 1, 3, 2 ** 20 + 7]))
    ncols, extra = draw(st.integers(1, 7)), draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat", "multiple"]))
        if kind == "zero":
            rows.append({})
        elif kind == "new" or not rows:
            keys = draw(st.sets(st.integers(0, ncols + extra - 1), max_size=5))
            rows.append({j: x for j in sorted(keys) if (x := draw(entry))})
        else:
            t = 1 if kind == "repeat" else draw(entry.filter(bool))
            rows.append({j: t * x for j, x in draw(st.sampled_from(rows)).items()})
    return rows, ncols


def copy_rows(rows, integers):
    """Copies of the rows; with ``integers``, integral entries become ints."""
    return [{j: x.numerator if integers and x.denominator == 1 else x
             for j, x in row.items()} for row in rows]


@given(kernel_rows(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fraction_free_kernel_matches_the_fraction_oracle(system, gauss_jordan,
                                                          integers):
    """The fraction-free kernel takes the same pivots, with the same
    values, as the elimination over Fractions, and leaves the same true
    rows (primitive integer rows over their scales), in both modes and
    from int or Fraction entries; so ``solve_many`` gives the same
    solutions or the same certificate."""
    rows, ncols = system
    ncols = ncols if gauss_jordan else None
    got, expected = copy_rows(rows, integers), copy_rows(rows, False)
    pivots, scales = _reduce(got, ncols)
    assert pivots == fraction_reduce(expected, ncols)
    assert true_rows(got, scales) == expected
    assert all(type(x) is int for row in got for x in row.values())
    assert all(math.gcd(*row.values()) == 1 for row in got if row)
    if ncols is None:
        return
    a = [{j: x for j, x in row.items() if j < ncols} for row in rows]
    rhs = [{i: row[j] for i, row in enumerate(rows) if j in row}
           for j in range(ncols, ncols + 3)]
    with pytest.MonkeyPatch.context() as patch:
        # its rows are true rows already, each pivot row 1 at its pivot
        patch.setattr(linalg, "_reduce", lambda rows, ncols: (
            fraction_reduce(rows, ncols), [(1, 1)] * len(rows)))
        oracle = solve_many(a, rhs, ncols=ncols)
    assert solve_many(a, rhs, ncols=ncols) == oracle


def test_diagonal_mode_leaves_the_schur_complement():
    """Pivoting only on the diagonals of the given rows leaves the other
    rows as the Schur complement of the pivot block (sympy), as integer
    rows over their scales, from sparse, diagonally dominant rows of mixed
    entries."""
    rng = random.Random(5)
    for _ in range(60):
        n, k = rng.randint(1, 7), rng.randint(0, 4)
        size = n + k
        a = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i):
                if rng.random() < 0.4:
                    a[i][j] = a[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            a[i][i] = sum(map(abs, a[i])) + Fraction(rng.randint(1, 3),
                                                     rng.randint(1, 3))
        rows = [{j: x for j, x in enumerate(r) if x} for r in a]
        pivots, scales = _reduce(rows, diagonal=range(n, size))
        assert sorted((i, c) for i, c, _ in pivots) == [(i, i) for i in range(n, size)]
        m = to_sympy(RationalMatrix(a))
        schur = m[:n, :n] - m[:n, n:] * m[n:, n:].inv() * m[n:, :n]
        got = [[row.get(j, Fraction(0)) for j in range(size)]
               for row in true_rows(rows, scales)[:n]]
        assert all(type(x) is int for row in rows[:n] for x in row.values())
        assert all(x == 0 for row in got for x in row[n:])
        assert to_sympy(RationalMatrix([row[:n] for row in got])) == schur


def test_diagonal_mode_skips_a_row_without_its_diagonal():
    """A row of the pivot set whose diagonal entry is zero takes no pivot,
    so the pivots fall short of the set."""
    rows = [{0: Fraction(2), 1: Fraction(-1)}, {0: Fraction(-1)}]
    pivots, scales = _reduce(rows, diagonal=[1])
    assert pivots == []
    assert true_rows(rows, scales)[0] == {0: Fraction(2), 1: Fraction(-1)}
