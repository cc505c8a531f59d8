import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from walgebra.gl import GlElement, ad_matrix
from walgebra.linalg import Echelon, SparseMatrix, kernel_basis, rank, solve


def dense(rows):
    r = len(rows)
    c = len(rows[0]) if rows else 0
    return SparseMatrix(r, c, {(i, j): v for i, row in enumerate(rows)
                               for j, v in enumerate(row) if v})


def naive_rank(rows):
    """Plain rational Gaussian elimination, used as an oracle."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][col]:
                f = rows[i][col] / rows[rk][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def test_rank_zero_and_identity():
    assert rank(SparseMatrix(3, 3)) == 0
    assert rank(dense([[1 if i == j else 0 for j in range(4)] for i in range(4)])) == 4


def test_rank_ad_e13_gl3():
    # 9 - dim(centralizer of E13) = 9 - 5 = 4, confirmed by the naive oracle.
    m = ad_matrix(GlElement.unit(3, 0, 2))
    grid = [[m.get(i, j) for j in range(9)] for i in range(9)]
    assert naive_rank(grid) == 4
    assert rank(m) == 4


def test_kernel_identity_and_zero():
    assert kernel_basis(dense([[1, 0], [0, 1]])) == []
    basis = kernel_basis(SparseMatrix(3, 3))
    assert len(basis) == 3
    span = Echelon()
    for v in basis:
        assert span.insert({i: x for i, x in enumerate(v) if x})
    assert span.dim == 3


def test_kernel_ad_e13_matches_centralizer():
    m = ad_matrix(GlElement.unit(3, 0, 2))
    basis = kernel_basis(m)
    assert len(basis) == 5
    # Expected span: E11+E33, E22, E12, E23, E13 (flattened index i*3+j).
    expected = [
        {0: 1, 8: 1},
        {4: 1},
        {1: 1},
        {5: 1},
        {2: 1},
    ]
    span = Echelon()
    for v in basis:
        span.insert({i: x for i, x in enumerate(v) if x})
    for vec in expected:
        assert span.contains(dict(vec)), vec


def test_solve_trivial_cases():
    ident = dense([[1, 0], [0, 1]])
    assert solve(ident, [Fraction(3), Fraction(-2)]) == (3, -2)
    assert solve(SparseMatrix(2, 2), [Fraction(1), Fraction(0)]) is None


def test_solve_multiply_back_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        m = dense(rows)
        v = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        rhs = m.mul_vector(v)
        sol = solve(m, rhs)
        assert sol is not None
        assert m.mul_vector(list(sol)) == rhs


small_matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_plus_kernel_is_cols(rows):
    m = dense(rows)
    assert rank(m) + len(kernel_basis(m)) == m.cols
    assert rank(m) == naive_rank(rows)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_kernel_vectors_are_annihilated(rows):
    m = dense(rows)
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.mul_vector(list(v)))


rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(-3, 3, max_denominator=4))


@st.composite
def rational_systems(draw):
    """A small rational matrix with a right-hand side that is consistent
    about half of the time."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [[draw(rationals) for _ in range(c)] for _ in range(r)]
    if draw(st.booleans()):
        x = [draw(rationals) for _ in range(c)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [draw(rationals) for _ in range(r)]
    return rows, rhs


def to_fractions(vec):
    return tuple(Fraction(int(v.p), int(v.q)) for v in vec)


def sympy_matrix(rows):
    import sympy  # imported here: its import slows the tests collected first
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in rows])


@settings(max_examples=60, deadline=None)
@given(rational_systems())
def test_linalg_matches_sympy_oracle(system):
    rows, rhs = system
    m, sm = dense(rows), sympy_matrix(rows)
    assert rank(m) == sm.rank()
    assert kernel_basis(m) == [to_fractions(v) for v in sm.nullspace()]
    try:
        sol, params = sm.gauss_jordan_solve(sympy_matrix([[v] for v in rhs]))
    except ValueError:
        expected = None
    else:
        expected = to_fractions(sol.subs({p: 0 for p in params}))
    assert solve(m, rhs) == expected
