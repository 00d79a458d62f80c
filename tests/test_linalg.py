import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from bihomlie import linalg
from bihomlie.fields import GF, QQ, FieldMismatchError, FpElement
from bihomlie.linalg import (Matrix, MatrixSubspace, SingularMatrixError,
                             VectorSubspace, char_poly, invert, is_invertible,
                             nullspace_basis, rank, rref)


def mat(rows, field=QQ):
    return Matrix(rows, field)


# --- rref ----------------------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(2, QQ)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1]


def test_rref_rank_one():
    r, pivots = rref(mat([[1, 2], [2, 4]]))
    assert r == mat([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_f3():
    F3 = GF(3)
    r, pivots = rref(mat([[1, 1], [1, 2]], F3))
    assert r == Matrix.identity(2, F3)
    assert pivots == [0, 1]


def test_rref_idempotent_random():
    rng = random.Random(20240817)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = mat([[Fraction(rng.randrange(-4, 5)) for _ in range(cols)]
                 for _ in range(rows)])
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2
        assert p1 == p2


# --- nullspace -----------------------------------------------------------

def test_nullspace_zero_matrix():
    assert len(nullspace_basis(Matrix.zero(2, 3, QQ))) == 3


def test_nullspace_identity():
    assert nullspace_basis(Matrix.identity(3, QQ)) == []


def test_nullspace_line():
    basis = nullspace_basis(mat([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    # up to scaling this is (1, -1)
    assert v[0] != 0 and v[1] == -v[0]


def test_rank_nullity_random():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = mat([[Fraction(rng.randrange(-3, 4)) for _ in range(cols)]
                 for _ in range(rows)])
        basis = nullspace_basis(m)
        assert rank(m) + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_nullspace_counts_fp_exhaustive():
    # solution count by brute force must equal p^(nullity)
    rng = random.Random(4)
    for p in (2, 3):
        F = GF(p)
        for _ in range(6):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(1, 4)
            m = mat([[F(rng.randrange(p)) for _ in range(cols)]
                     for _ in range(rows)], F)
            basis = nullspace_basis(m)
            count = 0
            for combo in itertools.product(range(p), repeat=cols):
                v = tuple(F(c) for c in combo)
                if all(x == F(0) for x in m.apply(v)):
                    count += 1
            assert count == p ** len(basis)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_nullspace_basis_is_canonical(field):
    # the kernel comes out in reduced row echelon form: re-reducing it as a
    # VectorSubspace changes nothing
    rng = random.Random(31)
    ms = [Matrix.zero(3, 4, field), Matrix.identity(3, field),
          Matrix([[0, 2, 1, 0, 3]], field), Matrix([[1], [0], [2]], field)]
    for _ in range(60):
        rows, cols = rng.choice([(1, rng.randrange(1, 7)),
                                 (rng.randrange(1, 6), 1),
                                 (rng.randrange(1, 6), rng.randrange(1, 7))])
        ms.append(Matrix([[rng.randrange(-3, 4) if rng.random() < 0.6 else 0
                           for _ in range(cols)] for _ in range(rows)], field))
    for m in ms:
        basis = nullspace_basis(m)
        assert tuple(basis) == VectorSubspace(m.cols, basis, field).basis, m
        assert rank(m) + len(basis) == m.cols
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


# --- inverse / rank -------------------------------------------------------

def test_invert_diagonal():
    m = mat([[2, 0], [0, 3]])
    assert invert(m) == mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_rank_one_matrix():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_invert_random():
    rng = random.Random(7)
    found = 0
    while found < 10:
        m = mat([[Fraction(rng.randrange(-4, 5)) for _ in range(3)]
                 for _ in range(3)])
        if not is_invertible(m):
            continue
        found += 1
        assert m * invert(m) == Matrix.identity(3, QQ)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(mat([[1, 2], [2, 4]]))


# --- char poly ------------------------------------------------------------

def test_char_poly_diag():
    # (t-2)(t-3) = t^2 - 5t + 6
    assert char_poly(mat([[2, 0], [0, 3]])) == (1, -5, 6)


def test_char_poly_nilpotent():
    assert char_poly(mat([[0, 1], [0, 0]])) == (1, 0, 0)


def test_char_poly_companion():
    # companion matrix of t^3 - 2t - 5
    m = mat([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(m) == (1, 0, -2, -5)


def test_char_poly_f3():
    F3 = GF(3)
    m = mat([[1, 1], [1, 2]], F3)
    # trace 0 mod 3, det 1 mod 3 -> t^2 + 0t + 1
    assert char_poly(m) == (F3(1), F3(0), F3(1))


def _leibniz_char_poly(m):
    """Reference: det(t I - m) as the sum over permutations, highest
    degree first."""
    n, field = m.rows, m.field
    one, zero = field.one(), field.zero()
    total = [zero] * (n + 1)  # constant term first
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = [-one if inversions % 2 else one]
        for i, j in enumerate(perm):
            factor = [-m.entries[i][j]] + ([one] if i == j else [])
            product = [zero] * (len(term) + len(factor) - 1)
            for a, x in enumerate(term):
                for b, y in enumerate(factor):
                    product[a + b] += x * y
            term = product
        for a, x in enumerate(term):
            total[a] += x
    return tuple(reversed(total))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_char_poly_matches_leibniz(field):
    rng = random.Random(1984)
    scalar = type(field.one())
    for n in range(1, 6):
        for _ in range(12):
            den = rng.choice((1, 2, 3)) if field == QQ else 1
            m = mat([[Fraction(rng.randrange(-4, 5), den)
                      if rng.random() < 0.7 else 0 for _ in range(n)]
                     for _ in range(n)], field)
            got = char_poly(m)
            assert got == _leibniz_char_poly(m), m
            assert all(type(x) is scalar for x in got)


def _dense_berkowitz(m):
    """Reference: Berkowitz's recurrence with every entry read, zeros
    included."""
    a, zero, one = m.entries, m.field.zero(), m.field.one()
    poly = [one]
    for r in range(m.rows):
        vec = [a[i][r] for i in range(r)]
        col = [one, -a[r][r]]
        for _ in range(r):
            col.append(-sum(map(mul, a[r][:r], vec), zero))
            vec = [sum(map(mul, a[i][:r], vec), zero) for i in range(r)]
        poly = [sum((col[i - j] * p for j, p in enumerate(poly[:i + 1])),
                    zero) for i in range(r + 2)]
    return tuple(poly)


def test_char_poly_of_diagonal_is_product_of_linear_factors():
    # n = 17, the Heisenberg twist size where the zero entries dominate
    diag = [Fraction(v, 1 + v % 3) for v in range(-8, 9)]
    want = [Fraction(1)]    # prod(t - d_i), highest degree first
    for d in diag:
        want = [x - d * y for x, y in zip(want + [0], [0] + want)]
    m = mat([[d if i == j else 0 for j in range(17)]
             for i, d in enumerate(diag)])
    assert char_poly(m) == tuple(want)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_char_poly_matches_dense_berkowitz_on_dense_matrices(field):
    rng = random.Random(17)
    values = [v for v in range(-4, 5) if v % 5] + [Fraction(1, 2),
                                                   Fraction(-2, 3)]
    for n in (1, 2, 5, 8):
        m = mat([[rng.choice(values) for _ in range(n)] for _ in range(n)],
                field)
        assert all(x for x in m.vectorize())
        assert char_poly(m) == _dense_berkowitz(m)


# --- matrix algebra -------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_unchecked_matrix_refuses_empty_input(field):
    for entries in ([], [[]]):
        with pytest.raises(ValueError, match="empty matrix"):
            linalg._matrix(entries, field)
        with pytest.raises(ValueError, match="empty matrix"):
            Matrix(entries, field)


def test_matrix_power():
    m = mat([[1, 1], [0, 1]])
    assert m ** 0 == Matrix.identity(2, QQ)
    assert m ** 3 == mat([[1, 3], [0, 1]])


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_matrix_power_matches_repeated_products(field):
    m = Matrix([[1, 2, 0], [0, 2, 1], [1, 0, 2]], field)
    product = Matrix.identity(3, field)
    for n in range(7):
        assert m ** n == product
        product = product * m


def test_matrix_power_refuses_non_square_and_negative():
    with pytest.raises(ValueError):
        mat([[1, 2]]) ** 2
    with pytest.raises(ValueError):
        mat([[1, 2]]) ** 0
    with pytest.raises(ValueError):
        mat([[1, 0], [0, 1]]) ** -1


def _dense_product(a, b, zero):
    """Every dot product of a row of a with a column of b, zeros included."""
    return tuple(tuple(sum(map(mul, r, c), zero) for c in zip(*b))
                 for r in a)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_product_matches_dense_reference(field):
    # the product reads only the nonzero entries of both factors; seeded
    # factors have about half their entries zero
    rng = random.Random(20)
    values = (1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))

    def sparse(rows, cols):
        return Matrix([[rng.choice(values) if rng.random() < 0.5 else 0
                        for _ in range(cols)] for _ in range(rows)], field)

    zero = field.zero()
    for _ in range(40):
        r, k, c = (rng.randrange(1, 6) for _ in range(3))
        a, b = sparse(r, k), sparse(k, c)
        pairs = [(a, b), (Matrix.zero(r, k, field), b),
                 (a, Matrix.zero(k, c, field)),
                 (Matrix.identity(r, field), a), (a, Matrix.identity(k, field))]
        for x, y in pairs:
            got = x * y
            assert (got.rows, got.cols, got.field) == (x.rows, y.cols, field)
            assert got.entries == _dense_product(x.entries, y.entries, zero)
            assert all(type(v) is type(zero) for v in got.vectorize())
    with pytest.raises(ValueError, match="shape mismatch in product"):
        sparse(2, 3) * sparse(2, 3)
    other = GF(3) if field == QQ else QQ
    with pytest.raises(FieldMismatchError, match="mixed fields"):
        sparse(2, 2) * Matrix.identity(2, other)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_uncoerced_results_hold_field_elements(field):
    # arithmetic results skip coercion; FpElement equals its int residue
    # but hashes differently, so a leaked int would break subspace equality
    a = Matrix([[1, 2], [0, 1]], field)
    b = Matrix([[2, 0], [1, 1]], field)
    results = [a + b, a - b, -a, a * b, a * 2, 2 * a, a * Fraction(1, 2),
               a ** 0, a ** 3, a.transpose(), rref(b)[0], invert(a),
               Matrix.identity(2, field)]
    space = MatrixSubspace(2, results[:4], field)
    for m in results + list(space.basis):
        assert m.field == field
        for x in m.vectorize():
            if field == QQ:
                assert type(x) is Fraction
            else:
                assert type(x) is FpElement and x.p == 3
    coerced = [Matrix([[field.plain(x) for x in r] for r in m.entries], field)
               for m in results]
    assert results == coerced
    assert [hash(m) for m in results] == [hash(m) for m in coerced]
    for ms, cs in ((results, coerced), (results[:4], coerced[:4]),
                   (results[1:2], coerced[1:2])):
        built = MatrixSubspace(2, ms, field)
        reference = MatrixSubspace(2, cs, field)
        assert built == reference and hash(built) == hash(reference)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_matrix_subspaces_build_no_coercing_matrix(field, monkeypatch):
    # the basis, sums and intersections wrap canonical vectors directly
    a = Matrix([[1, 2], [0, 1]], field)
    b = Matrix([[2, 0], [1, 1]], field)
    c = Matrix([[0, 1], [1, 0]], field)
    built = []
    init = Matrix.__init__

    def counting(self, entries, field=None):
        built.append(entries)
        init(self, entries, field)

    monkeypatch.setattr(Matrix, "__init__", counting)
    s = MatrixSubspace(2, [a, b], field)
    t = MatrixSubspace(2, [b, c], field)
    join, meet = s.sum(t), s.intersection(t)
    assert built == []
    assert (s.dim, t.dim, join.dim, meet.dim) == (2, 2, 3, 1)
    assert meet.contains(b)
    for space in (s, t, join, meet):
        assert all(m.field == field for m in space.basis)


def test_apply_uses_columns_as_images():
    m = mat([[0, 2], [1, 0]])
    # image of e1 is first column (0, 1)
    assert m.apply((1, 0)) == (0, 1)
    assert m.apply((0, 1)) == (2, 0)


def test_vectorize_row_major():
    m = mat([[1, 2], [3, 4]])
    assert m.vectorize() == (1, 2, 3, 4)


# --- subspaces ------------------------------------------------------------

def test_vector_subspace_membership():
    s = VectorSubspace(3, [(1, 1, 0), (0, 0, 2)], QQ)
    assert s.dim == 2
    assert s.contains((2, 2, 5))
    assert not s.contains((1, 0, 0))


@pytest.mark.parametrize("basis", [[], [(1, 2)]], ids=["zero", "line"])
def test_membership_refuses_a_vector_of_another_length(basis):
    space = VectorSubspace(2, basis, QQ)
    for vec in ((1, 2, 3), (0, 0, 0), (0,)):
        with pytest.raises(ValueError, match="vector length mismatch"):
            space.contains(vec)
    assert space.contains((0, 0)) and space.contains((2, 4)) == bool(basis)


def test_vector_subspace_canonical_equality():
    a = VectorSubspace(2, [(1, 1), (1, -1)], QQ)
    b = VectorSubspace(2, [(2, 0), (0, 3)], QQ)
    assert a == b
    assert a.dim == 2


def test_subspace_sum_and_intersection():
    x = VectorSubspace(3, [(1, 0, 0)], QQ)
    y = VectorSubspace(3, [(0, 1, 0)], QQ)
    assert x.sum(y).dim == 2
    assert x.intersection(y).dim == 0
    diag = VectorSubspace(3, [(1, 1, 0)], QQ)
    plane = VectorSubspace(3, [(1, 0, 0), (0, 1, 0)], QQ)
    meet = diag.intersection(plane)
    assert meet.dim == 1
    assert meet.contains((1, 1, 0))


def test_intersection_random_consistency():
    rng = random.Random(55)
    for field, _ in itertools.product((QQ, GF(3)), range(20)):
        n = 4
        a = VectorSubspace(n, [tuple(Fraction(rng.randrange(-2, 3))
                                     for _ in range(n))
                               for _ in range(rng.randrange(0, 4))], field)
        b = VectorSubspace(n, [tuple(Fraction(rng.randrange(-2, 3))
                                     for _ in range(n))
                               for _ in range(rng.randrange(0, 4))], field)
        meet = a.intersection(b)
        join = a.sum(b)
        assert meet.dim + join.dim == a.dim + b.dim
        for v in meet.basis:
            assert a.contains(v) and b.contains(v)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_intersection_is_one_row_reduction(field, monkeypatch):
    # the Zassenhaus right halves are wrapped as the basis directly: they
    # are canonical already, and the meet costs exactly one rref
    rng = random.Random(23)
    calls = []

    def counting(m):
        calls.append(m)
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counting)
    nonzero = 0
    for _ in range(40):
        n = rng.randrange(2, 6)
        a, b = (VectorSubspace(n, [[rng.randrange(-3, 4) for _ in range(n)]
                                   for _ in range(rng.randrange(1, n + 1))],
                               field) for _ in range(2))
        if not (a.dim and b.dim):
            continue
        del calls[:]
        meet = a.intersection(b)
        assert len(calls) == 1
        again = VectorSubspace(n, meet.basis, field)
        assert meet == again and hash(meet) == hash(again)
        assert meet.dim + a.sum(b).dim == a.dim + b.dim
        assert all(a.contains(v) and b.contains(v) for v in meet.basis)
        nonzero += meet.dim > 0
    assert nonzero


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_contains_subspace_is_one_rank(field, monkeypatch):
    # the inclusion test stacks both spanning sets once, however many
    # vectors the contained space has
    rng = random.Random(19)
    calls = []
    monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or rank(m))
    verdicts = set()
    for _ in range(40):
        n = rng.randrange(2, 6)
        a, b = (VectorSubspace(n, [[rng.randrange(-2, 3) for _ in range(n)]
                                   for _ in range(rng.randrange(1, n + 1))],
                               field) for _ in range(2))
        if not b.dim:
            continue
        del calls[:]
        inside = a.contains_subspace(b)
        assert len(calls) == 1
        assert inside == (a.sum(b) == a) == all(map(a.contains, b.basis))
        verdicts.add(inside)
    assert verdicts == {True, False}


def test_matrix_subspace():
    e11 = Matrix.unit(2, 0, 0, QQ)
    e22 = Matrix.unit(2, 1, 1, QQ)
    s = MatrixSubspace(2, [e11, e22], QQ)
    assert s.dim == 2
    assert s.contains(mat([[5, 0], [0, -1]]))
    assert not s.contains(mat([[0, 1], [0, 0]]))
    ident = MatrixSubspace(2, [Matrix.identity(2, QQ)], QQ)
    assert s.contains_subspace(ident)
    assert not ident.contains_subspace(s)
