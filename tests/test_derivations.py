import itertools
import random
from fractions import Fraction

import pytest

import bihomlie as bh
from bihomlie import BiHomLieAlgebra, catalog, derivations, heisenberg
from bihomlie.fields import (GF, QQ, FieldMismatchError, PrimeField,
                             RationalField, ReductionError)
from bihomlie.linalg import (Matrix, MatrixSubspace, is_invertible,
                             nullspace_basis)
from builders import IDENT, l_1_1, l_1_10, l_1_8


def l_1_17(z=2):
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 2, 1): 1, (2, 1, 1): -1, (2, 2, 1): 1 - z,
    }, [[1, 1], [0, 1]], [[1, z], [0, 1]])


def mat2(rows, field=QQ):
    return Matrix(rows, field)


# --- twist commutant ------------------------------------------------------

def test_commutant_identity_twists():
    assert bh.twist_commutant(l_1_10()).dim == 4


def test_commutant_distinct_diagonal():
    om = bh.twist_commutant(l_1_1())
    assert om.dim == 2
    assert om.contains(mat2([[1, 0], [0, 0]]))
    assert om.contains(mat2([[0, 0], [0, 1]]))
    assert not om.contains(mat2([[0, 1], [0, 0]]))
    assert not om.contains(mat2([[0, 0], [1, 0]]))


def test_commutant_heisenberg_block():
    H = heisenberg(1, 4, 9, [2], [3])
    om = bh.twist_commutant(H)
    assert om.dim == 5
    L = H.alpha
    for d in om.basis:
        assert d * L == L * d
        assert d * H.beta == H.beta * d


# --- solver ---------------------------------------------------------------

def test_centroid_l_1_1_z0():
    space = bh.derivation_space(l_1_1(), 1, 1, 0)
    assert space.dim == 2
    assert space.contains(mat2([[1, 0], [0, 0]]))
    assert space.contains(mat2([[0, 0], [0, 1]]))


def test_params_zero_gives_commutant():
    for L in (l_1_10(), l_1_1(), l_1_8()):
        space = bh.derivation_space(L, 0, 0, 0)
        assert space == bh.twist_commutant(L)


def test_der_l_1_10_full_params():
    space = bh.derivation_space(l_1_10(), 1, 1, 1)
    assert space.dim == 2
    assert space.contains(mat2([[1, 0], [1, 0]]))
    assert space.contains(mat2([[0, 1], [0, 1]]))


def test_verify_derivation_identity_in_centroid():
    for L in (l_1_10(), l_1_1(), l_1_8(), l_1_17()):
        ident = Matrix.identity(2, QQ)
        assert bh.verify_derivation(L, ident, 1, 1, 0)


def test_verify_derivation_zero_matrix():
    z = Matrix.zero(2, 2, QQ)
    assert bh.verify_derivation(l_1_10(), z, 1, 1, 1)
    assert bh.verify_derivation(l_1_10(), z, 0, 1, -1)


def test_verify_derivation_rejects_non_member():
    e11 = mat2([[1, 0], [0, 0]])
    assert not bh.verify_derivation(l_1_10(), e11, 1, 1, 1)


# --- centroid / quasi-centroid examples ----------------------------------

def test_centroid_l_1_8_exponent_11():
    space = bh.centroid(l_1_8(), 1, 1)
    assert space.dim == 1
    assert space.contains(mat2([[1, 0], [0, Fraction(1, 6)]]))


def test_centroid_l_1_17_exponent_11():
    space = bh.centroid(l_1_17(z=2), 1, 1)
    assert space.dim == 1
    # c1 (identity + (k + l z) E12) with k = l = 1, z = 2
    assert space.contains(mat2([[1, 3], [0, 1]]))


def test_quasi_centroid_heisenberg():
    H = heisenberg(1, 4, 9, [2], [3])
    qc = bh.quasi_centroid(H, 1, 1)
    assert qc.dim == 2
    one = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert qc.contains(Matrix(one, QQ))
    assert qc.contains(Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]], QQ))


def test_quasi_centroid_abelian_is_commutant():
    L = BiHomLieAlgebra.from_brackets(2, {}, [[1, 1], [0, 1]], IDENT)
    assert bh.quasi_centroid(L) == bh.twist_commutant(L)


def test_central_derivation_not_always_quasi_central():
    # the intersection-style central derivation space only kills one side
    # of the quasi-centroid identity, so the naive containment fails:
    # E22 is a central derivation here but [m(e1), d(e2)] = d2*e1 != 0
    L = l_1_1(z1=0)
    e22 = mat2([[0, 0], [0, 1]])
    cder = bh.central_derivations(L, 0, 0)
    assert cder.contains(e22)
    assert not bh.verify_derivation(L, e22, 0, 1, -1)


def test_two_sided_kill_is_quasi_central():
    # what does hold: maps killing brackets outright and satisfying the
    # difference identity lie in the quasi-centroid
    for L in (l_1_1(), l_1_8(), l_1_10(), l_1_17()):
        a = bh.derivation_space(L, 1, 0, 0)
        b = bh.derivation_space(L, 1, 1, -1)
        both = a.intersection(b)
        for d in both.basis:
            assert bh.verify_derivation(L, d, 0, 1, -1)


def test_central_derivations_l_1_1():
    L = l_1_1()
    cder = bh.central_derivations(L, 0, 0)
    # independent check of the two defining conditions on every basis matrix
    l2 = bh.derived_subalgebra(L)
    cz = bh.centralizer(L, bh.VectorSubspace(2, [(1, 0), (0, 1)], QQ))
    for d in cder.basis:
        for v in l2.basis:
            assert all(x == 0 for x in d.apply(v))
        for j in range(2):
            img = d.apply(tuple(QQ.one() if t == j else QQ.zero()
                                for t in range(2)))
            assert cz.contains(img)


# --- characterizations ----------------------------------------------------

def test_der_100_kills_derived_subalgebra():
    for L in (l_1_1(), l_1_8(), l_1_10()):
        space = bh.derivation_space(L, 1, 0, 0)
        om = bh.twist_commutant(L)
        l2 = bh.derived_subalgebra(L)
        # independent route: sampled commutant members killing L^2 must all
        # land in the computed space, and vice versa
        members = [d for d in _span_samples(om, L.field)
                   if all(all(x == L.field.zero() for x in d.apply(v))
                          for v in l2.basis)]
        for d in members:
            assert space.contains(d)
        for d in space.basis:
            assert all(all(x == L.field.zero() for x in d.apply(v))
                       for v in l2.basis)


def _span_samples(space, field, count=12, seed=5):
    rng = random.Random(seed)
    n = space.dim_ambient
    out = []
    for _ in range(count):
        m = Matrix.zero(n, n, field)
        for b in space.basis:
            m = m + b * field.coerce(rng.randrange(-2, 3))
        out.append(m)
    return out


def test_der_010_maps_into_centralizer():
    for L in (l_1_1(), l_1_8()):
        for (k, l) in ((0, 0), (1, 1)):
            space = bh.derivation_space(L, 0, 1, 0, k, l)
            m = bh.twist_power(L, k, l)
            image = bh.VectorSubspace(
                L.n, m.transpose().entries, L.field)
            cz = bh.centralizer(L, image)
            for d in space.basis:
                for j in range(L.n):
                    v = tuple(L.field.one() if t == j else L.field.zero()
                              for t in range(L.n))
                    assert cz.contains(d.apply(v))


# --- parameter normalization ---------------------------------------------

def test_normalize_params_cases():
    assert bh.normalize_params(2, 3, 1) == ((Fraction(1, 2), 1, 0), 1)
    assert bh.normalize_params(3, 2, -2) == ((1, 1, -1), 2)
    assert bh.normalize_params(1, 1, 1) == ((1, 1, 1), 3)
    assert bh.normalize_params(2, 4, 4) == ((Fraction(1, 2), 1, 1), 3)
    assert bh.normalize_params(5, 0, 0) == ((1, 0, 0), 4)
    assert bh.normalize_params(0, 3, 1) == ((0, 1, 0), 5)
    assert bh.normalize_params(0, 5, 5) == ((0, 1, 1), 6)
    assert bh.normalize_params(0, 2, -2) == ((0, 1, -1), 7)
    assert bh.normalize_params(0, 0, 0) == ((0, 0, 0), 0)


def test_normalize_params_exhaustive_coverage():
    # every triple from a small sample set lands in exactly one case
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for lam, mu, ga in itertools.product(vals, repeat=3):
        triple, tag = bh.normalize_params(lam, mu, ga)
        if (lam, mu, ga) == (0, 0, 0):
            assert tag == 0
        else:
            assert tag in range(1, 8)


def test_normalized_span_matches_original_on_regular():
    L = l_1_10()
    for (lam, mu, ga) in [(2, 3, 1), (0, 5, 5), (3, 2, -2), (2, 4, 4)]:
        (nl, nm, ng), _tag = bh.normalize_params(lam, mu, ga)
        a = bh.derivation_space(L, lam, mu, ga)
        b = bh.derivation_space(L, nl, nm, ng)
        assert a == b


# --- commutator and Jordan product ---------------------------------------

def test_commutator_basics():
    d = mat2([[1, 0], [0, 2]])
    e = mat2([[0, 1], [0, 0]])
    assert bh.commutator(d, d).is_zero()
    assert bh.commutator(d, e) == mat2([[0, -1], [0, 0]])


def test_commutator_closure_spot():
    L = l_1_10()
    a = bh.derivation_space(L, 1, 1, 0)
    b = bh.derivation_space(L, 1, 1, 1)
    for d1 in a.basis:
        for d2 in b.basis:
            c = bh.commutator(d1, d2)
            assert bh.verify_derivation(L, c, 1, 1, 0, 0, 0)


def test_commutator_closure_shifts_exponents():
    L = l_1_8()
    a = bh.derivation_space(L, 1, 1, 0, 1, 0)
    b = bh.derivation_space(L, 1, 1, 1, 0, 1)
    for d1 in a.basis:
        for d2 in b.basis:
            c = bh.commutator(d1, d2)
            assert bh.verify_derivation(L, c, 1, 1, 0, 1, 1)


def test_jordan_product_basics():
    f = mat2([[1, 2], [0, 1]])
    g = mat2([[0, 1], [1, 0]])
    assert bh.jordan_product(f, f) == f * f
    assert bh.jordan_product(Matrix.identity(2, QQ), g) == g


def test_jordan_closure_quasi_centroid():
    L = l_1_8()
    qc = bh.quasi_centroid(L, 0, 0)
    for f in qc.basis:
        for g in qc.basis:
            assert bh.verify_derivation(L, bh.jordan_product(f, g), 0, 1, -1)


def test_jordan_rejects_characteristic_two():
    F2 = GF(2)
    f = Matrix.identity(2, F2)
    with pytest.raises(ValueError):
        bh.jordan_product(f, f)


def test_composition_centroid_derivation():
    L = l_1_8()
    phi = bh.centroid(L, 1, 0)
    der = bh.derivation_space(L, 1, 1, 1, 0, 1)
    for f in phi.basis:
        for d in der.basis:
            assert bh.verify_derivation(L, f * d, 1, 1, 1, 1, 1)


# --- exponent grids -------------------------------------------------------

def test_grid_l_4_1():
    # [e1,e2] = e1 with b = 1/2, y = 2 so the (1,1) grid point has
    # b^k y^l = 1 and the solution space doubles
    L = BiHomLieAlgebra.from_brackets(2, {(1, 2, 1): 1},
                                      [[0, 0], [0, Fraction(1, 2)]],
                                      [[0, 0], [0, 2]])
    grid, union = bh.derivation_grid(L, 1, 1, 1, k_max=1, l_max=1)
    assert grid[(0, 0)].dim == 1
    assert grid[(0, 0)].contains(mat2([[1, 0], [0, 0]]))
    assert grid[(1, 1)].dim == 2
    assert grid[(1, 1)].contains(mat2([[0, 0], [0, 1]]))
    assert grid[(1, 0)].dim == 1
    assert grid[(1, 0)].contains(mat2([[0, 0], [0, 1]]))
    assert union.dim == 2


def test_grid_abelian_everywhere_commutant():
    L = BiHomLieAlgebra.from_brackets(2, {}, [[1, 0], [0, 2]], IDENT)
    grid, union = bh.derivation_grid(L, 1, 1, 1, k_max=2, l_max=2)
    om = bh.twist_commutant(L)
    assert len(grid) == 9
    for space in grid.values():
        assert space == om
    assert union == om


def test_grid_heisenberg_closed_forms():
    # generic parameters: the quasi-centroid at each grid point is exactly
    # diag(d1, Q d1, d3) with Q = a^k x^l / (b^2k y^2l)
    a, x, b, y = 12, 27, 2, 3
    H = heisenberg(1, a, x, [b], [y])
    grid, _union = bh.derivation_grid(H, 0, 1, -1, k_max=2, l_max=2)
    assert len(grid) == 9
    for (k, l), space in grid.items():
        q = Fraction(a ** k * x ** l, b ** (2 * k) * y ** (2 * l))
        expected = MatrixSubspace(3, [
            Matrix([[1, 0, 0], [0, q, 0], [0, 0, 0]], QQ),
            Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]], QQ),
        ], QQ)
        assert space == expected


@pytest.mark.parametrize("caps", [(-1, 1), (1, -1)], ids=["k", "l"])
def test_grid_rejects_negative_caps(caps):
    with pytest.raises(ValueError, match="non-negative"):
        bh.derivation_grid(l_1_10(), 1, 1, 1, *caps)


def test_lam_block_is_built_once_per_context(monkeypatch):
    # d([e_i,e_j]) does not involve the twist power: one push-forward per
    # commutant basis member, however many exponent pairs are solved
    calls = []
    push = derivations._pushforward
    monkeypatch.setattr(derivations, "_pushforward",
                        lambda *args: calls.append(1) or push(*args))
    L = heisenberg(1, 12, 27, [2], [3])
    bh.derivation_grid(L, 1, 1, 1, k_max=2, l_max=2)
    assert len(calls) == bh.twist_commutant(L).dim == 3


# --- exhaustive prime-field oracle ---------------------------------------

def test_count_members_matches_dimension_f2_f3():
    for p in (2, 3):
        F = GF(p)
        L = BiHomLieAlgebra.from_brackets(2, {(1, 1, 1): 1, (2, 1, 1): 1},
                                          [[0, 0], [0, 1]], [[0, 0], [0, 1]],
                                          field=F)
        assert L.check_all().passed
        for (lam, mu, ga) in [(1, 1, 0), (1, 0, 0), (0, 1, p - 1), (1, 1, 1)]:
            count = bh.count_members_fp(L, lam, mu, ga)
            dim = bh.derivation_space(L, lam, mu, ga).dim
            assert count == p ** dim


def _all_matrices(n, field):
    """Every n x n matrix over F_p, each built from its row-major digits."""
    p = field.characteristic
    return [Matrix([digits[i * n:i * n + n] for i in range(n)], field)
            for digits in itertools.product(range(p), repeat=n * n)]


def test_census_matches_matrix_reference():
    reduced = []
    for fid in catalog.family_ids():
        for params in catalog.pinned_samples(fid):
            try:
                reduced.append(bh.reduce_mod_p(catalog.build(fid, params), 3))
            except ReductionError:
                pass
    assert len(reduced) == 68
    # mod 2 the twists are diag(1, 0, 0) and the identity: 512 candidates
    heis = bh.reduce_mod_p(heisenberg(1, 2, 3, [1], [3]), 2)
    # the reference: every candidate a Matrix, checked by verify_derivation;
    # members at any triple commute with both twists, so they are all
    # among the members at (0, 0, 0), the first triple
    candidates = {(2, 3): _all_matrices(2, GF(3)),
                  (3, 2): _all_matrices(3, GF(2))}
    for L in reduced + [heis]:
        p = L.field.characteristic
        commuting = candidates[L.n, p]
        for triple in CANONICAL_TRIPLES:
            members = [d for d in commuting
                       if bh.verify_derivation(L, d, *triple, 1, 1)]
            if triple == (0, 0, 0):
                commuting = members
            count = bh.count_members_fp(L, *triple, 1, 1)
            assert count == len(members), (L, triple)
            assert count == p ** bh.derivation_space(L, *triple, 1, 1).dim


def test_census_matches_dimensions_at_n5_mod_5():
    # past the n <= 3 reach of the full scan: 5^25 candidates per cell.
    # The joint twist eigenvalue pairs (1,2), (3,4), (2,4), (4,2) and (2,3)
    # are pairwise distinct mod 5, so the commutant is the diagonal
    H = bh.reduce_mod_p(heisenberg(2, 2, 3, [1, 3], [2, 4]), 5)
    assert bh.twist_commutant(H).dim == 5
    dims = set()
    for k, l in ((0, 0), (1, 1)):
        for triple in CANONICAL_TRIPLES:
            dim = bh.derivation_space(H, *triple, k, l).dim
            assert bh.count_members_fp(H, *triple, k, l) == 5 ** dim, (
                triple, k, l)
            dims.add(dim)
    assert dims == {1, 2, 3, 4, 5}


def test_membership_edges():
    L = l_1_10()
    assert not bh.verify_derivation(L, Matrix.identity(3, QQ), 1, 1, 1)
    Lp = bh.reduce_mod_p(L, 3)
    with pytest.raises(FieldMismatchError):
        bh.verify_derivation(Lp, Matrix.identity(2, GF(5)), 1, 1, 1)
    with pytest.raises(ValueError):
        bh.count_members_fp(L, 1, 1, 1)


# --- dense reference membership kernel -------------------------------------

def _table_bracket(table, x, y, zero):
    """[x, y] under a structure table, skipping zero coordinates and zero
    structure constants."""
    out = [zero] * len(table)
    y_support = [(j, v) for j, v in enumerate(y) if v]
    for i, u in enumerate(x):
        if not u:
            continue
        plane = table[i]
        for j, v in y_support:
            coeff = u * v
            for s, c in enumerate(plane[j]):
                if c:
                    out[s] = out[s] + coeff * c
    return tuple(out)


def _dense_commutes(d, m, is_zero):
    """d*m == m*d on plain entry rows, every index read: the dense
    commutation test the membership kernel used before its sparse views."""
    n = range(len(d))
    for i in n:
        for j in n:
            left = right = 0
            for t in n:
                if d[i][t] and m[t][j]:
                    left += d[i][t] * m[t][j]
                if m[i][t] and d[t][j]:
                    right += m[i][t] * d[t][j]
            if not is_zero(left - right):
                return False
    return True


def _dense_is_member(d, table, alpha, beta, m, lam, mu, gamma, is_zero):
    """The dense membership kernel on field.plain entries, Fractions over Q
    and int residues over F_p, with no scaling: every pair (i, j), every
    coordinate."""
    if not (_dense_commutes(d, alpha, is_zero)
            and _dense_commutes(d, beta, is_zero)):
        return False
    n = len(d)
    d_cols = list(zip(*d))
    m_cols = list(zip(*m))
    for i in range(n):
        for j in range(n):
            image = [0] * n
            for b, c in enumerate(table[i][j]):
                if c:
                    for s, x in enumerate(d_cols[b]):
                        if x:
                            image[s] += c * x
            t1 = _table_bracket(table, d_cols[i], m_cols[j], 0)
            t2 = _table_bracket(table, m_cols[i], d_cols[j], 0)
            for v, a, b in zip(image, t1, t2):
                if (v or a or b) and not is_zero(
                        lam * v - mu * a - gamma * b):
                    return False
    return True


def _differential_algebras():
    """n = 2..7 over Q, GF(3) and GF(5): a seeded sample of the catalog
    instances whose twists are not diagonal or not invertible, direct sums
    at n = 4 and 6, and twisted Heisenberg at n = 3, 5, 7, among them the
    classical one (identity twists), whose commutant is every operator;
    then constants and twists that are not integers, which the kernel
    scales: L_1^* families at parameters 1/2 and 1/3, and twisted
    Heisenberg at n = 5."""
    rng = random.Random(5)
    odd = [L for L in (catalog.build(fid, params)
                       for fid in catalog.family_ids()
                       for params in catalog.pinned_samples(fid))
           if any(x for t in (L.alpha, L.beta)
                  for i, row in enumerate(t.entries)
                  for j, x in enumerate(row) if i != j and x)
           or not (is_invertible(L.alpha) and is_invertible(L.beta))]
    picked = rng.sample(odd, 6)
    heis = [heisenberg(1, 1, 1, [1], [1]), heisenberg(1, 12, 27, [2], [3]),
            heisenberg(2, 4, 9, [2, -2], [3, -3]),
            heisenberg(3, -6, -10, [2, 3, 4], [2, 5, 7])]
    half, third = Fraction(1, 2), Fraction(1, 3)
    fractional = [
        l_1_1(third, half, half), l_1_8(half, third),
        catalog.build("L_1^13", {"z1": half, "t1": third, "z": half}),
        l_1_17(half),
        heisenberg(2, half, Fraction(2, 3), [third, 3], [2, Fraction(1, 5)])]
    rational = picked + heis + [bh.direct_sum(*picked[:2]),
                                bh.direct_sum(heis[0], heis[1])] + fractional
    algebras = list(rational)
    for p in (3, 5):
        for L in rational:
            try:
                algebras.append(bh.reduce_mod_p(L, p))
            except ReductionError:
                pass
    return algebras


def _scalars(field):
    if field.characteristic:
        return [field.coerce(v) for v in range(1, field.characteristic)]
    return [field.coerce(v) for v in (1, -1, 2, Fraction(1, 2),
                                      Fraction(-2, 3))]


def _random_candidates(rng, L):
    """Random sparse matrices and random twist-commutant members; the
    latter pass the commutation test and reach the bracket terms."""
    n, field = L.n, L.field
    zero, scalars = field.zero(), _scalars(field)
    out = []
    for _ in range(2):
        rows = [[zero] * n for _ in range(n)]
        for _ in range(rng.randint(1, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(scalars)
        out.append(Matrix(rows, field))
    for _ in range(2):
        d = Matrix([[zero] * n for _ in range(n)], field)
        for b in bh.twist_commutant(L).basis:
            d = d + b * rng.choice([zero] + scalars)
        out.append(d)
    return out


def _solved_candidates(rng, L, k, l, triple):
    """The solved members, each also with one entry perturbed."""
    out = []
    for d in bh.derivation_space(L, *triple, k, l).basis:
        rows = [list(row) for row in d.entries]
        s, t = rng.randrange(L.n), rng.randrange(L.n)
        rows[s][t] = rows[s][t] + rng.choice(_scalars(L.field))
        out += [d, Matrix(rows, L.field)]
    return out


def test_sparse_membership_matches_dense_reference():
    rng = random.Random(7)
    algebras = _differential_algebras()
    assert {L.n for L in algebras} == set(range(2, 8))
    assert {L.field.characteristic for L in algebras} == {0, 3, 5}
    assert any(x.denominator > 1 for L in algebras if L.field == QQ
               for t in (L.alpha, L.beta) for row in t.entries for x in row)
    verdicts = {True: 0, False: 0}
    for L in algebras:
        field = L.field

        def plain_rows(rows):
            return tuple(tuple(map(field.plain, row)) for row in rows)

        table = tuple(map(plain_rows, L.structure))
        alpha, beta = plain_rows(L.alpha.entries), plain_rows(L.beta.entries)
        fixed = _random_candidates(rng, L)
        # over Q also a lam that is not an integer: the kernel scales it
        triples = CANONICAL_TRIPLES + (
            () if field.characteristic else ((Fraction(2, 3), 1, 1),))
        # the whole grid {0,1,2}^2 up to n = 3, three pairs past it
        grid = (itertools.product(range(3), repeat=2) if L.n <= 3
                else ((0, 0), (1, 1), (2, 1)))
        for k, l in grid:
            m = Matrix.identity(L.n, field)
            for factor in [L.alpha] * k + [L.beta] * l:
                m = m * factor
            m = plain_rows(m.entries)
            for triple in triples:
                coeffs = [field.plain(field.coerce(x)) for x in triple]
                for d in fixed + _solved_candidates(rng, L, k, l, triple):
                    got = bh.verify_derivation(L, d, *triple, k, l)
                    want = _dense_is_member(
                        plain_rows(d.entries), table, alpha, beta, m,
                        *coeffs, field.is_zero)
                    assert got == want, (L, d, triple, k, l)
                    verdicts[got] += 1
    assert min(verdicts.values()) > 1000, verdicts


# --- dense reference solver ------------------------------------------------

CANONICAL_TRIPLES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
                     (0, 1, 0), (0, 1, 1), (1, 1, -1), (0, 1, -1))


def _bracket_rows(L, lam, mu, gamma, m):
    """The bracket identity over all n^2 entries of d (row-major), one row
    per (i, j, s): the dense n^5 assembly the solver used before it moved
    to commutant coordinates, with zero terms skipped."""
    n = L.n
    zero = L.field.zero()
    c = L.structure
    me = m.entries
    rows = []
    for i in range(n):
        for j in range(n):
            for s in range(n):
                row = [zero] * (n * n)
                for b in range(n):
                    if c[i][j][b]:
                        row[s * n + b] = row[s * n + b] + lam * c[i][j][b]
                    acc = zero
                    for u in range(n):
                        if c[b][u][s]:
                            acc = acc + me[u][j] * c[b][u][s]
                    if acc:
                        row[b * n + i] = row[b * n + i] - mu * acc
                    acc = zero
                    for t in range(n):
                        if c[t][b][s]:
                            acc = acc + me[t][i] * c[t][b][s]
                    if acc:
                        row[b * n + j] = row[b * n + j] - gamma * acc
                rows.append(row)
    return rows


def _commutation_rows(L):
    """Rows expressing d*alpha = alpha*d and d*beta = beta*d, kept apart
    from the library's intertwiner equations."""
    n = L.n
    zero = L.field.zero()
    rows = []
    for m in (L.alpha.entries, L.beta.entries):
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                # (d m - m d)_{ij}: coefficient of d_{uv}
                for t in range(n):
                    if m[t][j]:
                        row[i * n + t] = row[i * n + t] + m[t][j]
                    if m[i][t]:
                        row[t * n + j] = row[t * n + j] - m[i][t]
                rows.append(row)
    return rows


def _reference_spaces(L, k, l):
    """Triple -> space from the dense system over all n^2 entries of d.

    _bracket_rows is linear in (lam, mu, gamma), so it is assembled once
    per unit triple and each canonical triple combines the three; zero
    rows are dropped, which leaves the nullspace as it is.
    """
    f = L.field
    zero, one = f.zero(), f.one()
    m = Matrix.identity(L.n, f)   # alpha^k beta^l by repeated products
    for factor in [L.alpha] * k + [L.beta] * l:
        m = m * factor
    units = [_bracket_rows(L, *coeffs, m) for coeffs in
             ((one, zero, zero), (zero, one, zero), (zero, zero, one))]
    live = [rows for rows in zip(*units) if any(map(any, rows))]
    commutation = [row for row in _commutation_rows(L) if any(row)]
    spaces = {}
    for triple in CANONICAL_TRIPLES:
        lam, mu, gamma = (f.coerce(x) for x in triple)
        rows = commutation + [
            [lam * a + mu * b + gamma * c if a or b or c else zero
             for a, b, c in zip(*rows)]
            for rows in live]
        rows = [row for row in rows if any(row)] or [[zero] * (L.n * L.n)]
        sols = nullspace_basis(Matrix(rows, f))
        spaces[triple] = MatrixSubspace(
            L.n, [Matrix([v[i * L.n:i * L.n + L.n] for i in range(L.n)], f)
                  for v in sols], f)
    return spaces


def _reference_algebras():
    """Pinned catalog instances, their mod-3 reductions, and twisted
    Heisenberg at m = 1, 2 off and on the locus a = b^2, x = y^2."""
    rational = [catalog.build(fid, params) for fid in catalog.family_ids()
                for params in catalog.pinned_samples(fid)]
    reduced = []
    for L in rational:
        try:
            reduced.append(bh.reduce_mod_p(L, 3))
        except ReductionError:
            pass
    heis = [heisenberg(1, 12, 27, [2], [3]), heisenberg(1, 4, 9, [2], [3]),
            heisenberg(2, -6, -10, [2, 3], [2, 5]),
            heisenberg(2, 4, 9, [2, -2], [3, -3])]
    return rational + reduced + heis


def test_commutant_coordinates_match_dense_reference():
    algebras = _reference_algebras()
    assert len(algebras) == 69 + 68 + 4
    for L in algebras:
        for k, l in ((0, 0), (1, 1), (2, 1)):
            want = _reference_spaces(L, k, l)
            for triple in CANONICAL_TRIPLES:
                got = bh.derivation_space(L, *triple, k, l)
                assert got == want[triple], (L, triple, k, l)
            # a repeated solve on the algebra's kept context
            got = bh.derivation_space(L, 1, 1, 1, k, l)
            assert got == want[(1, 1, 1)], (L, k, l)


def test_dropped_gamma_block_is_caught(monkeypatch):
    # needs a freshly built algebra: a solved one keeps its blocks
    build = derivations.SolveContext._residual_blocks

    def without_gamma(self, m):
        lam_block, mu_block, _ = build(self, m)
        return lam_block, mu_block, []

    monkeypatch.setattr(derivations.SolveContext, "_residual_blocks",
                        without_gamma)
    with pytest.raises(bh.MembershipError):
        bh.derivation_space(heisenberg(1, 12, 27, [2], [3]), 1, 1, 1, 1, 1)


def test_wrong_cached_twist_power_is_caught(monkeypatch):
    # blocks and re-verification read the same cached (scale, rows) power,
    # so wrong rows or a wrong scale pass re-verification; only the
    # independent reference, which forms alpha^k beta^l by repeated
    # products, can catch them
    power = derivations.SolveContext._power

    def differs(L):
        want = _reference_spaces(L, 2, 1)
        return any(bh.derivation_space(L, *triple, 2, 1) != want[triple]
                   for triple in CANONICAL_TRIPLES)

    for wrong in (lambda self, k, l: power(self, l, k),
                  lambda self, k, l: (2 * power(self, k, l)[0],
                                      power(self, k, l)[1])):
        monkeypatch.setattr(derivations.SolveContext, "_power", wrong)
        assert any(differs(L) for L in _reference_algebras())


def test_twist_powers_built_once_and_commutant_lazy(monkeypatch):
    calls = {"intertwiners": 0, "twist_power": []}
    intertwiners = derivations.intertwiners
    twist_power = derivations.twist_power

    def counting_intertwiners(L, L2):
        calls["intertwiners"] += 1
        return intertwiners(L, L2)

    def counting_twist_power(L, k, l):
        calls["twist_power"].append((L, k, l))
        return twist_power(L, k, l)

    # the blocks and the membership kernel read the rows of the one kept
    # (scale, rows) power
    read = []
    blocks, residual = (derivations.SolveContext._residual_blocks,
                        derivations._residual)

    def recording_blocks(self, m):
        read.append((self, m))
        return blocks(self, m)

    def recording_residual(d, brackets, alpha, beta, m, *coeffs):
        read.append((None, m))
        return residual(d, brackets, alpha, beta, m, *coeffs)

    monkeypatch.setattr(derivations, "intertwiners", counting_intertwiners)
    monkeypatch.setattr(derivations, "twist_power", counting_twist_power)
    monkeypatch.setattr(derivations.SolveContext, "_residual_blocks",
                        recording_blocks)
    monkeypatch.setattr(derivations, "_residual", recording_residual)
    L, Lp = l_1_17(), bh.reduce_mod_p(l_1_17(), 3)
    assert bh.verify_derivation(L, Matrix.identity(2, QQ), 1, 1, 0)
    assert bh.count_members_fp(Lp, 1, 1, 0, 1, 1) == 3
    assert calls["intertwiners"] == 0
    for k in range(3):
        for l in range(3):
            bh.centroid(L, k, l)
            bh.derivation_space(L, 1, 1, 1, k, l)
    bh.is_characteristically_nilpotent(L)
    bh.is_small_centroid(L)
    powers = calls["twist_power"]
    assert len(powers) == len(set(powers)) == 1 + 9
    assert set(powers) == {(Lp, 1, 1)} | {
        (L, k, l) for k in range(3) for l in range(3)}
    assert calls["intertwiners"] == 1
    kept = {id(rows) for A in (L, Lp)
            for _, rows in derivations._solver(A)._powers.values()}
    assert len(kept) == 1 + 9
    assert {id(m) for _, m in read} == kept
    assert sum(context is not None for context, _ in read) == 9


def test_context_keeps_one_copy_of_each_value():
    # a kept twist power is (scale, int rows) alone, with no Matrix and no
    # Fraction or sparse copy beside it; the int view of the table and
    # twists lives on the algebra, built at construction, scaled by one
    # factor for the table and one per twist, and the context keeps no copy
    # of it or of the nonzero constants. At z = 1/2 the table, beta and the
    # power at (2, 1) have denominator 2, and mod 3 the algebra is
    # l_1_17(2).
    L = l_1_17(Fraction(1, 2))
    Lp = bh.reduce_mod_p(L, 3)
    # per algebra: the scales of the table, alpha, beta and the power, and
    # (M lam, mu, gamma) times one scale at (lam, mu, gamma) = (1/2, 1, 0)
    for A, scales, coeffs in ((L, (2, 1, 2, 2), (2, 2, 0)),
                              (Lp, (1, 1, 1, 1), (2, 1, 0))):
        table_scale, alpha_scale, beta_scale, power_scale = scales
        plain = A.field.plain
        view = A._ints
        brackets, alpha, beta = view
        assert brackets == tuple(
            tuple(tuple((s, plain(table_scale * c)) for s, c in enumerate(row)
                        if c) for row in plane) for plane in A.structure)
        for twist, matrix, twist_scale in ((alpha, A.alpha, alpha_scale),
                                           (beta, A.beta, beta_scale)):
            scale, rows, cols = twist
            assert type(scale) is int and scale == twist_scale
            entries = [[plain(twist_scale * x) for x in row]
                       for row in matrix.entries]
            assert rows == tuple(
                tuple((j, x) for j, x in enumerate(row) if x)
                for row in entries)
            assert cols == tuple(
                tuple((i, x) for i, x in enumerate(col) if x)
                for col in zip(*entries))
        bh.derivation_space(A, 1, 1, 1, 2, 1)
        context = derivations._solver(A)
        assert set(vars(context)) == {"L", "_powers", "_blocks",
                                      "commutant", "_lam_block"}
        assert list(context._powers) == [(2, 1)]
        scale, power = context._powers[2, 1]
        assert type(scale) is int and scale == power_scale
        assert power == tuple(
            tuple(plain(scale * x) for x in row)
            for row in derivations.twist_power(A, 2, 1).entries)
        assert type(power) is tuple and len(power) == 2
        for row in power:
            assert type(row) is tuple
            assert all(type(x) is int for x in row)
        # checks, more solves and a census read the same view and power
        assert A.check_all().passed
        bh.centroid(A, 1, 0)
        assert bh.verify_derivation(A, Matrix.identity(2, A.field), 1, 1, 0)
        if A is Lp:
            assert bh.count_members_fp(A, 1, 1, 0, 1, 1) == 3
        assert A._ints is view
        assert all(x is y for x, y in zip(A._ints, view))
        problem = context.problem(Fraction(1, 2), 1, 0, 2, 1)
        assert all(x is y for x, y in zip(problem[:3], view))
        assert problem[3] is power and problem[4:7] == coeffs
        assert all(type(x) is int for x in problem[4:7])
        with pytest.raises(AttributeError):
            A._ints = view


def test_table_is_converted_once_per_algebra(monkeypatch):
    # the algebra's int view is the only int form of its table: one
    # plain_rows call converts the n^2 table rows, at construction, and
    # two check_all calls, a solve, verify_derivation and the F_3 census
    # all read that view
    L = l_1_17(Fraction(1, 2))
    sources = (L, bh.reduce_mod_p(L, 3))
    converted = []
    for cls in (RationalField, PrimeField):
        def counting(self, rows, _plain_rows=cls.plain_rows):
            rows = [tuple(row) for row in rows]
            converted.append(len(rows))
            return _plain_rows(self, rows)

        monkeypatch.setattr(cls, "plain_rows", counting)

    def is_int_tree(x):
        return type(x) is int or (type(x) is tuple
                                  and all(map(is_int_tree, x)))

    for source in sources:
        converted.clear()
        L = BiHomLieAlgebra(source.structure, source.alpha, source.beta,
                            source.field)
        assert L.check_all().passed and L.check_all().passed
        space = bh.derivation_space(L, 1, 1, 1, 2, 1)
        assert all(bh.verify_derivation(L, d, 1, 1, 1, 2, 1)
                   for d in space.basis)
        if L.field.characteristic:
            assert bh.count_members_fp(L, 1, 1, 1, 2, 1) == 3 ** space.dim
        assert converted.count(L.n ** 2) == 1
        assert is_int_tree(L._ints)


def test_warm_verification_makes_no_fraction_arithmetic(monkeypatch):
    # over Q the membership kernel runs on scaled ints: on a warm context,
    # with constants, twists, coefficients and candidates that are not
    # integers, verify_derivation does not add, multiply or divide a
    # Fraction
    L = heisenberg(2, Fraction(1, 2), Fraction(2, 3), [Fraction(1, 3), 3],
                   [2, Fraction(1, 5)])
    triple = (Fraction(2, 3), Fraction(2, 3), 0, 1, 1)
    members = bh.derivation_space(L, *triple).basis
    assert members and any(x.denominator > 1 for d in members
                           for x in d.vectorize())
    outsider = Matrix.unit(L.n, 0, 1, QQ) * Fraction(1, 7)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                 "__rpow__", "__neg__", "__pos__", "__abs__"):
        def counting(*args, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counting)
    assert all(bh.verify_derivation(L, d, *triple) for d in members)
    assert not bh.verify_derivation(L, outsider, *triple)
    assert calls == []
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls == ["__add__"]


def test_one_algebra_keeps_one_solve_context(monkeypatch):
    built = []
    init = derivations.SolveContext.__init__

    def counting(self, L):
        built.append(L)
        init(self, L)

    monkeypatch.setattr(derivations.SolveContext, "__init__", counting)
    L = l_1_17()
    bh.derivation_space(L, 1, 1, 1, 1, 0)
    bh.centroid(L)
    bh.central_derivations(L, 1, 1)
    bh.derivation_grid(L, 1, 1, 0, 1, 1)
    bh.fingerprint(L)
    bh.is_characteristically_nilpotent(L)
    bh.is_small_centroid(L)
    assert len(built) == 1
    copy = l_1_17()
    assert L == copy and hash(L) == hash(copy)


def test_solved_algebra_refuses_reassignment():
    # a kept solve context would answer for the old twists and table
    L = heisenberg(1, 12, 27, [2], [3])
    M = heisenberg(1, 4, 9, [2], [3])
    bh.derivation_space(L, 1, 1, 1, 1, 1)
    for name in ("alpha", "beta", "structure", "n", "field"):
        with pytest.raises(AttributeError):
            setattr(L, name, getattr(M, name))
    assert bh.twist_commutant(L).dim == 3
    assert bh.twist_commutant(M).dim == 5
    copy = heisenberg(1, 12, 27, [2], [3])
    assert L == copy and hash(L) == hash(copy) and L != M
    assert L._solver is not None and copy._solver is None


# --- regular algebras through their classical Lie algebra -----------------

def _sl(N, g1, g2, field=QQ):
    """Yau twist of sl_N by Ad(diag g1), Ad(diag g2), and its identity-
    twisted copy. Basis: the E_ij (i != j) row by row, then the
    H_i = E_ii - E_(i+1)(i+1)."""
    roots = [(i, j) for i in range(N) for j in range(N) if i != j]
    n = len(roots) + N - 1

    def unit(i, j):
        return [[int(r == i and c == j) for c in range(N)] for r in range(N)]
    basis = [unit(i, j) for i, j in roots]
    basis += [[[int(r == c == i) - int(r == c == i + 1) for c in range(N)]
               for r in range(N)] for i in range(N - 1)]

    def coords(x):
        # H coordinates are the running sums of the diagonal
        diag = list(itertools.accumulate(x[i][i] for i in range(N - 1)))
        return [x[i][j] for i, j in roots] + diag
    entries = {}
    for p, x in enumerate(basis):
        for q, y in enumerate(basis):
            xy = Matrix(x, QQ) * Matrix(y, QQ) - Matrix(y, QQ) * Matrix(x, QQ)
            for s, v in enumerate(coords(xy.entries)):
                if v:
                    entries[p + 1, q + 1, s + 1] = v

    def ad(g):
        ratios = [Fraction(g[i], g[j]) for i, j in roots] + [1] * (N - 1)
        return [[ratios[r] if r == c else 0 for c in range(n)]
                for r in range(n)]
    table = bh.structure_table(n, entries, field)
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    return (bh.yau_twist(table, ad(g1), ad(g2), field),
            bh.yau_twist(table, ident, ident, field))


def test_yau_twisted_sl_untwists_to_its_classical_spaces():
    # At (k,l) = (0,0) and for d commuting with both twists, u = alpha x and
    # v = beta y turn the (lam, mu, gamma) identity of L into the classical
    # one of g: the space of L is the identity-twisted space cut by the
    # twist commutant. For sl_N twisted by Ad of diagonals with distinct
    # prime entries, Der(sl_N) = ad sl_N, the centroid is the scalars, the
    # commutant is diagonal on the roots plus gl_(N-1) on the Cartan, and
    # ad x commutes with the twists exactly for x in the Cartan.
    rng = random.Random(15)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    pairs = []
    for N in (2, 3, 4):
        g = rng.sample(primes, 2 * N)
        L, plain = _sl(N, g[:N], g[N:])
        assert L.check_all().passed
        commutant = bh.twist_commutant(L)
        assert commutant.dim == (N * N - N) + (N - 1) ** 2
        assert bh.derivation_space(L, 1, 1, 1).dim == N - 1
        assert bh.centroid(L).dim == 1
        assert bh.derivation_space(L, 0, 1, -1).dim == 1
        if N < 4:  # the identity-twisted sl_4 solves over all of gl_15
            pairs.append((L, plain, commutant))
    L, plain = _sl(3, [2, 3, 5], [7, 11, 13], GF(101))
    pairs.append((L, plain, bh.twist_commutant(L)))
    H = heisenberg(2, 6, 10, [2, 2], [3, 5])
    pairs.append((H, heisenberg(2, 1, 1, [1, 1], [1, 1]),
                  bh.twist_commutant(H)))
    for L, plain, commutant in pairs:
        for triple in CANONICAL_TRIPLES:
            want = bh.derivation_space(plain, *triple).intersection(commutant)
            assert bh.derivation_space(L, *triple) == want, (L, triple)


# --- every exponent pair from the (0,0) space ------------------------------

def _twist_power_oracle_algebras():
    """The pinned catalog samples, twisted Heisenberg algebras at m = 1..3,
    the twisted sl_3, and the mod-101 reduction of each that has one."""
    algebras = [catalog.build(fid, params) for fid in catalog.family_ids()
                for params in catalog.pinned_samples(fid)]
    algebras += [heisenberg(1, 6, 10, [2], [3]),
                 heisenberg(2, 6, 10, [2, 2], [3, 5]),
                 heisenberg(3, 6, 10, [2, 3, 5], [7, 11, 13]),
                 _sl(3, [2, 3, 5], [7, 11, 13])[0]]
    reduced = []
    for L in algebras:
        try:
            reduced.append(bh.reduce_mod_p(L, 101))
        except ReductionError:
            pass
    return algebras + reduced


def test_twist_power_carries_the_untwisted_space():
    # m = alpha^k beta^l maps D(0,0) into D(k,l), onto when L is regular
    # (README, "Every exponent pair from one solve"); D(k,l) is solved
    # from the blocks at m, D(0,0) from those at the identity
    checks = {True: 0, False: 0}
    for L in _twist_power_oracle_algebras():
        regular = L.is_regular()
        powers = {(k, l): bh.twist_power(L, k, l)
                  for k, l in ((1, 0), (0, 1), (2, 1))}
        for triple in CANONICAL_TRIPLES:
            untwisted = bh.derivation_space(L, *triple).basis
            for (k, l), m in powers.items():
                image = MatrixSubspace(L.n, [m * d for d in untwisted],
                                       L.field)
                space = bh.derivation_space(L, *triple, k, l)
                assert (space == image if regular
                        else space.contains_subspace(image)), (L, triple, k, l)
                checks[regular] += 1
    assert checks == {True: 576, False: 2928}, checks
