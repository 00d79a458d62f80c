import itertools
import random
from fractions import Fraction

import pytest

import bihomlie as bh
from bihomlie import BiHomLieAlgebra, catalog, derivations, heisenberg
from bihomlie.fields import GF, QQ, FieldMismatchError, ReductionError
from bihomlie.linalg import Matrix, MatrixSubspace, nullspace_basis


IDENT = [[1, 0], [0, 1]]


def l_1_10():
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 2, 1): 1, (1, 2, 2): 1, (2, 1, 1): -1, (2, 1, 2): -1,
    }, IDENT, IDENT)


def l_1_1(b=2, y=3, z1=0):
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 1, 1): 1, (1, 2, 1): 1, (2, 1, 1): z1,
    }, [[0, 0], [0, b]], [[0, 0], [0, y]])


def l_1_8(a=2, x=3):
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 2, 1): 1, (2, 1, 1): Fraction(-x, a),
    }, [[a, 0], [0, 1]], [[x, 0], [0, 1]])


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
                L.n, [m.col(j) for j in range(L.n)], L.field)
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


def test_membership_edges():
    L = l_1_10()
    assert not bh.verify_derivation(L, Matrix.identity(3, QQ), 1, 1, 1)
    Lp = bh.reduce_mod_p(L, 3)
    with pytest.raises(FieldMismatchError):
        bh.verify_derivation(Lp, Matrix.identity(2, GF(5)), 1, 1, 1)
    with pytest.raises(ValueError):
        bh.count_members_fp(L, 1, 1, 1)


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
    # blocks and re-verification read the same cached power, so a wrong
    # power passes re-verification; only the independent reference, which
    # forms alpha^k beta^l by repeated products, can catch it
    power = derivations.SolveContext._power
    monkeypatch.setattr(derivations.SolveContext, "_power",
                        lambda self, k, l: power(self, l, k))

    def differs(L):
        want = _reference_spaces(L, 2, 1)
        return any(bh.derivation_space(L, *triple, 2, 1) != want[triple]
                   for triple in CANONICAL_TRIPLES)

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

    monkeypatch.setattr(derivations, "intertwiners", counting_intertwiners)
    monkeypatch.setattr(derivations, "twist_power", counting_twist_power)
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


def test_context_keeps_one_copy_of_each_value():
    # over Q the plain view is the algebra's own rows; a kept twist power
    # is its plain rows alone, with no Matrix beside them
    L = l_1_17()
    Lp = bh.reduce_mod_p(L, 3)
    for A, scalar in ((L, Fraction), (Lp, int)):
        bh.derivation_space(A, 1, 1, 1, 2, 1)
        context = derivations._solver(A)
        table, alpha, beta = context.plain
        power = context._powers[2, 1]
        assert power == tuple(
            tuple(map(A.field.plain, row))
            for row in derivations.twist_power(A, 2, 1).entries)
        for rows in (*table, alpha, beta, power):
            assert type(rows) is tuple and len(rows) == 2
            for row in rows:
                assert type(row) is tuple
                assert all(type(x) is scalar for x in row)
    table, alpha, beta = derivations._solver(L).plain
    assert alpha is L.alpha.entries and beta is L.beta.entries
    assert all(rows is plane for rows, plane in zip(table, L.structure))


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
