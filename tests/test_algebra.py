import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import bihomlie as bh
from bihomlie import (BiHomLieAlgebra, CrossCheckError, NotLieError,
                      TwistError, derivation_extension, direct_sum,
                      heisenberg, induced_lie, structure_table, yau_twist)
from bihomlie import algebra as algebra_module
from bihomlie import algfile
from bihomlie import derivations as derivations_module
from bihomlie.algebra import classical_lie_check
from bihomlie.fields import GF, QQ
from bihomlie.linalg import Matrix, invert, is_invertible
from builders import IDENT, l_1_10


def classical_heisenberg_table(n=3):
    # [X, Y] = Z, dimension 3
    return structure_table(3, {(1, 2, 3): 1, (2, 1, 3): -1}, QQ)


# --- bracket -------------------------------------------------------------

def test_bracket_basis_values():
    L = l_1_10()
    assert L.bracket((1, 0), (0, 1)) == (1, 1)
    assert L.bracket((0, 1), (1, 0)) == (-1, -1)


def test_bracket_zero():
    L = l_1_10()
    assert L.bracket((3, -2), (0, 0)) == (0, 0)


def test_bracket_bilinear_random():
    L = l_1_10()
    rng = random.Random(11)
    for _ in range(20):
        x = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(2))
        xp = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(2))
        y = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(2))
        lhs = L.bracket(tuple(a + b for a, b in zip(x, xp)), y)
        rhs = tuple(a + b for a, b in zip(L.bracket(x, y), L.bracket(xp, y)))
        assert lhs == rhs


def test_heisenberg_bracket_values():
    # (a, b, x, y) = (4, 2, 9, 3): [X, Y] = (b x / y) Z = 6 Z
    H = heisenberg(1, 4, 9, [2], [3])
    assert H.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 6)
    assert H.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -6)


# --- axiom checks --------------------------------------------------------

def test_check_commuting():
    L = l_1_10()
    assert L.check_commuting()
    M = BiHomLieAlgebra.from_brackets(2, {}, [[1, 1], [0, 1]], [[1, 0], [1, 1]])
    assert not M.check_commuting()


def test_skew_failure_index():
    # [e1,e2] = e1 with no matching [e2,e1] term and identity twists
    L = BiHomLieAlgebra.from_brackets(2, {(1, 2, 1): 1}, IDENT, IDENT)
    ok, info = L.check_skew_symmetry()
    assert not ok
    kind, index, residual = info
    assert kind == "skew"
    assert index == (1, 2, 1)
    assert residual == 1


def test_skew_pass_heisenberg():
    H = heisenberg(1, 4, 9, [2], [3])
    ok, info = H.check_skew_symmetry()
    assert ok and info is None


def test_abelian_passes_all():
    L = BiHomLieAlgebra.from_brackets(2, {}, [[1, 1], [0, 1]], IDENT)
    rep = L.check_all()
    assert rep.passed
    assert rep.first_violation is None


def test_jacobi_failure_with_broken_twist():
    # replacing the identity alpha of the regular family above breaks
    # the Jacobi identity; first failing tuple found by hand
    L = BiHomLieAlgebra.from_brackets(2, {
        (1, 2, 1): 1, (1, 2, 2): 1, (2, 1, 1): -1, (2, 1, 2): -1,
    }, [[1, 1], [0, 1]], IDENT)
    ok, info = L.check_bihom_jacobi()
    assert not ok
    kind, index, residual = info
    assert kind == "jacobi"
    assert index == (1, 2, 2, 1)
    assert residual == -1


def test_multiplicative_failure_index():
    # [e2,e2] = e1 with alpha = diag(0,1): alpha route fails at (2,2,1)
    L = BiHomLieAlgebra.from_brackets(2, {(2, 2, 1): 1}, [[0, 0], [0, 1]],
                                      IDENT)
    ok, info = L.check_multiplicative()
    assert not ok
    kind, index, residual = info
    assert kind == "multiplicative-alpha"
    assert index == (2, 2, 1)
    assert residual == -1


def test_zero_twists_pass_multiplicative():
    Z = [[0, 0], [0, 0]]
    L = BiHomLieAlgebra.from_brackets(2, {(1, 2, 1): 1, (2, 1, 1): -1}, Z, Z)
    ok, info = L.check_multiplicative()
    assert ok and info is None


def test_axiom_report_invariant():
    good = l_1_10().check_all()
    assert good.passed and good.first_violation is None
    bad = BiHomLieAlgebra.from_brackets(2, {(1, 2, 1): 1}, IDENT,
                                        IDENT).check_all()
    assert not bad.passed and bad.first_violation is not None


def test_non_commuting_twists_are_the_first_violation():
    # the report names commuting first, also when skew-symmetry fails too
    twists = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    for entries, skew in (({}, True), ({(1, 2, 1): 1}, False)):
        rep = BiHomLieAlgebra.from_brackets(2, entries, *twists).check_all()
        assert not rep.passed and not rep.commuting
        assert rep.skew_symmetric == skew
        assert rep.first_violation == ("commuting", (), None)


def test_structure_table_rejects_bad_index():
    with pytest.raises(ValueError):
        structure_table(2, {(3, 1, 1): 1}, QQ)


# --- regularity ----------------------------------------------------------

def test_is_regular():
    assert l_1_10().is_regular()
    L11 = BiHomLieAlgebra.from_brackets(2, {
        (1, 1, 1): 1, (1, 2, 1): 1,
    }, [[0, 0], [0, 2]], [[0, 0], [0, 3]])
    assert not L11.is_regular()
    assert heisenberg(1, 4, 9, [2], [3]).is_regular()


# --- Yau twist and the induced Lie algebra -------------------------------

def test_yau_twist_identity_is_noop():
    table = classical_heisenberg_table()
    ident3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    L = yau_twist(table, ident3, ident3)
    assert L.structure == table


def test_yau_twist_matches_heisenberg_constructor():
    table = classical_heisenberg_table()
    a, x, b, y = 4, 9, 2, 3
    alpha = [[b, 0, 0], [0, Fraction(a, b), 0], [0, 0, a]]
    beta = [[y, 0, 0], [0, Fraction(x, y), 0], [0, 0, x]]
    assert yau_twist(table, alpha, beta) == heisenberg(1, a, x, [b], [y])


def test_yau_twist_sl2():
    # [e,f] = h, [h,e] = 2e, [h,f] = -2f
    table = structure_table(3, {
        (1, 2, 3): 1, (2, 1, 3): -1,
        (3, 1, 1): 2, (1, 3, 1): -2,
        (3, 2, 2): -2, (2, 3, 2): 2,
    }, QQ)
    ident3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert yau_twist(table, ident3, ident3).check_all().passed


def test_yau_twist_rejects_non_lie():
    table = structure_table(2, {(1, 2, 1): 1}, QQ)   # not skew
    with pytest.raises(NotLieError):
        yau_twist(table, IDENT, IDENT)


def test_yau_twist_rejects_non_morphism():
    table = classical_heisenberg_table()
    # diag(2,1,1) does not respect [X,Y] = Z (would need 2*1 = 1)
    bad = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    ident3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(TwistError):
        yau_twist(table, bad, ident3)


def test_induced_lie_recovers_heisenberg():
    H = heisenberg(1, 4, 9, [2], [3])
    assert induced_lie(H) == classical_heisenberg_table()


def test_induced_lie_identity_twists():
    L = l_1_10()
    assert induced_lie(L) == L.structure


def test_induced_lie_requires_regular():
    L = BiHomLieAlgebra.from_brackets(2, {(1, 1, 1): 1}, [[0, 0], [0, 2]],
                                      [[0, 0], [0, 3]])
    with pytest.raises(TwistError):
        induced_lie(L)


def test_yau_round_trip_random():
    table = classical_heisenberg_table()
    rng = random.Random(3)
    for _ in range(10):
        a1 = Fraction(rng.choice([1, 2, 3, -1, -2]))
        a2 = Fraction(rng.choice([1, 2, 3, -1, -2]))
        b1 = Fraction(rng.choice([1, 2, -1, 3]))
        b2 = Fraction(rng.choice([1, 2, -1, 3]))
        # diagonal morphisms of [X,Y] = Z need the Z entry to be the product
        alpha = [[a1, 0, 0], [0, a2, 0], [0, 0, a1 * a2]]
        beta = [[b1, 0, 0], [0, b2, 0], [0, 0, b1 * b2]]
        L = yau_twist(table, alpha, beta)
        assert L.check_all().passed
        assert induced_lie(L) == table


# --- Heisenberg constructor ----------------------------------------------

def test_heisenberg_identity_params():
    H = heisenberg(1, 1, 1, [1], [1])
    assert H.alpha == H.beta
    assert H.alpha == Matrix.identity(H.n, H.field)
    assert H.structure == classical_heisenberg_table()


def test_heisenberg_m2():
    H = heisenberg(2, 4, 9, [2, 1], [3, 1])
    assert H.n == 5
    assert H.check_all().passed
    z = (0, 0, 0, 0, 1)
    assert bh.center(H).contains(z)


def test_heisenberg_rejects_zero_parameter():
    with pytest.raises(ValueError):
        heisenberg(1, 0, 9, [2], [3])
    with pytest.raises(ValueError):
        heisenberg(1, 4, 9, [0], [3])


# --- derivation extension ------------------------------------------------

def test_derivation_extension_zero_map():
    table = classical_heisenberg_table()
    D = [[0] * 3 for _ in range(3)]
    L = derivation_extension(table, D)
    assert L.n == 4
    assert L.check_all().passed


def test_derivation_extension_abelian():
    table = structure_table(2, {}, QQ)
    D = [[1, 2], [0, 1]]
    L = derivation_extension(table, D)
    assert L.check_all().passed
    # [x, D] = -D(x) and [D, y] = D(y); here D(e1) = (1, 0)
    assert L.bracket((1, 0, 0), (0, 0, 1)) == (-1, 0, 0)
    assert L.bracket((0, 0, 1), (1, 0, 0)) == (1, 0, 0)


def test_derivation_extension_heisenberg():
    table = classical_heisenberg_table()
    D = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    # sanity: D really does derive [X,Y] = Z:
    # D(Z) = Z and [DX, Y] + [X, DY] = [X, Y] = Z
    L = derivation_extension(table, D)
    assert L.check_all().passed


def test_derivation_extension_rejects_non_derivation():
    table = classical_heisenberg_table()
    D = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]   # kills X, Y but not Z
    with pytest.raises(ValueError):
        derivation_extension(table, D)


@pytest.mark.parametrize("D", [[[1]], [[0] * 3 for _ in range(3)]],
                         ids=["1x1", "3x3"])
def test_derivation_extension_rejects_wrong_shape(D):
    # a 1x1 D once raised IndexError, a 3x3 one "not a scaled derivation"
    table = structure_table(2, {}, QQ)
    with pytest.raises(ValueError, match="D is not 2 x 2"):
        derivation_extension(table, D)


def leibniz_first_violation(table, D):
    """The reference verdict for derivation_extension, summed by the push-
    forward and pull-back kernels: the first ("leibniz", (i, j, s), total)
    with a nonzero D([e_i,e_j]) - [D(e_i), e_j] - [e_i, D(e_j)] at
    coordinate s, or None. D is given by its entries."""
    constants = algebra_module._constants(table)
    ident = Matrix.identity(len(table), QQ).entries
    totals = algebra_module._pushforward(constants, D)
    for pulled in (algebra_module._pullback(constants, D, ident),
                   algebra_module._pullback(constants, ident, D)):
        for key, v in pulled.items():
            totals[key] = totals.get(key, 0) - v
    return algebra_module._first_violation("leibniz", totals)


def sl2_table():
    # basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f
    return structure_table(3, {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 1): 2,
                               (1, 3, 1): -2, (3, 2, 2): -2, (2, 3, 2): 2},
                           QQ)


def test_derivation_extension_accepts_what_the_scaled_residual_accepts():
    # the scaled residual b*D([u,v]) - a*[D(u), v] - a*[u, D(v)] at
    # (a, b) = (1, 1), the one pair whose extension is an algebra for every
    # D != 0; candidates: members of the solved (1, 1, 1) space of the
    # identity-twisted table, members with one entry moved, and random
    # maps. Every accepted map's extension passes check_all
    rng = random.Random(33)
    cases = []
    for table in (classical_heisenberg_table(), structure_table(2, {}, QQ),
                  sl2_table()):
        ident = Matrix.identity(len(table), QQ)
        plain = BiHomLieAlgebra(table, ident, ident)
        cases.append((table, bh.derivation_space(plain, 1, 1, 1)))
    verdicts = {True: 0, False: 0}
    for t in range(300):
        table, space = cases[t % len(cases)]
        n = len(table)
        D = Matrix.zero(n, n, QQ)
        for member in space.basis:
            D = D + member * rng.randrange(-3, 4)
        kind = t // len(cases) % 3
        if kind:
            moved = [list(row) for row in D.entries]
            moved[rng.randrange(n)][rng.randrange(n)] += rng.randrange(1, 3)
            D = Matrix(moved if kind == 1 else
                       [[rng.randrange(-2, 3) for _ in range(n)]
                        for _ in range(n)], QQ)
        expected = leibniz_first_violation(table, D.entries) is None
        try:
            L = derivation_extension(table, D)
        except ValueError as exc:
            assert str(exc) == "D is not a derivation"
            accepted = False
        else:
            assert L.n == n + 1 and L.check_all().passed
            accepted = True
        assert accepted == expected, (table, D)
        verdicts[accepted] += 1
    assert verdicts == {True: 185, False: 115}, verdicts


def test_derivation_extension_checks_its_output(monkeypatch):
    # a construction that drops the brackets [D, e_j] breaks skew-symmetry;
    # the constructor's check_all of its output refuses to return it
    dense = derivations_module._dense

    def without_d_brackets(n, constants, zero):
        return dense(n, {key: c for key, c in constants.items()
                         if key[0] != n - 1}, zero)

    monkeypatch.setattr(derivations_module, "_dense", without_d_brackets)
    with pytest.raises(AssertionError, match="the extension fails check_all"):
        derivation_extension(structure_table(2, {}, QQ), [[1, 0], [0, 0]])


@pytest.mark.parametrize("entries, verdict", [
    ({(1, 2, 1): 1}, "skew=False, jacobi=True"),
    ({(1, 2, 3): 1, (2, 1, 3): -1, (2, 3, 2): 1, (3, 2, 2): -1},
     "skew=True, jacobi=False"),
], ids=["skew", "jacobi"])
def test_derivation_extension_refuses_a_table_that_is_not_lie(entries,
                                                              verdict):
    n = max(max(key) for key in entries)
    table = structure_table(n, entries, QQ)
    with pytest.raises(NotLieError, match=re.escape(
            "input table is not a Lie algebra (%s)" % verdict)):
        derivation_extension(table, [[0] * n for _ in range(n)])


def test_derivation_extension_checks_its_table_along_both_routes(
        monkeypatch):
    # a table route that misses the Jacobi violation is caught by the
    # basis route of the output's check_all, on the input's basis triples
    monkeypatch.setattr(algebra_module, "_jacobi_violation",
                        lambda *args: None)
    table = structure_table(3, {(1, 2, 3): 1, (2, 1, 3): -1, (2, 3, 2): 1,
                                (3, 2, 2): -1}, QQ)
    with pytest.raises(CrossCheckError, match="BiHom-Jacobi routes disagree"):
        derivation_extension(table, [[0] * 3 for _ in range(3)])


# --- direct sum ----------------------------------------------------------

def test_direct_sum_abelian():
    A = BiHomLieAlgebra.from_brackets(1, {}, [[1]], [[1]])
    B = BiHomLieAlgebra.from_brackets(1, {}, [[1]], [[1]])
    S = direct_sum(A, B)
    assert S.n == 2
    assert all(S.structure[i][j] == (0, 0) for i in range(2)
               for j in range(2))


def test_direct_sum_factors_are_ideals():
    A = BiHomLieAlgebra.from_brackets(1, {(1, 1, 1): 1}, [[0]], [[0]])
    B = BiHomLieAlgebra.from_brackets(1, {}, [[2]], [[3]])
    S = direct_sum(A, B)
    left = bh.VectorSubspace(2, [(1, 0)], QQ)
    right = bh.VectorSubspace(2, [(0, 1)], QQ)
    assert bh.is_ideal(S, left)
    assert bh.is_ideal(S, right)


def test_direct_sum_reproduces_single_line_family():
    # [e1,e1] = e1 with both twists killing e1 splits off the abelian line
    A = BiHomLieAlgebra.from_brackets(1, {(1, 1, 1): 1}, [[0]], [[0]])
    B = BiHomLieAlgebra.from_brackets(1, {}, [[2]], [[3]])
    S = direct_sum(A, B)
    L31 = BiHomLieAlgebra.from_brackets(2, {(1, 1, 1): 1}, [[0, 0], [0, 2]],
                                        [[0, 0], [0, 3]])
    assert S == L31


def test_constants_are_extracted_once_per_algebra(monkeypatch):
    # after construction nothing extracts the algebra's nonzero constants
    # again: the axiom checks, the centralizer kernel, transport,
    # induced_lie, direct_sum and the solver all read the kept dict
    L = heisenberg(1, 4, 9, [2], [3])
    extract = algebra_module._constants
    kept = extract(L.structure)
    calls = []

    def counting(table):
        if table is L.structure:
            calls.append(table)
        return extract(table)

    monkeypatch.setattr(algebra_module, "_constants", counting)
    assert L.check_all().passed
    assert bh.center(L).dim == 1
    f = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]], QQ)
    assert bh.verify_isomorphism(L, bh.transport(L, f), f)
    assert induced_lie(L) == classical_heisenberg_table()
    S = direct_sum(L, L)
    assert bh.derivation_space(L, 1, 1, 1).dim > 0
    assert calls == []
    # direct_sum copies the kept dict before extending it
    assert L._constants == kept
    assert S._constants == {**kept, **{(3 + i, 3 + j, 3 + s): c for
                                       (i, j, s), c in kept.items()}}
    with pytest.raises(AttributeError, match="read-only"):
        L._constants = {}


# --- sparse table routes against the dense index sums ----------------------
#
# The table routes of check_all run over the nonzero structure constants.
# The dense loops below evaluate the same identities as full index sums in
# index order; they are the reference the sparse routes are compared with,
# verdict and first violation (indices and exact residual) alike.

def dense_skew(L):
    """First (i,j,s) with sum_{p,q} (b_pi a_qj + b_pj a_qi) c_pq^s != 0."""
    n, zero = L.n, L.field.zero()
    a, b, c = L.alpha.entries, L.beta.entries, L.structure
    for i in range(n):
        for j in range(n):
            for s in range(n):
                total = zero
                for p in range(n):
                    for q in range(n):
                        total = total + (b[p][i] * a[q][j]
                                         + b[p][j] * a[q][i]) * c[p][q][s]
                if total != zero:
                    return False, ("skew", (i + 1, j + 1, s + 1), total)
    return True, None


def dense_jacobi(L):
    """First (i,j,k,r) where the BiHom-Jacobi sum is nonzero: the sum over
    p, l of beta2_pi inner[j][k][l] c_pl^r plus its two cyclic shifts of
    (i,j,k), with inner[j][k][l] = sum_{q,s} b_qj a_sk c_qs^l."""
    n, zero = L.n, L.field.zero()
    a, b, c = L.alpha.entries, L.beta.entries, L.structure
    beta2 = (L.beta * L.beta).entries
    inner = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for q in range(n):
                if b[q][j] == zero:
                    continue
                for s in range(n):
                    coeff = b[q][j] * a[s][k]
                    if coeff == zero:
                        continue
                    row = c[q][s]
                    for l in range(n):
                        inner[j][k][l] = inner[j][k][l] + coeff * row[l]

    def outer(i, j, k, r):
        total = zero
        for p in range(n):
            if beta2[p][i] == zero:
                continue
            for l in range(n):
                total = total + beta2[p][i] * inner[j][k][l] * c[p][l][r]
        return total

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for r in range(n):
                    total = (outer(i, j, k, r) + outer(j, k, i, r)
                             + outer(k, i, j, r))
                    if total != zero:
                        return False, ("jacobi",
                                       (i + 1, j + 1, k + 1, r + 1), total)
    return True, None


def dense_morphism_violation(table, m, zero):
    """First ((i,j,s), m([e_i,e_j]) - [m e_i, m e_j] at s), or None."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for s in range(n):
                lhs = rhs = zero
                for k in range(n):
                    lhs = lhs + table[i][j][k] * m[s][k]
                for p in range(n):
                    for q in range(n):
                        rhs = rhs + m[p][i] * m[q][j] * table[p][q][s]
                if lhs != rhs:
                    return (i, j, s), lhs - rhs
    return None


def dense_multiplicative(L):
    zero = L.field.zero()
    for name, m in (("alpha", L.alpha), ("beta", L.beta)):
        found = dense_morphism_violation(L.structure, m.entries, zero)
        if found is not None:
            (i, j, s), residual = found
            return False, ("multiplicative-" + name, (i + 1, j + 1, s + 1),
                           residual)
    return True, None


def test_classical_lie_check_matches_dense_references_at_identity_twists():
    verdicts = set()
    for L in _random_algebras(seed=2020, count=30):
        ident = Matrix.identity(L.n, L.field)
        plain = BiHomLieAlgebra(L.structure, ident, ident, L.field)
        expected = (dense_skew(plain)[0], dense_jacobi(plain)[0])
        assert classical_lie_check(L.structure, L.field) == expected, L
        verdicts.add(expected)
    # every combination of the two verdicts occurs
    assert len(verdicts) == 4
    # [e1,e2] = e3, [e2,e3] = e2: skew, but the Jacobi sum on (e1,e2,e3)
    # is [e1,e2] = e3
    table = structure_table(3, {(1, 2, 3): 1, (2, 1, 3): -1,
                                (2, 3, 2): 1, (3, 2, 2): -1}, QQ)
    ident3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotLieError, match="skew=True, jacobi=False"):
        yau_twist(table, ident3, ident3)


def _random_algebra(rng, n, field):
    """A random n-dim table and pair of twists, mostly not an algebra.

    Tables are sparse, and skew-symmetric half of the time; each twist is
    the identity, diagonal or sparse, so some inputs pass some axioms.
    """
    values = (1, -1, 2, Fraction(1, 2))
    entries = {}
    skew = rng.random() < 0.5
    for i in range(1, n + 1):
        for j in range(i + 1 if skew else 1, n + 1):
            for k in range(1, n + 1):
                if rng.random() < 0.25:
                    v = rng.choice(values)
                    entries[(i, j, k)] = v
                    if skew:
                        entries[(j, i, k)] = -v

    def twist():
        kind = rng.random()
        if kind < 0.3:
            return [[int(i == j) for j in range(n)] for i in range(n)]
        if kind < 0.6:
            return [[rng.choice(values) if i == j else 0 for j in range(n)]
                    for i in range(n)]
        return [[rng.choice(values) if rng.random() < 0.4 else 0
                 for j in range(n)] for i in range(n)]

    return BiHomLieAlgebra.from_brackets(n, entries, twist(), twist(), field)


def _random_algebras(seed, count):
    rng = random.Random(seed)
    return [_random_algebra(rng, n, field)
            for field in (QQ, GF(3)) for n in (2, 3) for _ in range(count)]


def _broken_heisenbergs():
    """Twisted Heisenberg algebras with m = 1, 2 over Q and mod 5, by kind:
    the "original"s, their copies with a unit added to one entry of
    "alpha" or of "beta", which break some of the axioms at dimension 5,
    and at m = 2 their copies with 1 added to the "constant" c_12^1, which
    break the BiHom-Jacobi identity first at (1, 2, 3, 5), three distinct
    indices. At m = 1 the "rotated" copies add 1 to c_13^1: the failing
    Jacobi class {(1, 3, 2), (3, 2, 1), (2, 1, 3)} has a nonzero inner
    bracket [beta e_j, alpha e_k] only at (3, 2, 1) and (2, 1, 3), the
    rotations with i > j."""
    kinds = {"original": [], "alpha": [], "beta": [], "constant": [],
             "rotated": []}
    for field in (QQ, GF(5)):
        for m, (a, x, b, y) in ((1, (4, 9, [2], [3])),
                                (2, (-3, -2, [2, 3], [4, 7]))):
            H = heisenberg(m, a, x, b, y, field)
            kinds["original"].append(H)
            bump = Matrix.unit(H.n, 0, H.n - 1, field)
            kinds["alpha"].append(BiHomLieAlgebra(H.structure, H.alpha + bump,
                                                  H.beta, field))
            kinds["beta"].append(BiHomLieAlgebra(H.structure, H.alpha,
                                                 H.beta + bump, field))
            kind, j = ("constant", 1) if m == 2 else ("rotated", 2)
            table = [[list(row) for row in plane] for plane in H.structure]
            table[0][j][0] += field.one()
            kinds[kind].append(BiHomLieAlgebra(table, H.alpha, H.beta, field))
    return kinds


def _differential(algebras):
    """(comparisons, violations, mismatches) of the sparse table routes
    against the dense references; a CrossCheckError is a mismatch."""
    comparisons = violations = 0
    mismatches = []
    for L in algebras:
        for method, reference in ((L.check_skew_symmetry, dense_skew),
                                  (L.check_bihom_jacobi, dense_jacobi),
                                  (L.check_multiplicative,
                                   dense_multiplicative)):
            expected = reference(L)
            try:
                got = method()
            except CrossCheckError as exc:
                got = exc
            comparisons += 1
            violations += not expected[0]
            if got != expected:
                mismatches.append((L, method.__name__, got, expected))
    return comparisons, violations, mismatches


def test_sparse_table_routes_match_dense_reference_on_random_tables():
    comparisons, violations, mismatches = _differential(
        _random_algebras(seed=2020, count=60))
    assert mismatches == []
    assert comparisons == 720
    # most inputs fail an axiom, and enough of them pass one
    assert comparisons // 2 < violations < comparisons - 60


def test_sparse_table_routes_match_dense_reference_on_heisenberg():
    kinds = _broken_heisenbergs()
    comparisons, violations, mismatches = _differential(
        [L for group in kinds.values() for L in group])
    assert mismatches == []
    assert all(H.check_all().passed for H in kinds["original"])
    assert 0 < violations < comparisons
    # the Jacobi route's reports are compared where (i, k, j) differs
    assert [L.check_bihom_jacobi()[1][:2] for L in kinds["constant"]] == [
        ("jacobi", (1, 2, 3, 5))] * 2
    assert [L.check_bihom_jacobi()[1][:2] for L in kinds["rotated"]] == [
        ("jacobi", (1, 3, 2, 3))] * 2


def test_baseline_heisenberg_past_the_sweep_sizes():
    # heisenberg(m, 6, 10, b, y), b the first m primes and y the next m
    # reversed, at n = 17 and 33; its copy with 1 added to c_12^1 fails
    # skew-symmetry, Jacobi and multiplicativity
    primes = [p for p in range(2, 132) if all(p % d for d in range(2, p))]
    for m, total in ((8, 159), (16, 393)):
        H = heisenberg(m, 6, 10, primes[:m], primes[m:2 * m][::-1])
        assert H.check_all().passed
        table = [[list(row) for row in plane] for plane in H.structure]
        table[0][1][0] += 1
        report = BiHomLieAlgebra(table, H.alpha, H.beta).check_all()
        assert (report.commuting, report.skew_symmetric, report.bihom_jacobi,
                report.multiplicative) == (True, False, False, False)
        assert report.first_violation == ("skew", (1, 2, 1), total)
        z = bh.VectorSubspace(H.n, [[0] * (H.n - 1) + [1]], QQ)
        assert bh.center(H) == bh.center(H, two_sided=True) == z
        assert bh.derived_subalgebra(H) == z


def _dense_transports(algebras, seed):
    """Each algebra transported by a seeded invertible map with entries in
    [-2, 2]: the same axioms fail, but on a basis where most structure
    constants and twist entries are nonzero, so many Jacobi terms cancel."""
    rng = random.Random(seed)
    out = []
    for L in algebras:
        while True:
            f = Matrix([[rng.randint(-2, 2) for _ in range(L.n)]
                        for _ in range(L.n)], L.field)
            if is_invertible(f):
                break
        out.append(bh.transport(L, f))
    return out


def test_sparse_table_routes_match_dense_reference_on_dense_bases():
    # the algebras of _broken_heisenbergs() but the beta-bumped and rotated
    # copies, which keeps the dense Jacobi references quick. The axioms do
    # not depend on the basis, so the transports fail as many checks as the
    # sparse originals.
    kinds = _broken_heisenbergs()
    originals = kinds["original"] + kinds["alpha"] + kinds["constant"]
    algebras = _dense_transports(originals, seed=7)
    assert all(len(L._constants) > L.n ** 2 for L in algebras if L.n == 5)
    comparisons, violations, mismatches = _differential(algebras)
    assert mismatches == []
    assert comparisons == 30
    verdicts = [(check()[0], check.__name__) for L in originals
                for check in (L.check_skew_symmetry, L.check_bihom_jacobi,
                              L.check_multiplicative)]
    assert violations == sum(not ok for ok, _ in verdicts)
    assert (False, "check_bihom_jacobi") in verdicts
    assert (True, "check_bihom_jacobi") in verdicts


def test_differential_catches_a_dropped_cyclic_shift(monkeypatch):
    # a Jacobi accumulation that forgets the (j,k,i) shift must be caught
    monkeypatch.setattr(algebra_module, "_cyclic_keys",
                        lambda i, j, k, r: ((i, j, k, r), (k, i, j, r)))
    _, _, mismatches = _differential(_random_algebras(seed=2020, count=10))
    assert mismatches


def unmemoised_jacobi_route(L):
    """The BiHom-Jacobi basis route as six calls of L.bracket per basis
    triple (6 n^3 in all), beta^2 applied as beta twice."""
    n, zero, br = L.n, L.field.zero(), L.bracket
    units = Matrix.identity(n, L.field).entries
    bu, au = ([m.apply(u) for u in units] for m in (L.beta, L.alpha))
    b2 = [L.beta.apply(v) for v in bu]
    return all(u + v + w == zero for i, j, k in product(range(n), repeat=3)
               for u, v, w in zip(br(b2[i], br(bu[j], au[k])),
                                  br(b2[j], br(bu[k], au[i])),
                                  br(b2[k], br(bu[i], au[j]))))


def _adjoint_yau_twists(rng, field):
    """Yau twists of sl_2 (basis e, f, h) and gl_2 (basis E11, E12, E21,
    E22) by alpha = Ad(g), beta = Ad(g + c), seeded g and c: algebras
    whose twists are not diagonal and whose Jacobi sums have nonzero
    terms."""
    gl2 = {}     # [E_ab, E_cd] = (b == c) E_ad - (d == a) E_cb
    for a, b, c, d in product(range(2), repeat=4):
        x, y = 2 * a + b + 1, 2 * c + d + 1
        for s, v in ((2 * a + d + 1, b == c), (2 * c + b + 1, -(d == a))):
            gl2[x, y, s] = gl2.get((x, y, s), 0) + v
    sl2 = {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 1): 2, (1, 3, 1): -2,
           (3, 2, 2): -2, (2, 3, 2): 2}
    # coordinates of a 2 x 2 matrix in each basis (sl_2: traceless only)
    coords = {3: lambda m: (m[0][1], m[1][0], m[0][0]),
              4: lambda m: m[0] + m[1]}
    units = {3: ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]),
             4: ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
                 [[0, 0], [0, 1]])}
    out = []
    while len(out) < 4:
        g = Matrix([[rng.randrange(-3, 4) for _ in range(2)]
                    for _ in range(2)], field)
        h = g + Matrix.identity(2, field) * rng.randrange(1, 4)
        if not (is_invertible(g) and is_invertible(h)):
            continue
        n = 3 + len(out) % 2
        twists = [[coords[n]((x * Matrix(u, field) * invert(x)).entries)
                   for u in units[n]] for x in (g, h)]
        alpha, beta = (Matrix(list(zip(*cols)), field) for cols in twists)
        out.append(yau_twist(structure_table(n, sl2 if n == 3 else gl2,
                                             field), alpha, beta, field))
    return out


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_memoised_jacobi_route_matches_six_brackets_per_triple(field):
    # the basis route evaluates each distinct inner bracket once, and each
    # outer bracket once where its inner bracket is nonzero;
    # its verdict, and check_all's report, match the route that brackets
    # six times per triple, on passing algebras and on the same algebras
    # with one structure constant perturbed so that Jacobi fails
    rng = random.Random(21)
    one = field.one()
    algebras = []
    for L in _adjoint_yau_twists(rng, field):
        algebras.append(L)
        keys = list(product(range(L.n), repeat=3))
        rng.shuffle(keys)
        for i, j, s in keys:
            table = [[list(row) for row in plane] for plane in L.structure]
            table[i][j][s] += one
            M = BiHomLieAlgebra(table, L.alpha, L.beta, field)
            if not unmemoised_jacobi_route(M):
                algebras.append(M)
                break
    assert [L.n for L in algebras] == [3, 3, 4, 4, 3, 3, 4, 4]
    for position, L in enumerate(algebras):
        expected = unmemoised_jacobi_route(L)
        assert expected == (position % 2 == 0)
        # the route reads sparse ints: per bracket the nonzero (s, C c)
        # pairs, per map the nonzero pairs of each column, each map times
        # its own scale
        b2, bu, au = ([[(s, x) for s, x in enumerate(col) if x]
                       for col in zip(*field.plain_rows(m.entries)[1])]
                      for m in (L.beta * L.beta, L.beta, L.alpha))
        _, rows = field.plain_rows(row for plane in L.structure
                                   for row in plane)
        brackets = [[[(s, c) for s, c in enumerate(rows[i * L.n + j]) if c]
                     for j in range(L.n)] for i in range(L.n)]
        assert algebra_module._jacobi_holds(brackets, b2, bu, au,
                                            field.is_zero) == expected
        report = L.check_all()
        verdicts = [dense_skew(L), dense_jacobi(L), dense_multiplicative(L)]
        assert report.commuting and L.check_bihom_jacobi() == verdicts[1]
        assert ((report.skew_symmetric, report.bihom_jacobi,
                 report.multiplicative) == tuple(v[0] for v in verdicts))
        assert report.first_violation == next(
            (v[1] for v in verdicts if not v[0]), None)


@pytest.mark.parametrize("name, route, method, axiom", [
    ("skew_fail", "_skew_violation", "check_skew_symmetry", "skew-symmetry"),
    ("jacobi_fail", "_jacobi_violation", "check_bihom_jacobi",
     "BiHom-Jacobi"),
    ("mult_fail", "_morphism_violation", "check_multiplicative",
     "multiplicativity"),
])
def test_disagreeing_routes_raise(name, route, method, axiom, monkeypatch):
    # each check refuses a verdict when its table route misses the
    # violation the basis route finds, or reports one the basis route
    # does not find
    L = algfile.load(Path(__file__).parent / "golden"
                     / (name + ".json")).algebra
    H = heisenberg(1, 4, 9, [2], [3])
    assert not getattr(L, method)()[0] and getattr(H, method)()[0]
    for M, found in ((L, None), (H, ("fake", (1, 1, 1), 1))):
        monkeypatch.setattr(algebra_module, route, lambda *args: found)
        with pytest.raises(CrossCheckError, match=axiom + " routes disagree"):
            getattr(M, method)()
