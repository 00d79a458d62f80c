import itertools
import random
from fractions import Fraction

import pytest

import bihomlie as bh
from bihomlie import (BiHomLieAlgebra, Matrix, VectorSubspace, heisenberg,
                      linalg, structure)
from bihomlie.fields import GF, QQ
from bihomlie.structure import _eigenvalues
from builders import IDENT, l_1_1, l_1_10, l_1_8


def l_1_9():
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 1, 1): 1, (2, 2, 2): 1,
    }, [[1, 0], [0, 0]], [[0, 0], [0, 1]])


def l_2_11():
    # beta maps e2 to e1 and kills e1
    return BiHomLieAlgebra.from_brackets(2, {(2, 1, 1): 1},
                                         IDENT, [[0, 1], [0, 0]])


def l_3_1():
    return BiHomLieAlgebra.from_brackets(2, {(1, 1, 1): 1},
                                         [[0, 0], [0, 2]], [[0, 0], [0, 3]])


def l_2_1():
    return BiHomLieAlgebra.from_brackets(2, {(1, 1, 1): 1, (2, 1, 1): 1},
                                         [[0, 0], [0, 2]], [[0, 0], [0, 3]])


def abelian2():
    return BiHomLieAlgebra.from_brackets(2, {}, IDENT, IDENT)


def span(L, *vecs):
    return VectorSubspace(L.n, list(vecs), L.field)


# --- products and centers -------------------------------------------------

def test_product_with_zero_subspace():
    L = l_1_10()
    zero = VectorSubspace(2, [], QQ)
    assert bh.product_subspace(L, bh.center(abelian2()), zero).dim == 0


def test_derived_subalgebra_l_1_10():
    d = bh.derived_subalgebra(l_1_10())
    assert d.dim == 1
    assert d.contains((1, 1))


def test_product_abelian_zero():
    assert bh.derived_subalgebra(abelian2()).dim == 0


def test_center_abelian_full():
    assert bh.center(abelian2()).dim == 2


def test_center_l_1_10_trivial():
    assert bh.center(l_1_10()).dim == 0


def test_center_l_2_11():
    c = bh.center(l_2_11())
    assert c.dim == 1
    assert c.contains((1, 0))


def test_center_l_2_11_exhaustive_f3():
    F3 = GF(3)
    L = BiHomLieAlgebra.from_brackets(2, {(2, 1, 1): 1},
                                      IDENT, [[0, 1], [0, 0]], field=F3)
    members = []
    for a, b in itertools.product(range(3), repeat=2):
        x = (F3(a), F3(b))
        if all(all(v == F3(0) for v in L.bracket(x, e))
               for e in ((F3(1), F3(0)), (F3(0), F3(1)))):
            members.append(x)
    c = bh.center(L)
    assert len(members) == 3 ** c.dim
    for x in members:
        assert c.contains(x)


def test_center_two_sided_differs():
    L = l_2_11()
    assert bh.center(L).dim == 1
    assert bh.center(L, two_sided=True).dim == 0


def test_centralizer_zero_subspace_full():
    L = l_1_10()
    assert bh.centralizer(L, VectorSubspace(2, [], QQ)).dim == 2


FOREIGN = pytest.mark.parametrize(
    "S", [VectorSubspace(3, [(1, 0, 0)], QQ), VectorSubspace(1, [(1,)], QQ),
          VectorSubspace(2, [(1, 0)], GF(3))],
    ids=["longer", "shorter", "other-field"])


@FOREIGN
def test_centralizer_refuses_a_foreign_subspace(S):
    with pytest.raises(ValueError, match="not a subspace of L"):
        bh.centralizer(l_1_10(), S)


def test_an_operator_space_is_foreign_to_an_algebra_of_its_dimension():
    # 2 x 2 operators span a subspace of 4-space, but not of L
    L, S = bh.direct_sum(l_1_10(), l_1_10()), bh.MatrixSubspace.full(2, QQ)
    for refuse in (bh.centralizer, bh.is_ideal,
                   lambda L, S: bh.product_subspace(L, S, S)):
        with pytest.raises(ValueError, match="not a subspace of L"):
            refuse(L, S)


@FOREIGN
def test_product_subspace_refuses_a_foreign_subspace(S):
    # refused up front, as by centralizer, not left to L.bracket's length
    # check or its coercion of another field's scalars
    full = VectorSubspace.full(2, QQ)
    for pair in ((S, full), (full, S)):
        with pytest.raises(ValueError, match="not a subspace of L"):
            bh.product_subspace(l_1_10(), *pair)


@FOREIGN
def test_is_ideal_refuses_a_foreign_subspace(S):
    # refused before the twists or the bracket see a vector of S
    with pytest.raises(ValueError, match="not a subspace of L"):
        bh.is_ideal(bh.direct_sum(l_1_10(), l_1_10()), S)


def test_centralizer_of_full_is_center():
    for L in (l_1_10(), l_1_1(), l_2_11()):
        full = span(L, (1, 0), (0, 1))
        assert bh.centralizer(L, full) == bh.center(L)


def test_centralizer_l_1_1():
    c = bh.centralizer(l_1_1(), span(l_1_1(), (1, 0)))
    assert c.dim == 1
    assert c.contains((0, 1))


def test_center_antitone():
    L = l_1_1()
    c = bh.center(L)
    for vecs in [[(1, 0)], [(0, 1)], [(1, 1)]]:
        assert bh.centralizer(L, span(L, *vecs)).contains_subspace(c)


# --- series ---------------------------------------------------------------

def test_series_abelian():
    L = abelian2()
    lcs = bh.lower_central_series(L)
    ds = bh.derived_series(L)
    assert lcs.dims == (2, 0) and lcs.terminated_at_zero and lcs.steps == 1
    assert ds.dims == (2, 0) and ds.steps == 1
    assert bh.is_nilpotent(L) and bh.is_solvable(L)


def test_series_l_1_10():
    lcs = bh.lower_central_series(l_1_10())
    assert lcs.dims == (2, 1)
    assert not lcs.terminated_at_zero
    assert lcs.steps is None
    ds = bh.derived_series(l_1_10())
    assert ds.dims == (2, 1, 0)
    assert ds.terminated_at_zero and ds.steps == 2
    assert not bh.is_nilpotent(l_1_10())
    assert bh.is_solvable(l_1_10())


def test_series_heisenberg():
    H = heisenberg(1, 4, 9, [2], [3])
    lcs = bh.lower_central_series(H)
    assert lcs.dims == (3, 1, 0)
    assert lcs.steps == 2


def test_derived_bounded_by_lower_central():
    for L in (l_1_10(), l_1_1(), l_1_8(), heisenberg(1, 4, 9, [2], [3])):
        lcs = bh.lower_central_series(L).dims
        ds = bh.derived_series(L).dims
        for i in range(min(len(lcs), len(ds))):
            assert ds[i] <= lcs[i]


def test_nilpotency_transfers_to_induced_lie():
    for L in (l_1_10(), heisenberg(1, 4, 9, [2], [3]),
              BiHomLieAlgebra.from_brackets(2, {
                  (1, 2, 1): 1, (2, 1, 1): -1, (2, 2, 1): -1,
              }, IDENT, [[1, 1], [0, 1]])):
        assert L.is_regular()
        table = bh.induced_lie(L)
        ident = [[1 if i == j else 0 for j in range(L.n)] for i in range(L.n)]
        classical = BiHomLieAlgebra(table, ident, ident, L.field)
        assert (bh.lower_central_series(L).terminated_at_zero
                == bh.lower_central_series(classical).terminated_at_zero)
        assert (bh.derived_series(L).terminated_at_zero
                == bh.derived_series(classical).terminated_at_zero)


# --- ideals ---------------------------------------------------------------

def test_trivial_ideals():
    L = l_1_10()
    assert bh.is_ideal(L, VectorSubspace(2, [], QQ))
    assert bh.is_ideal(L, span(L, (1, 0), (0, 1)))


def test_l_1_10_ideal_lines():
    L = l_1_10()
    assert not bh.is_ideal(L, span(L, (1, 0)))
    assert bh.is_ideal(L, span(L, (1, 1)))


def test_line_e1_ideal_elsewhere():
    for L in (l_1_1(), l_1_8(), l_2_11(), l_3_1(), l_2_1()):
        assert bh.is_ideal(L, span(L, (1, 0)))


def test_ker_sum_regular_trivial():
    assert bh.ker_alpha_plus_ker_beta(l_1_10()).dim == 0


def test_ker_sum_l_1_1():
    I = bh.ker_alpha_plus_ker_beta(l_1_1())
    assert I.dim == 1
    assert I.contains((1, 0))
    assert bh.is_ideal(l_1_1(), I)


def test_ker_sum_l_1_9_full():
    I = bh.ker_alpha_plus_ker_beta(l_1_9())
    assert I.dim == 2
    assert bh.is_ideal(l_1_9(), I)


# --- characteristic nilpotency -------------------------------------------

def test_cn_trivial_derivations():
    # the two-parameter family has no nonzero derivations at (0,0)
    assert bh.derivation_space(l_1_1(), 1, 1, 1).dim == 0
    assert bh.is_characteristically_nilpotent(l_1_1())


def test_cn_fails_l_1_10():
    assert not bh.is_characteristically_nilpotent(l_1_10())


def test_cn_der_basis_l_1_10_not_nilpotent_by_hand():
    # AB = B and BA = A, so [A,B] = B - A and bracketing with either
    # generator reproduces B - A: the series stabilizes at a nonzero line
    A = bh.Matrix([[1, 0], [1, 0]], QQ)
    B = bh.Matrix([[0, 1], [0, 1]], QQ)
    C = bh.commutator(A, B)
    assert C == B - A
    assert bh.commutator(A, C) == C
    assert bh.commutator(B, C) == C


def test_cn_refuses_a_span_not_closed_under_commutators(monkeypatch):
    # [E12, E21] = E11 - E22 lies outside span{E12, E21}
    E12, E21 = Matrix.unit(2, 0, 1, QQ), Matrix.unit(2, 1, 0, QQ)
    monkeypatch.setattr(structure, "derivation_space", lambda *args:
                        bh.MatrixSubspace(2, [E12, E21], QQ))
    with pytest.raises(bh.ClosureError):
        bh.is_characteristically_nilpotent(l_1_10())


# --- small centroid -------------------------------------------------------

def test_small_l_1_8():
    assert bh.is_small_centroid(l_1_8())


def test_not_small_l_3_1():
    assert not bh.is_small_centroid(l_3_1())


def test_small_scalar_centroid():
    L = l_2_1()
    assert bh.centroid(L).dim == 1
    assert bh.is_small_centroid(L)


def test_small_centroid_solves_the_annihilator_of_l2_once(monkeypatch):
    # center and L^2 of the direct sum of two classical Heisenberg
    # algebras meet in a plane; its two basis vectors share one solve of
    # the 2 x 6 annihilator system of L^2
    systems = []
    kernel = VectorSubspace._kernel.__func__

    def counting(cls, n, rows, field):
        systems.append((n, tuple(map(tuple, rows))))
        return kernel(cls, n, rows, field)

    monkeypatch.setattr(VectorSubspace, "_kernel", classmethod(counting))
    H = heisenberg(1, 1, 1, [1], [1])
    L = bh.direct_sum(H, H)
    l2 = bh.derived_subalgebra(L)
    assert (bh.center(L).intersection(l2).dim, l2.dim) == (2, 2)
    del systems[:]
    assert not bh.is_small_centroid(L)    # the summands' projections
    assert systems.count((6, l2.basis)) == 1


def test_small_notions_disagree_on_l_3_1():
    # the weak span test, against the intersection-style central
    # derivations, accepts the diagonal centroid because E22 happens to be
    # a central derivation; is_small_centroid, in the strict sense, refuses
    L = l_3_1()
    cder = bh.central_derivations(L, 0, 0)
    span = bh.MatrixSubspace(2, [Matrix.identity(2, QQ), *cder.basis], QQ)
    assert span.contains_subspace(bh.centroid(L, 0, 0))
    assert not bh.is_small_centroid(L)


# --- decomposability ------------------------------------------------------

def decomposed(L):
    """decompose(L) as (summand count, complete), after checking that every
    summand is a nonzero ideal and that together they span L directly."""
    summands, complete = bh.decompose(L)
    total = VectorSubspace.zero(L.n, L.field)
    for S in summands:
        assert S.dim and bh.is_ideal(L, S)
        total = total.sum(S)
    assert total.dim == sum(S.dim for S in summands) == L.n
    return len(summands), complete


def test_decompose_l_3_1():
    L = l_3_1()
    assert bh.decompose(L) == ([span(L, (0, 1)), span(L, (1, 0))], True)
    assert decomposed(L) == (2, True)


def test_decompose_l_1_10_none():
    assert decomposed(l_1_10()) == (1, True)


@pytest.mark.parametrize("alpha, expected", [
    (IDENT, None),
    # alpha has eigenlines span{(1,2)} (eigenvalue 2) and span{(0,1)} (3)
    ([[2, 0], [-2, 3]], [(1, 2), (0, 1)]),
], ids=["identity", "eigenlines"])
def test_decompose_abelian(alpha, expected):
    L = BiHomLieAlgebra.from_brackets(2, {}, alpha, IDENT)
    assert decomposed(L) == (2, True)
    summands, _ = bh.decompose(L)
    if expected is None:
        assert set(summands) == {span(L, (1, 0)), span(L, (0, 1))}
    else:
        assert set(summands) == {span(L, v) for v in expected}


def _one_dim(rng):
    """A random 1-dim BiHom-Lie algebra over Q: abelian with any twists, or
    [e,e] = c with twists in {0, 1} and one of them 0."""
    if rng.random() < 0.5:
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(2))
        return BiHomLieAlgebra.from_brackets(1, {}, [[a]], [[b]])
    a, b = rng.choice([(0, 0), (0, 1), (1, 0)])
    return BiHomLieAlgebra.from_brackets(1, {(1, 1, 1): rng.randint(1, 5)},
                                         [[a]], [[b]])


def _invertible(rng, n, entries):
    while True:
        f = Matrix([[rng.choice(entries) for _ in range(n)]
                    for _ in range(n)], QQ)
        if bh.rank(f) == n:
            return f


def test_decompose_transported_direct_sums():
    rng = random.Random(2024)
    for _ in range(50):
        L = bh.direct_sum(_one_dim(rng), _one_dim(rng))
        M = bh.transport(L, _invertible(rng, 2, range(-3, 4)))
        assert M.check_all().passed
        assert decomposed(M) == (2, True)


def test_decompose_split_without_ideal_pair():
    # abelian, alpha a Jordan block: span{e1} is the only twist-invariant
    # line, so there is no ideal pair, although L^2 = 0 and Z(L) = L split.
    # The two-sided centroid is span{I, N}, N nilpotent: a local algebra
    # whose trace form has rank 1, so L is one certified summand
    L = BiHomLieAlgebra.from_brackets(2, {}, [[1, 1], [0, 1]], IDENT)
    assert L.check_all().passed
    assert decomposed(L) == (1, True)
    assert decomposed(bh.reduce_mod_p(L, 3)) == (1, True)


@pytest.mark.parametrize("field, complete", [
    (QQ, True), (GF(3), True), (GF(7), True),
    # 101^3 candidates pass MAX_SEARCH_CANDIDATES, so the idempotent scan
    # is refused; ROADMAP item 21's trace-form test for p > n is expected
    # to certify this case and flip it to True
    (GF(101), False),
], ids=["Q", "F3", "F7", "F101"])
def test_decompose_local_centroid_of_dimension_three(field, complete):
    # abelian with alpha = beta = J, the nilpotent 3x3 Jordan block: the
    # two-sided centroid is {aI + bJ + cJ^2}, a local algebra of dimension
    # 3, certified over Q by its trace form of rank 1 and over F_p by a
    # scan of its p^3 members for an idempotent other than 0 and 1
    J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    L = BiHomLieAlgebra.from_brackets(3, {}, J, J, field)
    assert L.check_all().passed
    assert bh.centroid(L).intersection(
        bh.derivation_space(L, 1, 0, 1)).dim == 3
    assert decomposed(L) == (1, complete)


def test_decompose_l_1_9():
    assert decomposed(l_1_9()) == (2, True)


def test_decompose_irrational_spectrum_incomplete():
    # the two-sided centroid is span{I, alpha} = Q(sqrt 2): no rational
    # eigenvalue splits L, and the trace form has rank 2, not 1
    L = BiHomLieAlgebra.from_brackets(2, {}, [[0, 2], [1, 0]], IDENT)
    assert L.check_all().passed
    assert decomposed(L) == (1, False)


def test_decompose_heisenberg_one_summand():
    assert decomposed(heisenberg(1, 4, 9, [2], [3])) == (1, True)


def test_decompose_over_f3():
    F3 = GF(3)
    L = BiHomLieAlgebra.from_brackets(2, {(1, 1, 1): 1, (2, 2, 2): 1},
                                      [[1, 0], [0, 0]], [[0, 0], [0, 1]],
                                      field=F3)
    assert decomposed(L) == (2, True)


@pytest.mark.parametrize("p", [100003, 10007])
def test_decompose_certifies_scalar_centroids_over_large_primes(p):
    # a piece whose two-sided centroid is the scalars has no idempotent
    # but 0 and 1, so it is certified without the residue scan, which is
    # refused past 10^5 candidates
    F = GF(p)
    assert decomposed(BiHomLieAlgebra([[[0]]], [[2]], [[3]], F)) == (1, True)
    L = bh.direct_sum(heisenberg(1, 6, 10, [2], [3]),
                      heisenberg(1, 35, 77, [5], [7]))
    summands, complete = bh.decompose(bh.reduce_mod_p(L, p))
    assert [S.dim for S in summands] == [3, 3] and complete


def test_decompose_eigenvalue_candidates_are_bounded():
    assert _eigenvalues(Matrix([[2, 0], [0, Fraction(1, 3)]], QQ)) == [
        Fraction(1, 3), 2]
    assert _eigenvalues(Matrix([[0, 2], [1, 0]], QQ)) == []
    assert _eigenvalues(Matrix([[2, 0], [0, 3]], GF(5))) == [GF(5)(2),
                                                             GF(5)(3)]
    # t^2 - 648 t + 317 * 331: 317 * 331 > 10^5, so no divisor is tried
    assert _eigenvalues(Matrix([[317, 0], [0, 331]], QQ)) == []
    assert _eigenvalues(Matrix([[0, 0], [0, 331]], QQ)) == [0, 331]


# the pinned instances that split into two lines
SPLIT_PINNED = {"L_3^1": 3, "L_1^2": 3, "L_1^5": 3, "L_1^9": 1}


def _pinned():
    return [(fid, bh.build(fid, params)) for fid in bh.family_ids()
            for params in bh.pinned_samples(fid)]


def _mod_3(L):
    try:
        return bh.reduce_mod_p(L, 3)
    except bh.ReductionError:
        return None


def test_decompose_pinned_instances():
    pinned = _pinned()
    assert len(pinned) == 69
    split = {}
    for fid, L in pinned:
        count, complete = decomposed(L)
        assert complete, fid
        if count == 2:
            split[fid] = split.get(fid, 0) + 1
        else:
            assert count == 1, fid
    assert split == SPLIT_PINNED


def test_decompose_pinned_instances_mod_3():
    # over F_3 a 2-dim algebra splits exactly when two of the 4 lines of
    # F_3^2 are ideals; that scan shares no code with decompose
    F3 = GF(3)
    lines = [VectorSubspace(2, [v], F3)
             for v in ((1, 0), (0, 1), (1, 1), (1, 2))]
    reduced = [M for M in map(_mod_3, (L for _, L in _pinned())) if M]
    assert len(reduced) == 68
    for M in reduced:
        ideal_lines = sum(bh.is_ideal(M, S) for S in lines)
        assert decomposed(M) == (2 if ideal_lines >= 2 else 1, True)


def _block_sums():
    """Seeded block direct sums of pinned instances, with the indices of
    their parts: two-fold (n = 4), three-fold (n = 6), and two-fold ones
    transported along maps with entries in {-1, 0, 1}."""
    pinned = [L for _, L in _pinned()]
    rng = random.Random(16)
    sums = []
    for size, count in ((2, 12), (3, 6), (2, 6)):
        for _ in range(count):
            parts = [rng.randrange(len(pinned)) for _ in range(size)]
            L = pinned[parts[0]]
            for i in parts[1:]:
                L = bh.direct_sum(L, pinned[i])
            sums.append((L, parts))
    for i in range(-6, 0):
        L, parts = sums[i]
        sums[i] = bh.transport(L, _invertible(rng, L.n, (-1, 0, 1))), parts
    return pinned, sums


def test_decompose_block_direct_sums():
    # Krull-Schmidt: the summand count of a sum is the sum of the counts
    pinned, sums = _block_sums()
    counts = [decomposed(L) for L in pinned]
    for L, parts in sums:
        assert decomposed(L) == (sum(counts[i][0] for i in parts), True)


def test_decompose_block_direct_sums_mod_3():
    pinned, sums = _block_sums()
    counts = [decomposed(M) if M else None for M in map(_mod_3, pinned)]
    checked = 0
    for L, parts in sums:
        M = _mod_3(L)
        if M is None or any(counts[i] is None for i in parts):
            continue
        assert decomposed(M) == (sum(counts[i][0] for i in parts), True)
        checked += 1
    assert checked >= 20


# --- F_3 oracle over every subspace ----------------------------------------

def _f3_span(n, vectors):
    """The elements of the F_3-span of vectors, closed up one vector at a
    time: {s + c v} over the elements s found so far and c in F_3."""
    F3 = GF(3)
    elements = {(F3(0),) * n}
    for v in vectors:
        elements = {tuple(a + c * b for a, b in zip(s, v))
                    for s in elements for c in map(F3, range(3))}
    return frozenset(elements)


def _f3_oracle_cases():
    """(algebra, F_3^n as a list, every subspace as its set of elements)
    for the mod-3 reductions of the pinned instances and one 3-dim twisted
    Heisenberg algebra mod 3."""
    cases = [M for M in map(_mod_3, (L for _, L in _pinned())) if M]
    cases.append(bh.reduce_mod_p(heisenberg(1, -1, -2, [2], [2]), 3))
    out = []
    for M in cases:
        space = sorted(_f3_span(M.n, Matrix.identity(M.n, M.field).entries),
                       key=lambda v: [x.value for x in v])
        subspaces = {_f3_span(M.n, [])}
        frontier = list(subspaces)
        while frontier:
            grown = {_f3_span(M.n, [*S, v]) for S in frontier
                     for v in space if v not in S}
            frontier = list(grown - subspaces)
            subspaces |= grown
        out.append((M, space, subspaces))
    return out


def test_structure_matches_f3_oracle_on_every_subspace():
    # definition level: membership in enumerated element sets only
    cases = _f3_oracle_cases()
    assert len(cases) == 69
    assert [len(subs) for _, _, subs in cases] == [6] * 68 + [28]
    verdicts = set()
    for M, space, subspaces in cases:
        br = {(x, y): M.bracket(x, y) for x in space for y in space}
        zero = space[0]
        center = {x for x in space
                  if all(br[x, y] == br[y, x] == zero for y in space)}
        assert _f3_span(M.n, bh.center(M, two_sided=True).basis) == center
        for elements in subspaces:
            S = VectorSubspace(M.n, elements, M.field)
            ideal = all(M.alpha.apply(s) in elements
                        and M.beta.apply(s) in elements
                        and all(br[s, x] in elements and br[x, s] in elements
                                for x in space) for s in elements)
            assert bh.is_ideal(M, S) == ideal, (M, elements)
            verdicts.add(ideal)
            cz = {x for x in space if all(br[x, s] == zero for s in elements)}
            assert _f3_span(M.n, bh.centralizer(M, S).basis) == cz
    assert verdicts == {True, False}


def test_is_ideal_is_one_rank(monkeypatch):
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or rank(m))
    H = heisenberg(2, 4, 9, [2, 3], [3, 5])
    for S, expected in ((bh.center(H), True),
                        (span(H, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)), False),
                        (bh.derived_subalgebra(H), True)):
        del calls[:]
        assert bh.is_ideal(H, S) == expected
        assert len(calls) == 1
