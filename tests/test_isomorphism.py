import random
from fractions import Fraction
from itertools import product as cartesian

import pytest

from bihomlie.algebra import BiHomLieAlgebra, heisenberg
from bihomlie.catalog import build, family_ids, pinned_samples
from bihomlie.derivations import intertwiners
from bihomlie.fields import GF, QQ, FieldMismatchError, ReductionError
from bihomlie.isomorphism import (brute_force_iso, compare_fingerprints,
                                  fingerprint, reduce_mod_p,
                                  smallest_admissible_prime, transport,
                                  verify_isomorphism)
from bihomlie.linalg import Matrix, invert, is_invertible


def abelian(n, field=QQ):
    ident = Matrix.identity(n, field)
    return BiHomLieAlgebra.from_brackets(n, {}, ident, ident, field)


# --- witness verification --------------------------------------------------

def test_identity_is_a_witness():
    for L in (build("L_1^10", {}), heisenberg(1, 2, 3, [5], [7])):
        assert verify_isomorphism(L, L, Matrix.identity(L.n, QQ))


def test_diagonal_rescaling_constrained_by_brackets():
    # [e1,e2] = e1 forces the second basis vector to keep scale 1
    L = build("L_1^1", {"z1": 0, "b": 2, "y": 3})
    assert verify_isomorphism(L, L, [[1, 0], [0, 1]])
    assert not verify_isomorphism(L, L, [[1, 0], [0, 2]])


def test_swap_fails_between_single_and_chained_bracket_families():
    La = build("L_2^1", {"b": 2, "y": 1})
    Lb = build("L_3^1", {"b": 2, "y": 1})
    assert not verify_isomorphism(La, Lb, [[0, 1], [1, 0]])


def test_singular_map_is_never_a_witness():
    L = build("L_1^10", {})
    assert not verify_isomorphism(L, L, [[1, 1], [1, 1]])


def test_witness_preconditions():
    L2 = build("L_1^10", {})
    L3 = heisenberg(1, 2, 3, [5], [7])
    with pytest.raises(ValueError):
        verify_isomorphism(L2, L3, Matrix.identity(2, QQ))
    with pytest.raises(ValueError):
        verify_isomorphism(L2, L2, Matrix.identity(3, QQ))
    with pytest.raises(ValueError):
        verify_isomorphism(L2, L2, Matrix.identity(2, GF(3)))


# --- transport -------------------------------------------------------------

def test_transport_produces_verified_isomorphic_copy():
    f = Matrix([[1, 2], [1, 3]], QQ)
    for fid, params in (("L_1^10", {}), ("L_1^1", {"z1": 2, "b": 3, "y": 2}),
                        ("L_1^17", {"z": 2})):
        L = build(fid, params)
        moved = transport(L, f)
        assert verify_isomorphism(L, moved, f)
        assert moved.check_all().passed


def test_transport_by_identity_is_identity():
    L = build("L_1^12", {})
    assert transport(L, Matrix.identity(2, QQ)) == L


def test_transport_round_trip():
    L = heisenberg(1, 2, 3, [5], [7])
    f = Matrix([[1, 0, 1], [0, 1, 2], [0, 0, 1]], QQ)
    there = transport(L, f)
    back = transport(there, invert(f))
    assert back == L


# --- catalog families that are one isomorphism class ------------------------

def _catalog_isomorphisms(seed):
    """(A, B, f) for the two redundancies of the 2-dim catalog (README):
    L_1^11(z) is L_2^11 via f = [[1/z, 1/z], [0, 1]], and L_1^15(t) is
    L_1^15(t') via f = [[1, t - t'], [0, 1]], at fixed and seeded values,
    t1 = 0 among them."""
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    zs = [2, 3, Fraction(1, 2), Fraction(-5, 7)]
    zs += [z for z in (draw() for _ in range(6)) if z]
    pairs = [(2, 3), (2, Fraction(1, 2)), (-1, Fraction(7, 3)), (2, 0),
             (0, 5)] + [(draw(), draw()) for _ in range(5)]
    for z in zs:
        yield (build("L_1^11", {"z": z}), build("L_2^11", {}),
               Matrix([[1 / Fraction(z), 1 / Fraction(z)], [0, 1]], QQ))
    for t, u in pairs:
        yield (build("L_1^15", {"t1": t}), build("L_1^15", {"t1": u}),
               Matrix([[1, t - u], [0, 1]], QQ))


def test_catalog_lists_isomorphic_algebras_as_distinct():
    cases = list(_catalog_isomorphisms(seed=27))
    assert len(cases) == 19
    assert any(B == build("L_1^15", {"t1": 0}) for _, B, _ in cases)
    for A, B, f in cases:
        assert verify_isomorphism(A, B, f), (A, B, f)
        assert transport(A, f) == B
    # the witnesses are not the identity: L_1^11 and L_2^11 differ as
    # tables, and so do L_1^15 at different t1
    assert build("L_1^11", {"z": 1}) != build("L_2^11", {})
    assert build("L_1^15", {"t1": 2}) != build("L_1^15", {"t1": 3})


# --- fingerprints ----------------------------------------------------------

def test_fingerprint_of_abelian_plane():
    fp = fingerprint(abelian(2))
    assert fp.dim == 2
    assert fp.dim_center == 2
    assert fp.dim_bracket_image == 0
    assert set(fp.der_dims.values()) == {4}


def test_fingerprint_of_rigid_regular_family():
    fp = fingerprint(build("L_1^10", {}))
    assert fp.dim_center == 0
    assert fp.dim_bracket_image == 1
    assert fp.der_dims[(1, 1, 1, 0, 0)] == 2
    assert fp.char_poly_alpha == (1, -2, 1)


def test_fingerprint_invariant_under_transport():
    f = Matrix([[2, 5], [1, 3]], QQ)
    for fid, params in (("L_1^10", {}), ("L_3^1", {"b": 2, "y": 3}),
                        ("L_1^13", {"z1": -1, "t1": 2, "z": 2})):
        L = build(fid, params)
        assert fingerprint(L) == fingerprint(transport(L, f))


def _diagonal_char_poly(diag):
    """Coefficients of prod (t - d), highest degree first."""
    poly = [Fraction(1)]
    for d in diag:
        poly = [a - d * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


def test_fingerprint_closed_form_at_n13():
    # past the reach of any F_p census: with distinct b_i, y_i in 2..13 and
    # a, x < 0 every twist eigenvalue is simple, so the commutant is the
    # diagonal d = diag(d_1..d_6, e_1..e_6, f), and at (1,1,1), (k, l) =
    # (1, 1) each pair X_i, Y_i gives the one equation f = d_i v_i + e_i u_i,
    # u_i and v_i the eigenvalues of alpha beta at X_i and Y_i: 13 - 6 = 7
    rng = random.Random(13)
    b, y = rng.sample(range(2, 14), 6), rng.sample(range(2, 14), 6)
    a, x = -rng.choice((2, 3, 5, 7)), -rng.choice((2, 3, 5, 7))
    fp = fingerprint(heisenberg(6, a, x, b, y))
    assert (fp.dim, fp.rank_alpha, fp.rank_beta) == (13, 13, 13)
    assert fp.dim_bracket_image == fp.dim_center == 1
    assert fp.lower_central_dims == fp.derived_dims == (13, 1, 0)
    assert fp.char_poly_alpha == _diagonal_char_poly(
        [Fraction(v) for v in b] + [Fraction(a, v) for v in b] + [a])
    assert fp.char_poly_beta == _diagonal_char_poly(
        [Fraction(v) for v in y] + [Fraction(x, v) for v in y] + [x])
    assert fp.der_dims[(1, 1, 1, 1, 1)] == 7


def test_fingerprint_comparison_wording():
    fa = fingerprint(build("L_2^1", {"b": 2, "y": 1}))
    fb = fingerprint(build("L_3^1", {"b": 2, "y": 1}))
    assert compare_fingerprints(fa, fb) == "distinct"
    assert compare_fingerprints(fa, fa) == "inconclusive"


# --- mod-p reduction -------------------------------------------------------

def test_reduce_mod_p_of_integer_data():
    Lp = reduce_mod_p(build("L_2^1", {"b": 2, "y": 1}), 3)
    assert Lp.field.characteristic == 3
    assert Lp.check_all().passed


def test_reduce_mod_p_rejects_bad_denominator():
    L = build("L_1^8", {"a": 2, "x": 3})
    with pytest.raises(ReductionError) as err:
        reduce_mod_p(L, 2)
    assert "smallest admissible prime is 3" in str(err.value)
    assert smallest_admissible_prime(L) == 3


def test_smallest_admissible_prime_for_integer_data():
    assert smallest_admissible_prime(build("L_1^10", {})) == 2


def test_reduce_mod_p_refuses_finite_field_input():
    Lp = reduce_mod_p(build("L_1^10", {}), 3)
    with pytest.raises(ValueError):
        reduce_mod_p(Lp, 3)


def test_smallest_admissible_prime_refuses_finite_field_input():
    Lp = reduce_mod_p(build("L_1^8", {"a": 2, "x": 3}), 5)
    with pytest.raises(ValueError, match="already over a finite field"):
        smallest_admissible_prime(Lp)


def test_intertwiners_refuse_a_different_dimension():
    # the 3 x 3 maps would otherwise read only L2's leading 3 x 3 block
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 5"):
        intertwiners(heisenberg(1, 2, 3, [5], [7]),
                     heisenberg(2, 2, 3, [5, 2], [7, 3]))


def test_intertwiners_refuse_a_different_field():
    L = heisenberg(1, 2, 3, [5], [2])
    for A, B in ((L, reduce_mod_p(L, 7)), (reduce_mod_p(L, 7), L),
                 (reduce_mod_p(L, 11), reduce_mod_p(L, 13))):
        with pytest.raises(FieldMismatchError):
            intertwiners(A, B)


def test_witness_check_refuses_a_different_field():
    # the same refusal as intertwiners, from the same check
    L = heisenberg(1, 2, 3, [5], [2])
    with pytest.raises(FieldMismatchError,
                       match="the algebras live over different fields"):
        verify_isomorphism(L, reduce_mod_p(L, 7), Matrix.identity(3, QQ))


# --- exhaustive search -----------------------------------------------------

def test_general_linear_group_size_mod_3():
    invertible = [digits for digits in cartesian(range(3), repeat=4)
                  if is_invertible(Matrix([digits[:2], digits[2:]], GF(3)))]
    assert len(invertible) == 48


def test_search_finds_self_witness():
    L = build("L_1^10", {})
    witness = brute_force_iso(L, L, 3)
    assert witness is not None
    Lp = reduce_mod_p(L, 3)
    assert verify_isomorphism(Lp, Lp, witness)


def test_search_separates_single_and_chained_bracket_families():
    La = build("L_2^1", {"b": 2, "y": 1})
    Lb = build("L_3^1", {"b": 2, "y": 1})
    assert brute_force_iso(La, Lb, 3) is None


def test_search_recovers_transported_structure():
    Lp = reduce_mod_p(build("L_1^10", {}), 3)
    f = Matrix([[1, 1], [0, 1]], GF(3))
    moved = transport(Lp, f)
    witness = brute_force_iso(Lp, moved, 3)
    assert witness is not None
    assert verify_isomorphism(Lp, moved, witness)


def test_search_witness_is_lexicographically_first():
    # the abelian plane admits every invertible map, so the search must
    # return the first invertible matrix in entry order
    witness = brute_force_iso(abelian(2), abelian(2), 3)
    assert witness.entries == ((0, 1), (1, 0))


def test_search_dimension_limit():
    with pytest.raises(ValueError):
        brute_force_iso(abelian(4), abelian(4), 3)


def test_search_mixed_field_inputs():
    L = build("L_1^10", {})
    Lp = reduce_mod_p(L, 3)
    witness = brute_force_iso(L, Lp, 3)
    assert witness is not None
    with pytest.raises(ValueError):
        brute_force_iso(L, Lp, 5)


def test_cross_family_pairs_separate_mod_3():
    pairs = [
        (("L_2^1", {"b": 2, "y": 1}), ("L_3^1", {"b": 2, "y": 1})),
        (("L_1^11", {"z": 2}), ("L_3^11", {})),
        (("L_1^12", {}), ("L_1^10", {})),
    ]
    for (fa, pa), (fb, pb) in pairs:
        La, Lb = build(fa, pa), build(fb, pb)
        separated = (compare_fingerprints(fingerprint(La), fingerprint(Lb))
                     == "distinct") or brute_force_iso(La, Lb, 3) is None
        assert separated, (fa, fb)


def test_search_can_surface_rational_witnesses():
    # not every pair of catalog families separates: these two really are
    # isomorphic, and the mod-3 witness lifts to an exact rational one
    La = build("L_1^11", {"z": 2})
    Lb = build("L_2^11", {})
    assert brute_force_iso(La, Lb, 3) is not None
    lift = Matrix([[Fraction(1, 2), Fraction(1, 2)], [0, 1]], QQ)
    assert verify_isomorphism(La, Lb, lift)


# --- the search against the full GL_n(F_p) scan ------------------------------

def _full_scan(L, L2, p):
    """First witness among all n x n matrices over F_p in entry order: the
    scan the search ran before it moved into the intertwiner space."""
    n, field = L.n, GF(p)
    for digits in cartesian(range(p), repeat=n * n):
        f = Matrix([digits[r * n:(r + 1) * n] for r in range(n)], field)
        if is_invertible(f) and verify_isomorphism(L, L2, f):
            return f
    return None


def _random_invertible(rng, n, p):
    while True:
        f = Matrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                   GF(p))
        if is_invertible(f):
            return f


def _benchmark_witness_pair(seed):
    """The n = 3 witness pair of the benchmark's fp3-exhaustive workload:
    a twisted Heisenberg algebra mod 3 and its transport by a seeded map
    whose first row is (0, 0, 1), drawn in the benchmark's order."""
    rng = random.Random(seed)
    a, x = rng.choice((-2, -5, -8)), rng.choice((-1, -2, -4, -5))
    b, y = [rng.choice((4, 7, 10))], [rng.choice((2, 4, 5, 7))]
    for choices in ((-1, -4, -7), (-1, -2, -4, -5), (2, 4, 5, 7),
                    (2, 4, 5, 7)):
        rng.choice(choices)      # the parameters of the search pair's B
    while True:
        f = Matrix([[0, 0, 1]] + [[rng.randrange(3) for _ in range(3)]
                                  for _ in range(2)], GF(3))
        if is_invertible(f):
            break
    A = reduce_mod_p(heisenberg(1, a, x, b, y), 3)
    return A, transport(A, f)


def test_search_matches_full_scan():
    rng = random.Random(12)
    pairs = []
    for fid in family_ids():
        for params in pinned_samples(fid):
            for p in (2, 3):
                try:
                    Lp = reduce_mod_p(build(fid, params), p)
                except ReductionError:
                    continue
                moved = transport(Lp, _random_invertible(rng, 2, p))
                pairs += [(Lp, Lp, p), (Lp, moved, p)]
    pairs += [_benchmark_witness_pair(seed) + (3,) for seed in (7, 11)]
    assert len(pairs) == 2 * (41 + 68) + 2
    for L, L2, p in pairs:
        witness = brute_force_iso(L, L2, p)
        assert witness == _full_scan(L, L2, p), (L, L2, p)
        assert witness is not None


def test_search_finds_witnesses_at_dimension_5():
    # transported twisted Heisenberg pairs with m = 2, out of reach of the
    # 5^25 and 3^25 full scans: intertwiner dimension 5 mod 5, 7 mod 3
    rng = random.Random(5)
    for p, params, dim in ((5, (2, 3, [2, 3], [4, 2]), 5),
                           (3, (1, 2, [1, 2], [1, 1]), 7)):
        Lp = reduce_mod_p(heisenberg(2, *params), p)
        moved = transport(Lp, _random_invertible(rng, 5, p))
        assert intertwiners(Lp, moved).dim == dim
        witness = brute_force_iso(Lp, moved, p)
        assert witness is not None
        assert verify_isomorphism(Lp, moved, witness)
