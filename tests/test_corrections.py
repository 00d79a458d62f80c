"""Dual-oracle checks for golden-data cells that carry errata records.

Each corrected cell is confirmed two independent ways: an exact nullspace
solve over the rationals, and an exhaustive membership count over F_3
(the count must be 3^dim). The F_3 instances are rebuilt from the family
templates so the reduction shares no code path with the rational solve.
"""

from fractions import Fraction

import pytest

from bihomlie import catalog
from bihomlie.algebra import BiHomLieAlgebra
from bihomlie.catalog import build, eval_expr, verify_family
from bihomlie.derivations import count_members_fp, derivation_space
from bihomlie.fields import GF
from bihomlie.linalg import Matrix
from bihomlie.structure import (is_characteristically_nilpotent,
                                is_small_centroid)


def build_fp(family_id, params, p):
    fam = catalog.get_family(family_id)
    env = catalog.coerce_params(family_id, params)
    entries = {}
    for rec in fam.brackets:
        value = eval_expr(rec["value"], env)
        if value != 0:
            entries[(rec["i"], rec["j"], rec["k"])] = value
    field = GF(p)
    alpha = Matrix([[eval_expr(c, env) for c in row] for row in fam.alpha],
                   field)
    beta = Matrix([[eval_expr(c, env) for c in row] for row in fam.beta],
                  field)
    return BiHomLieAlgebra.from_brackets(2, entries, alpha, beta, field)


def E(i, j):
    rows = [[0, 0], [0, 0]]
    rows[i][j] = 1
    return Matrix(rows)


# --- single self-bracket family: centroid is the full diagonal -------------

def test_single_bracket_family_centroid_is_two_dimensional():
    # e2 never appears in a bracket, so its scaling slot is unconstrained
    L = build("L_3^1", {"b": 2, "y": 3})
    cen = derivation_space(L, 1, 1, 0, 0, 0)
    assert cen.dim == 2
    assert cen.space.contains(E(0, 0))
    assert cen.space.contains(E(1, 1))


def test_single_bracket_family_centroid_count_mod_3():
    Lp = build_fp("L_3^1", {"b": 2, "y": 2}, 3)
    assert count_members_fp(Lp, 1, 1, 0, 0, 0) == 9
    assert count_members_fp(Lp, 1, 1, 1, 0, 0) == 3


# --- rank-one projections family: four twist regimes -----------------------

def test_projection_twists_centroid_dims_by_regime():
    L = build("L_1^9", {})
    dims = {(k, l): derivation_space(L, 1, 1, 0, k, l).dim
            for k in range(3) for l in range(3)}
    for (k, l), dim in dims.items():
        if k == 0 and l == 0:
            assert dim == 2
        elif k == 0 or l == 0:
            assert dim == 1
        else:
            assert dim == 0


def test_projection_twists_derivations_vanish_everywhere():
    L = build("L_1^9", {})
    for k in range(3):
        for l in range(3):
            assert derivation_space(L, 1, 1, 1, k, l).dim == 0


def test_projection_twists_counts_mod_3():
    Lp = build_fp("L_1^9", {}, 3)
    assert count_members_fp(Lp, 1, 1, 0, 0, 0) == 9
    assert count_members_fp(Lp, 1, 1, 0, 0, 1) == 3
    assert count_members_fp(Lp, 1, 1, 0, 1, 0) == 3
    assert count_members_fp(Lp, 1, 1, 0, 1, 1) == 1
    for k in range(2):
        for l in range(2):
            assert count_members_fp(Lp, 1, 1, 1, k, l) == 1


# --- chained self-bracket family: derivation cells are swapped --------------

def test_chained_bracket_family_derivations_by_regime():
    # untwisted cell is zero; the twisted cells free the second diagonal slot
    L = build("L_1^6", {"b": 2})
    assert derivation_space(L, 1, 1, 1, 0, 0).dim == 0
    for k in (1, 2):
        der = derivation_space(L, 1, 1, 1, k, 0)
        assert der.dim == 1
        assert der.space.contains(E(1, 1))


def test_chained_bracket_family_counts_mod_3():
    Lp = build_fp("L_1^6", {"b": 2}, 3)
    assert count_members_fp(Lp, 1, 1, 1, 0, 0) == 1
    assert count_members_fp(Lp, 1, 1, 1, 1, 0) == 3


# --- strictly-upper beta family: untwisted row repeats along the k axis -----

def test_nilpotent_beta_family_row_content_stable_in_k():
    L = build("L_1^14", {"z": 2})
    for k in (0, 1, 2):
        cen = derivation_space(L, 1, 1, 0, k, 0)
        der = derivation_space(L, 1, 1, 1, k, 0)
        assert cen.dim == 2
        assert cen.space.contains(Matrix([[1, 0], [0, 1]]))
        assert cen.space.contains(E(0, 1))
        assert der.dim == 1
        assert der.space.contains(E(0, 1))


def test_nilpotent_beta_family_counts_mod_3():
    Lp = build_fp("L_1^14", {"z": 2}, 3)
    assert count_members_fp(Lp, 1, 1, 0, 1, 0) == 9
    assert count_members_fp(Lp, 1, 1, 1, 1, 0) == 3


def test_smallness_flag_consistent_across_shared_profile():
    # four families with identical centroid/derivation/center profiles must
    # carry the same smallness verdict
    same_profile = [("L_3^11", {}), ("L_3^13", {"z": 2}),
                    ("L_1^16", {"z": 2}), ("L_1^14", {"z": 2})]
    for fid, params in same_profile:
        assert is_small_centroid(build(fid, params)), fid


# --- single cross-bracket family: twisted guard tracks b, not x -------------

def test_cross_bracket_family_twisted_cells_track_first_parameter():
    # the solved space at k >= 1 depends on b^k alone; x is inert there.
    # the shipped guards split on b^k (an errata record holds the original
    # split on x), and the pinned samples still keep clear of b^k = 1.
    L = build("L_1^7", {"b": 2, "x": 1})
    der = derivation_space(L, 1, 1, 1, 1, 0)
    assert der.dim == 1
    assert der.space.contains(E(1, 1))
    assert not der.space.contains(E(0, 0))

    L = build("L_1^7", {"b": 1, "x": 2})
    der = derivation_space(L, 1, 1, 1, 1, 0)
    assert der.dim == 2

    for params in catalog.pinned_samples("L_1^7"):
        assert params["x"] != 1
        assert params["b"] not in (1, -1)


def test_cross_bracket_family_counts_mod_3():
    Lp = build_fp("L_1^7", {"b": 2, "x": 2}, 3)
    # b = 2 = -1 mod 3, so b^2 = 1 frees the first diagonal slot at k = 2
    assert count_members_fp(Lp, 1, 1, 1, 1, 0) == 3
    assert count_members_fp(Lp, 1, 1, 1, 2, 0) == 9


@pytest.mark.parametrize("b, x", [(1, 2), (2, 1), (-1, Fraction(1, 2))])
def test_cross_bracket_family_rows_follow_b_power(b, x):
    # for k >= 1, m = diag(0, b^k) and the pair (e2, e1) gives d1 = b^k d1
    params = {"b": b, "x": x}
    assert all(v.ok for v in verify_family("L_1^7", params))
    L = build("L_1^7", params)
    for k in (1, 2):
        der = derivation_space(L, 1, 1, 1, k, 0)
        assert der.space.contains(E(1, 1))
        assert der.space.contains(E(0, 0)) == (b ** k == 1)


def test_cross_bracket_family_b_power_counts_mod_3():
    # (b, x) = (1, 2), (2, 1) and (-1, 1/2) reduce to b = 1, 2 and 2
    assert count_members_fp(build_fp("L_1^7", {"b": 1, "x": 2}, 3),
                            1, 1, 1, 1, 0) == 9
    assert count_members_fp(build_fp("L_1^7", {"b": 2, "x": 1}, 3),
                            1, 1, 1, 1, 0) == 3
    Lp = build_fp("L_1^7", {"b": -1, "x": Fraction(1, 2)}, 3)
    assert count_members_fp(Lp, 1, 1, 1, 1, 0) == 3
    assert count_members_fp(Lp, 1, 1, 1, 2, 0) == 9


# --- twisted non-abelian family: identity twists at a = x = 1 ---------------

def test_twisted_nonabelian_family_identity_point():
    # a = x = 1 is the non-abelian Lie algebra [e1,e2] = e1: its derivations
    # are the inner ones, ad(e2) = -E11 and ad(e1) = E12, at every (k, l)
    assert all(v.ok for v in verify_family("L_1^8", {"a": 1, "x": 1}))
    L = build("L_1^8", {"a": 1, "x": 1})
    for k, l in ((0, 0), (1, 0), (1, 1)):
        der = derivation_space(L, 1, 1, 1, k, l)
        assert der.dim == 2
        assert der.space.contains(E(0, 0)) and der.space.contains(E(0, 1))
        assert derivation_space(L, 1, 1, 0, k, l).dim == 1
    assert is_small_centroid(L)
    assert not is_characteristically_nilpotent(L)


def test_twisted_nonabelian_family_identity_point_counts_mod_3():
    Lp = build_fp("L_1^8", {"a": 1, "x": 1}, 3)
    assert count_members_fp(Lp, 1, 1, 1, 0, 0) == 9
    assert count_members_fp(Lp, 1, 1, 0, 0, 0) == 3


def test_field_reduction_of_fractional_parameters():
    # 1/2 reduces to 2 mod 3; the reduced instance matches the integer one
    La = build_fp("L_1^2", {"b": Fraction(1, 2), "y": 2}, 3)
    Lb = build_fp("L_1^2", {"b": 2, "y": 2}, 3)
    assert La.alpha == Lb.alpha
    assert count_members_fp(La, 1, 1, 0, 0, 0) == \
        count_members_fp(Lb, 1, 1, 0, 0, 0)
