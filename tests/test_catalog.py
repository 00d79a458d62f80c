from fractions import Fraction

import pytest

from bihomlie import catalog
from bihomlie.catalog import (
    CatalogError,
    InadmissibleParameterError,
    build,
    eval_expr,
    expected_rows,
    family_ids,
    guard_matches,
    pattern_space,
    pinned_samples,
    verify_entry,
    verify_family,
)
from bihomlie.derivations import derivation_space
from bihomlie.fields import GF, QQ, ReductionError
from bihomlie.linalg import Matrix


def F(x):
    return Fraction(x)


# --- expression grammar ----------------------------------------------------

def test_eval_expr_precedence_and_powers():
    env = {"a": F(2), "x": F(3), "k": F(1), "l": F(2), "c1": F(6)}
    assert eval_expr("c1/(a^k*x^l)", env) == Fraction(6, 18)
    assert eval_expr("a^k*x^l", env) == 18
    assert eval_expr("-x/a", env) == Fraction(-3, 2)
    assert eval_expr("1-x", env) == -2
    assert eval_expr("(l*x+k)*c1", env) == 42
    assert eval_expr("2^l", env) == 4


def test_eval_expr_rejects_unknown_symbol():
    with pytest.raises(CatalogError):
        eval_expr("q+1", {"a": F(1)})


def test_eval_expr_rejects_fractional_exponent():
    with pytest.raises(CatalogError):
        eval_expr("x^y", {"x": F(2), "y": Fraction(1, 2)})


def test_eval_expr_rejects_division_by_zero():
    with pytest.raises(CatalogError):
        eval_expr("1/x", {"x": F(0)})


def _catalog_expressions():
    """Every expression string of the shipped data file."""
    out = set()
    for fam in catalog.load_catalog().values():
        out.update(rec["value"] for rec in fam.brackets)
        shapes = [fam.alpha, fam.beta]
        for row in fam.rows:
            shapes += [row.centroid, row.der]
            for clause in row.guard:
                out.update((clause["lhs"], clause["rhs"]))
        out.update(cell for shape in shapes for r in shape for cell in r)
    return sorted(out)


def _outcome(src, env):
    try:
        return eval_expr(src, env)
    except CatalogError as err:
        return str(err)


def test_parse_memo_keeps_structure_not_values():
    strings = _catalog_expressions()
    assert len(strings) == 26
    envs = []
    for fid in family_ids():
        for params in pinned_samples(fid):
            for k in range(3):
                for l in range(3):
                    env = dict(params, k=F(k), l=F(l))
                    env.update((s, F(2 + i))
                               for i, s in enumerate(catalog._SLOT_NAMES))
                    envs.append(env)
    # cold: every string parsed afresh for each env
    cold = []
    for env in envs:
        catalog._parse.cache_clear()
        cold.append([_outcome(s, env) for s in strings])
    catalog._parse.cache_clear()
    warm = [[_outcome(s, env) for s in strings] for env in envs]
    again = [[_outcome(s, env) for s in strings] for env in envs]
    assert warm == cold and again == cold
    assert catalog._parse.cache_info().misses == len(strings)


@pytest.mark.parametrize("src, env, message", [
    ("q+1", {"a": F(1)}, "unknown symbol 'q' in expression 'q+1'"),
    ("1/x", {"x": F(0)}, "division by zero in '1/x'"),
    ("2$x", {"x": F(1)}, "bad character '$' in expression '2$x'"),
    ("x y", {"x": F(1), "y": F(1)}, "trailing input in expression 'x y'"),
    ("x^y", {"x": F(2), "y": Fraction(1, 2)},
     "exponent 1/2 in 'x^y' is not a non-negative integer"),
    # an input with two faults reports the one met first, left to right
    ("q+", {}, "unknown symbol 'q' in expression 'q+'"),
    ("1/x)", {"x": F(0)}, "division by zero in '1/x)'"),
    ("x+(", {"x": F(1)}, "unexpected token in expression 'x+('"),
])
def test_parse_memo_repeats_errors(src, env, message):
    catalog._parse.cache_clear()
    for _ in range(2):
        with pytest.raises(CatalogError) as err:
            eval_expr(src, env)
        assert str(err.value) == message


def test_parse_memo_recovers_after_an_error():
    # the memo keeps the parse, not the failed evaluation
    catalog._parse.cache_clear()
    with pytest.raises(CatalogError):
        eval_expr("1/x", {"x": F(0)})
    assert eval_expr("1/x", {"x": F(2)}) == Fraction(1, 2)


def test_guard_matches_exponent_arithmetic():
    guard = [{"lhs": "k+l", "op": "ge", "rhs": "1"}]
    assert not guard_matches(guard, {"k": F(0), "l": F(0)})
    assert guard_matches(guard, {"k": F(0), "l": F(1)})
    both = [{"lhs": "b^k*y^l", "op": "eq", "rhs": "1"}]
    env = {"b": Fraction(1, 2), "y": F(2), "k": F(2), "l": F(2)}
    assert guard_matches(both, env)
    env["l"] = F(1)
    assert not guard_matches(both, env)


# --- pattern spaces --------------------------------------------------------

def test_pattern_space_basis_extraction():
    env = {"k": F(1), "l": F(1), "z": F(2)}
    space = pattern_space([["c1", "(l*z+k)*c1"], ["0", "c1"]], env)
    assert space.dim == 1
    assert space.contains(Matrix([[5, 15], [0, 5]], QQ))
    assert not space.contains(Matrix([[5, 14], [0, 5]], QQ))


def test_pattern_space_rejects_constant_part():
    with pytest.raises(CatalogError):
        pattern_space([["c1+1", "0"], ["0", "c1"]], {})


def test_pattern_space_rejects_nonlinear_slot():
    with pytest.raises(CatalogError):
        pattern_space([["c1*c1", "0"], ["0", "c1"]], {})


def test_pattern_space_zero_shape_is_zero_space():
    space = pattern_space([["0", "0"], ["0", "0"]], {})
    assert space.dim == 0


@pytest.mark.parametrize("p", [5, 7])
def test_pattern_space_over_prime_fields(p):
    field = GF(p)
    built = refused = 0
    for fid in family_ids():
        rows = expected_rows(fid)
        for params in pinned_samples(fid):
            env = dict(params, k=F(0), l=F(0))
            for row in rows:
                for pattern in (row.centroid, row.der):
                    q_dim = pattern_space(pattern, env).dim
                    try:
                        space = pattern_space(pattern, env, field=field)
                    except ReductionError:
                        refused += 1
                        continue
                    assert space.field == field
                    assert space.dim <= q_dim, (fid, params, pattern)
                    built += 1
    assert built + refused == 346
    assert pattern_space([["c1", "0"], ["0", "c1"]], {}, field=field).dim == 1
    with pytest.raises(ReductionError):
        pattern_space([["c1/%d" % p, "0"], ["0", "c1"]], {}, field=field)
    for bad in ("c1*c1", "c1+1"):
        with pytest.raises(CatalogError):
            pattern_space([[bad, "0"], ["0", "c1"]], {}, field=field)


# --- data integrity --------------------------------------------------------

def test_catalog_lists_all_families():
    ids = family_ids()
    assert len(ids) == 25
    assert "L_1^1" in ids and "L_1^17" in ids and "L_3^11" in ids


def test_every_family_has_enough_pinned_samples():
    # families with free parameters carry at least three assignments; the
    # parameter-free ones have exactly their single instance
    for fid in family_ids():
        fam = catalog.get_family(fid)
        samples = pinned_samples(fid)
        if fam.params:
            assert len(samples) >= 3, fid
        else:
            assert samples == [{}], fid


def test_sample_digest_detects_tampering():
    data = [{"id": "X", "samples": [{"b": "2"}]}]
    good = catalog._samples_digest(data)
    data[0]["samples"][0]["b"] = "3"
    assert catalog._samples_digest(data) != good


def test_guards_cover_and_rarely_overlap():
    # every pinned instance finds a row at each grid cell; the only multiple
    # matches are the recorded z1 = 0 overlap cells of L_1^13
    for fid in family_ids():
        for params in pinned_samples(fid):
            for v in verify_family(fid, params):
                assert v.matched_rows, (fid, params, v.k, v.l)
                if len(v.matched_rows) > 1:
                    assert fid == "L_1^13"
                    assert (v.k, v.l) == (0, 0)
                    assert params["z1"] == 0


# --- builders --------------------------------------------------------------

def test_build_identity_twist_family():
    L = build("L_1^10", {})
    assert L.bracket_basis(0, 1) == (F(1), F(1))
    assert L.alpha.is_identity() and L.beta.is_identity()


def test_build_scaled_pair_bracket_value():
    L = build("L_1^8", {"a": 2, "x": 3})
    assert L.bracket_basis(1, 0) == (Fraction(-3, 2), F(0))


def test_build_accepts_string_and_fraction_params():
    La = build("L_1^1", {"z1": "0", "b": "2", "y": "3"})
    Lb = build("L_1^1", {"z1": 0, "b": F(2), "y": 3})
    assert La.structure == Lb.structure
    assert La.check_all().passed


def test_build_rejects_zero_scaling_parameter():
    with pytest.raises(InadmissibleParameterError):
        build("L_1^8", {"a": 0, "x": 3})
    with pytest.raises(InadmissibleParameterError):
        build("L_1^7", {"b": 2, "x": 0})


def test_build_rejects_missing_and_unknown_parameters():
    with pytest.raises(InadmissibleParameterError):
        build("L_1^1", {"z1": 0, "b": 2})
    with pytest.raises(InadmissibleParameterError):
        build("L_1^10", {"b": 2})
    with pytest.raises(CatalogError):
        build("L_9^9", {})


def test_all_builders_pass_axioms_at_pinned_samples():
    for fid in family_ids():
        for params in pinned_samples(fid):
            L = build(fid, params)
            assert L.n == 2
            assert L.check_all().passed


# --- expected rows ---------------------------------------------------------

def test_expected_rows_shapes():
    assert len(expected_rows("L_1^1")) == 3
    rows = expected_rows("L_1^8")
    assert len(rows) == 3
    assert rows[0].centroid[1][1] == "c1/(a^k*x^l)"
    rows = expected_rows("L_1^13")
    z1_guards = [c for row in rows for c in row.guard if c["lhs"] == "z1"]
    assert {(c["op"], c["rhs"]) for c in z1_guards} == {
        ("eq", "-1"), ("eq", "0"), ("ne", "-1")}


# --- verification ----------------------------------------------------------

def test_verify_identity_twist_family_cell():
    v = verify_entry("L_1^10", {}, 0, 0)
    assert v.ok
    L = build("L_1^10", {})
    assert derivation_space(L, 1, 1, 1, 0, 0).dim == 2


def test_verify_unipotent_pair_family_offdiagonal_scaling():
    v = verify_entry("L_1^17", {"z": 2}, 1, 1)
    assert v.ok
    L = build("L_1^17", {"z": 2})
    cen = derivation_space(L, 1, 1, 0, 1, 1)
    assert [m.entries for m in cen.basis] == [((F(1), F(3)), (F(0), F(1)))]


def test_verify_single_bracket_scaling_family_cell():
    v = verify_entry("L_3^1", {"b": 2, "y": 3}, 0, 0)
    assert v.ok


def test_verify_detects_planted_mismatch():
    # verify against a family whose expected rows were perturbed
    cat = catalog.load_catalog()
    fam = cat["L_1^10"]
    original = fam.rows[0].der
    fam.rows[0].der = [["d1", "0"], ["0", "d1"]]
    try:
        v = verify_entry("L_1^10", {}, 0, 0)
        assert not v.ok
        assert any(aspect.startswith("der") for aspect, _, _ in v.diffs)
    finally:
        fam.rows[0].der = original


def test_verify_reports_uncovered_cell():
    cat = catalog.load_catalog()
    fam = cat["L_1^10"]
    original = fam.rows[0].guard
    fam.rows[0].guard = [{"lhs": "k", "op": "ge", "rhs": "1"}]
    try:
        v = verify_entry("L_1^10", {}, 0, 0)
        assert not v.ok
        assert v.matched_rows == []
        assert any("no expected row" in note for note in v.notes)
    finally:
        fam.rows[0].guard = original


def test_full_catalog_replay_is_clean():
    failures = [v for v in catalog.iter_default_verifications()
                if not v.ok]
    assert failures == []


def test_overlap_reported_but_verdict_still_matches():
    v = verify_entry("L_1^13", {"z1": 0, "t1": 3, "z": 2}, 0, 0)
    assert v.ok
    assert len(v.matched_rows) == 2
    assert any("overlap" in note for note in v.notes)
