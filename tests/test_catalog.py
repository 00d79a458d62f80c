import operator
import random
from fractions import Fraction

import pytest

from bihomlie import catalog
from bihomlie.catalog import (
    CatalogError,
    InadmissibleParameterError,
    build,
    eval_expr,
    family_ids,
    get_family,
    guard_matches,
    pattern_space,
    pinned_samples,
    verify_entry,
    verify_family,
)
from bihomlie.cli import _random_samples
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


def _refused(*strings):
    """Rows for strings outside the grammar, refused at parse time."""
    return [(src, {"x": F(0), "y": F(1)}, "bad expression %r" % src)
            for src in strings]


@pytest.mark.parametrize("src, env, message", [
    ("q+1", {"a": F(1)}, "unknown symbol 'q' in expression 'q+1'"),
    ("1/x", {"x": F(0)}, "division by zero in '1/x'"),
    ("2$x", {"x": F(1)}, "bad expression '2$x'"),
    ("x y", {"x": F(1), "y": F(1)}, "bad expression 'x y'"),
    ("x^y", {"x": F(2), "y": Fraction(1, 2)},
     "exponent 1/2 in 'x^y' is not a non-negative integer"),
    # malformed input is refused whole, before any fault in its evaluation
    ("q+", {}, "bad expression 'q+'"),
    ("1/x)", {"x": F(0)}, "bad expression '1/x)'"),
    ("x+(", {"x": F(1)}, "bad expression 'x+('"),
] + _refused("x**2", "0x10", "2e3", "1_0", "x_1", "1.5", "1j", "True", "None",
             "f(x)", "x.y", "x[0]", "x<y", "x%y", "x//y", "+x", "~x", "()",
             "", "\u00e9", "\u00b2", "0001") + [
    # nested past Python's parser limits; refused by length before parsing
    pytest.param(*_refused(src)[0], id=name) for name, src in (
        ("deep-negation", "-" * 5000 + "x"),
        ("deep-power", "x" + "^x" * 3000))])
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


# A grammar tree is an int, a name, ("neg", t) or (op, lhs, rhs). Its level
# is 1 for + and -, 2 for * and /, 3 for a factor ('-' factor, or a power)
# and 4 for an atom; an operand below the level its place needs takes
# parentheses, and no other does.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 3}
_NEEDS = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "neg": (3,),
          "^": (4, 3)}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def _render(tree):
    """(text, level) of a tree, with the fewest parentheses."""
    if not isinstance(tree, tuple):
        return str(tree), 4
    op, *kids = tree
    parts = []
    for kid, need in zip(kids, _NEEDS[op]):
        text, level = _render(kid)
        parts.append(text if level >= need else "(%s)" % text)
    return ("-" + parts[0] if op == "neg" else op.join(parts)), _LEVEL[op]


def _value(tree, env, src):
    """The tree's value, operands left to right; a fault raises
    CatalogError with the evaluator's message."""
    if isinstance(tree, int):
        return F(tree)
    if isinstance(tree, str):
        return env[tree]
    op, *kids = tree
    vals = [_value(kid, env, src) for kid in kids]
    if op == "neg":
        return -vals[0]
    lhs, rhs = vals
    if op == "/" and rhs == 0:
        raise CatalogError("division by zero in %r" % src)
    if op != "^":
        return _ARITH[op](lhs, rhs)
    if rhs.denominator != 1 or rhs < 0:
        raise CatalogError("exponent %s in %r is not a non-negative integer"
                           % (rhs, src))
    return lhs ** int(rhs)


def _leaf(rng):
    return rng.choice([rng.randint(0, 3), rng.choice("abcxz")])


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng)
    op = rng.choice(["+", "-", "*", "/", "^", "neg"])
    if op == "neg":
        return (op, _tree(rng, depth - 1))
    if op == "^":  # a small exponent keeps the values small
        exp = rng.choice([_leaf(rng), ("neg", _leaf(rng)),
                          (rng.choice("+-*/"), _leaf(rng), _leaf(rng))])
        return (op, _tree(rng, depth - 1), exp)
    return (op, _tree(rng, depth - 1), _tree(rng, depth - 1))


def test_eval_expr_round_trips_the_grammar():
    # '^' must keep the grammar's precedence and right-associativity
    env = {"a": F(2), "b": F(-3), "c": Fraction(1, 2), "x": F(3), "z": F(0)}
    for tree, text, value in [
            (("neg", ("^", "x", 2)), "-x^2", -9),
            (("^", 2, ("^", 3, 2)), "2^3^2", 512),
            (("-", ("-", "a", "b"), "c"), "a-b-c", Fraction(9, 2)),
            (("-", "a", ("-", "b", "c")), "a-(b-c)", Fraction(11, 2)),
            (("/", ("/", "a", "b"), "c"), "a/b/c", Fraction(-4, 3)),
            (("^", ("neg", 2), 3), "(-2)^3", -8),
            (("^", ("^", 2, 3), 2), "(2^3)^2", 64),
            (("*", "a", ("neg", ("^", "x", ("neg", "z")))), "a*-x^-z", -2)]:
        assert _render(tree)[0] == text
        assert _value(tree, env, text) == value == eval_expr(text, env)
    rng = random.Random(2020)
    faults = 0
    for _ in range(3000):
        tree = _tree(rng, rng.randint(1, 4))
        src = _render(tree)[0]
        try:
            want = _value(tree, env, src)
        except CatalogError as err:
            faults += 1
            with pytest.raises(CatalogError) as got:
                eval_expr(src, env)
            assert str(got.value) == str(err), src
        else:
            assert eval_expr(src, env) == want, src
    assert 300 < faults < 2700


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
        rows = get_family(fid).rows
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


def test_flagged_rows_match_at_the_origin_cell():
    # verify_entry checks the structure flags in cell (0,0) only; nothing
    # is lost because every row carrying a flag that matches some grid cell
    # of an instance also matches its (0,0) cell
    rng = random.Random(17)
    off_origin = 0
    for fid in family_ids():
        fam = get_family(fid)
        flagged = [row for row in fam.rows
                   if row.cn is not None or row.small is not None]
        samples = pinned_samples(fid) + _random_samples(fam, rng, 20)
        for params in samples:
            env = catalog.coerce_params(fid, params)
            for row in flagged:
                matches = {(k, l) for k in range(3) for l in range(3)
                           if guard_matches(row.guard, dict(
                               env, k=F(k), l=F(l)))}
                assert not matches or (0, 0) in matches, (fid, params)
                off_origin += len(matches - {(0, 0)})
    assert off_origin > 0


def test_replay_checks_each_instance_flag_once(monkeypatch):
    calls = {"cn": [], "small": []}
    for name, key in (("is_characteristically_nilpotent", "cn"),
                      ("is_small_centroid", "small")):
        def counting(L, _flag=getattr(catalog, name), _key=key):
            calls[_key].append(L)
            return _flag(L)
        monkeypatch.setattr(catalog, name, counting)
    assert all(v.ok for v in catalog.iter_default_verifications())
    assert (len(calls["cn"]), len(calls["small"])) == (66, 69)
    for algebras in calls.values():
        assert len(set(map(id, algebras))) == len(algebras)


# --- builders --------------------------------------------------------------

def test_build_identity_twist_family():
    L = build("L_1^10", {})
    assert L.structure[0][1] == (F(1), F(1))
    assert L.alpha == L.beta == Matrix.identity(L.n, L.field)


def test_build_scaled_pair_bracket_value():
    L = build("L_1^8", {"a": 2, "x": 3})
    assert L.structure[1][0] == (Fraction(-3, 2), F(0))


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
    assert len(get_family("L_1^1").rows) == 3
    rows = get_family("L_1^8").rows
    assert len(rows) == 3
    assert rows[0].centroid[1][1] == "c1/(a^k*x^l)"
    rows = get_family("L_1^13").rows
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


def test_verify_family_yields_each_cell_in_order():
    params = pinned_samples("L_1^13")[0]
    verdicts = list(verify_family("L_1^13", params, kmax=1, lmax=2))
    assert [(v.k, v.l) for v in verdicts] == [(k, l) for k in range(2)
                                              for l in range(3)]
    for v in verdicts:
        alone = verify_entry("L_1^13", params, v.k, v.l)
        assert ((v.ok, v.diffs, v.matched_rows)
                == (alone.ok, alone.diffs, alone.matched_rows))


def test_verify_detects_planted_mismatch(monkeypatch):
    # verify against a family whose expected row was perturbed, one aspect
    # at a time: each plant is reported under its own aspect, and only there
    row = catalog.load_catalog()["L_1^10"].rows[0]
    for aspect, planted in (("der", [["d1", "0"], ["0", "d1"]]),
                            ("centroid", [["c1", "0"], ["0", "0"]]),
                            ("cn", "yes"), ("small", "not_small")):
        with monkeypatch.context() as patch:
            patch.setattr(row, aspect, planted)
            v = verify_entry("L_1^10", {}, 0, 0)
        assert not v.ok
        assert [a for a, _, _ in v.diffs] == [aspect + " row 0"]
    assert verify_entry("L_1^10", {}, 0, 0).ok


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
