"""Acceptance gate: the package's nine headline guarantees, one test each.

Every test prints a single "criterion N: PASS" or "criterion N: FAIL (...)"
line before asserting, so a run always leaves a readable scorecard in the
captured output. All checks are exact rational or prime-field arithmetic;
there are no tolerances anywhere in this file.
"""

import random
import time
from fractions import Fraction

from bihomlie import (ReductionError, brute_force_iso, catalog,
                      central_derivations, centroid, commutator,
                      compare_fingerprints, count_members_fp,
                      derivation_space, fingerprint, heisenberg, induced_lie,
                      is_characteristically_nilpotent, is_ideal,
                      is_small_centroid, jordan_product,
                      ker_alpha_plus_ker_beta, normalize_params,
                      quasi_centroid, reduce_mod_p, structure_table,
                      verify_derivation, yau_twist)
from bihomlie.algebra import classical_lie_check
from bihomlie.fields import QQ
from bihomlie.linalg import Matrix, MatrixSubspace, VectorSubspace


def _report(num, ok, detail=""):
    line = "criterion %d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def _fmt_params(params):
    return ",".join("%s=%s" % (k, v) for k, v in params.items()) or "-"


_CACHE = []


def _instances():
    """Every catalog family at every pinned sample, built once."""
    if not _CACHE:
        for fid in catalog.family_ids():
            for params in catalog.pinned_samples(fid):
                _CACHE.append((fid, params, catalog.build(fid, params)))
    return _CACHE


# --- criterion 1: full golden-table replay -------------------------------

def test_criterion_1_catalog_table_replay():
    start = time.monotonic()
    verdicts = list(catalog.iter_default_verifications(grid=3))
    elapsed = time.monotonic() - start
    bad = ["%s %s k=%d l=%d" % (v.family_id, _fmt_params(v.params), v.k, v.l)
           for v in verdicts if not v.ok]
    families = {v.family_id for v in verdicts}
    thin = [fid for fid in sorted(families)
            if catalog.get_family(fid).params
            and len(catalog.pinned_samples(fid)) < 3]
    problems = []
    if bad:
        problems.append("%d mismatched cells: %s" % (len(bad),
                                                     "; ".join(bad[:4])))
    if len(families) < 22:
        problems.append("only %d families" % len(families))
    if thin:
        problems.append("families with under 3 samples: %s" % ", ".join(thin))
    if elapsed >= 10.0:
        problems.append("took %.1fs, budget is 10s" % elapsed)
    detail = "; ".join(problems) or "%d families, %d cells, %.1fs" % (
        len(families), len(verdicts), elapsed)
    _report(1, not problems, detail)


# --- criterion 2: twisted Heisenberg closed forms ------------------------

def _diag(d1, d2, d3):
    zero = Fraction(0)
    return Matrix([[d1, zero, zero], [zero, d2, zero], [zero, zero, d3]], QQ)


def _heisenberg_closed_form_problems(a, b, x, y):
    """Compare eight solved spaces against their closed-form spans.

    On heisenberg(1, a, x, [b], [y]) the twists are diag(b, a/b, a) and
    diag(y, x/y, x); with m1 = b^k y^l and m2 = (a/b)^k (x/y)^l the solved
    spaces should be spanned by diagonal matrices in m1, m2 and the ratio
    q = m2/m1 = a^k x^l / (b^2k y^2l).

    On the repeated-eigenvalue locus a = b^2, x = y^2 both twists act on
    span{X, Y} as scalars (b I and y I), so m1 = m2, q = 1 and the joint
    commutant is gl_2 + gl_1 (dim 5) rather than the diagonal algebra.
    With [X, Y] = by Z the pair (X, X) then reads 0 = by m1 (gamma - mu)
    d_YX and the pair (Y, Y) reads 0 = by m1 (mu - gamma) d_XY, while every
    other pair gives the diagonal equations. So on that locus every
    mu = gamma space also holds the units E12 and E21.
    """
    H = heisenberg(1, a, x, [b], [y])
    locus = (Fraction(a) == Fraction(b) ** 2
             and Fraction(x) == Fraction(y) ** 2)
    off_diagonal = (Matrix.unit(3, 0, 1, QQ), Matrix.unit(3, 1, 0, QQ))
    problems = []
    for k, l in ((0, 0), (1, 1), (2, 1)):
        m1 = Fraction(b) ** k * Fraction(y) ** l
        m2 = (Fraction(a) / b) ** k * (Fraction(x) / y) ** l
        q = m2 / m1
        plan = [((1, 0, 0), (_diag(1, 0, 0), _diag(0, 1, 0)))]
        for delta in (1, 2):
            plan.append(((delta, 1, 0), (_diag(1, q, m2 / delta),)))
        for delta in (1, 2):
            plan.append(((delta, 1, 1),
                         (_diag(1, 0, m2 / delta), _diag(0, 1, m1 / delta))))
        plan.append(((0, 1, 1), (_diag(1, -q, 0), _diag(0, 0, 1))))
        plan.append(((1, 1, -1), (_diag(1, q, 0),)))
        plan.append(((0, 1, -1), (_diag(1, q, 0), _diag(0, 0, 1))))
        for (lam, mu, gam), mats in plan:
            if locus and mu == gam:
                mats += off_diagonal
            space = derivation_space(H, lam, mu, gam, k, l)
            want = MatrixSubspace(3, list(mats), QQ)
            if space.dim != want.dim or want != space:
                problems.append(
                    "(%s,%s,%s) at k=%d l=%d: dim %d, closed form has %d"
                    % (lam, mu, gam, k, l, space.dim, want.dim))
    return problems


def test_criterion_2_heisenberg_closed_forms():
    problems = _heisenberg_closed_form_problems(4, 2, 9, 3)
    if problems:
        detail = "%d of 24 cells off at (a,b,x,y)=(4,2,9,3): %s; ..." % (
            len(problems), "; ".join(problems[:3]))
    else:
        detail = "six space shapes at three exponent pairs, (4,2,9,3)"
    _report(2, not problems, detail)


def test_heisenberg_closed_forms_off_the_repeated_eigenvalue_locus():
    # The sample pinned by criterion 2 has a = b^2 and x = y^2, so both
    # twists carry a repeated eigenvalue and the joint commutant jumps from
    # the diagonal algebra (dim 3) to a block algebra (dim 5); every
    # mu = gamma system then gains two off-diagonal solutions.  Away from
    # that locus the closed forms hold exactly.
    assert _heisenberg_closed_form_problems(12, 2, 27, 3) == []


# --- criterion 3: dimension bounds and flag lists ------------------------

_SMALL_ALWAYS = frozenset(("L_2^1", "L_5^1", "L_1^8", "L_1^10", "L_3^11",
                           "L_1^12", "L_1^13", "L_1^15", "L_1^16", "L_1^17",
                           # centroid at (0,0) is the scalars alone (dim 1)
                           "L_1^6", "L_1^7",
                           # centroid span{I, E12}; E12 kills the derived
                           # subalgebra span{e1} and maps into its
                           # intersection with the center, span{e1}
                           "L_3^13", "L_1^14"))
_SMALL_IF_Z1 = frozenset(("L_1^1", "L_4^1"))


def test_criterion_3_dimension_bounds_and_flag_lists():
    cen_dims, der_dims = set(), set()
    cn_false, small_off, small_off_fams = [], [], set()
    for fid, params, L in _instances():
        cen_dims.add(centroid(L, 0, 0).dim)
        der_dims.add(derivation_space(L, 1, 1, 1, 0, 0).dim)
        if not is_characteristically_nilpotent(L):
            cn_false.append(fid)
        expected = fid in _SMALL_ALWAYS or (fid in _SMALL_IF_Z1
                                            and params["z1"] != 0)
        if is_small_centroid(L) != expected:
            small_off.append("%s %s" % (fid, _fmt_params(params)))
            small_off_fams.add(fid)
    problems = []
    if (min(cen_dims), max(cen_dims)) != (1, 2):
        problems.append("centroid dims %s" % sorted(cen_dims))
    if (min(der_dims), max(der_dims)) != (0, 2):
        problems.append("derivation dims %s" % sorted(der_dims))
    if cn_false != ["L_1^10"]:
        problems.append("CN fails on %s" % (cn_false,))
    if small_off:
        problems.append("small-centroid flag off on %d instances (%s)"
                        % (len(small_off), ", ".join(sorted(small_off_fams))))
    detail = "; ".join(problems) or (
        "dims and both flag lists over %d instances" % len(_instances()))
    _report(3, not problems, detail)


# --- criterion 4: normalized coefficient triples -------------------------

_CASE_TRIPLES = (
    (1, (2, 3, 1)), (1, (1, 2, 0)),
    (2, (3, 2, -2)), (2, (5, 1, -1)),
    (3, (2, 3, 3)), (3, (1, 1, 1)),
    (4, (2, 0, 0)), (4, (7, 0, 0)),
    (5, (0, 2, 1)), (5, (0, 3, -1)),
    (6, (0, 2, 2)), (6, (0, 5, 5)),
    (7, (0, 2, -2)), (7, (0, 7, -7)),
)


def test_criterion_4_normalized_triples_solve_the_same_spaces():
    regular = [(fid, params, L) for fid, params, L in _instances()
               if L.is_regular()]
    problems = []
    for case, (lam, mu, gam) in _CASE_TRIPLES:
        norm, got = normalize_params(lam, mu, gam)
        if got != case:
            problems.append("(%s,%s,%s) files under case %d, not %d"
                            % (lam, mu, gam, got, case))
            continue
        for fid, params, L in regular:
            for k, l in ((0, 0), (1, 1)):
                raw = derivation_space(L, lam, mu, gam, k, l)
                canon = derivation_space(L, norm[0], norm[1], norm[2], k, l)
                if raw != canon:
                    problems.append("%s %s at (%s,%s,%s) k=%d l=%d"
                                    % (fid, _fmt_params(params),
                                       lam, mu, gam, k, l))
    ok = bool(regular) and not problems
    detail = "; ".join(problems[:5]) or (
        "%d regular instances, 7 cases x 2 triples x 2 exponent pairs"
        % len(regular))
    _report(4, ok, detail)


# --- criterion 5: commutator and jordan closure --------------------------

_DRAW_TRIPLES = ((1, 1, 0), (1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 1, 1),
                 (1, 1, -1), (0, 1, -1), (2, 3, 1), (3, 2, -2), (2, 3, 3))


def _random_member(rng, L, space):
    out = Matrix.zero(L.n, L.n, L.field)
    for m in space.basis:
        out = out + m * L.field.coerce(rng.choice((-2, -1, 1, 2, 3)))
    return out


def test_criterion_5_commutator_and_jordan_closure():
    rng = random.Random(361)
    pool = _instances()
    problems = []
    nonzero = 0
    for _ in range(200):
        fid, params, L = rng.choice(pool)
        t1 = rng.choice(_DRAW_TRIPLES)
        t2 = rng.choice(_DRAW_TRIPLES)
        k, l = rng.randrange(3), rng.randrange(3)
        s, t = rng.randrange(3), rng.randrange(3)
        d1 = _random_member(rng, L,
                            derivation_space(L, t1[0], t1[1], t1[2], k, l))
        d2 = _random_member(rng, L,
                            derivation_space(L, t2[0], t2[1], t2[2], s, t))
        if not (d1.is_zero() or d2.is_zero()):
            nonzero += 1
        c = commutator(d1, d2)
        if not verify_derivation(L, c, t1[0] * t2[0], t1[1] * t2[1],
                                 t1[2] * t2[2], k + s, l + t):
            problems.append("commutator escaped on %s at %r x %r"
                            % (fid, t1, t2))
    jordan_pairs = 0
    for fid, params, L in pool:
        for (k, l), (s, t) in (((0, 0), (0, 0)), ((0, 0), (1, 1)),
                               ((1, 1), (1, 1))):
            qa = quasi_centroid(L, k, l).basis
            qb = quasi_centroid(L, s, t).basis
            for f in qa:
                for g in qb:
                    jordan_pairs += 1
                    if not verify_derivation(L, jordan_product(f, g),
                                             0, 1, -1, k + s, l + t):
                        problems.append(
                            "jordan left the quasi-centroid on %s" % fid)
            ca = central_derivations(L, k, l).basis
            cb = central_derivations(L, s, t).basis
            for f in ca:
                for g in cb:
                    jordan_pairs += 1
                    j = jordan_product(f, g)
                    if not (verify_derivation(L, j, 1, 0, 0, k + s, l + t)
                            and verify_derivation(L, j, 0, 1, 0,
                                                  k + s, l + t)):
                        problems.append(
                            "jordan left the central derivations on %s" % fid)
    ok = not problems and nonzero >= 100
    if problems:
        detail = "; ".join(problems[:4])
    elif nonzero < 100:
        detail = "only %d of 200 draws had two nonzero members" % nonzero
    else:
        detail = ("200 commutator pairs (%d with both members nonzero), "
                  "%d jordan pairs" % (nonzero, jordan_pairs))
    _report(5, ok, detail)


# --- criterion 6: exhaustive census over F_3 -----------------------------

_CENSUS_TRIPLES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
                   (0, 1, 0), (0, 1, 1), (1, 1, -1), (0, 1, -1))


def test_criterion_6_finite_field_census_matches_solved_dimensions():
    instances = _instances()  # built outside the timed census
    start = time.monotonic()
    reduced = skipped = 0
    problems = []
    for fid, params, L in instances:
        try:
            Lp = reduce_mod_p(L, 3)
        except ReductionError:
            skipped += 1
            continue
        reduced += 1
        for lam, mu, gam in _CENSUS_TRIPLES:
            dim = derivation_space(Lp, lam, mu, gam, 0, 0).dim
            count = count_members_fp(Lp, lam, mu, gam, 0, 0)
            if count != 3 ** dim:
                problems.append("%s %s (%s,%s,%s): %d members for dim %d"
                                % (fid, _fmt_params(params), lam, mu, gam,
                                   count, dim))
    elapsed = time.monotonic() - start
    if reduced < 60:
        problems.append("only %d instances reduced mod 3" % reduced)
    if elapsed >= 5.0:
        problems.append("took %.1fs, budget is 5s" % elapsed)
    detail = "; ".join(problems[:4]) or (
        "%d instances x 8 triples, 81 matrices each, %.1fs; %d not "
        "reducible mod 3" % (reduced, elapsed, skipped))
    _report(6, not problems, detail)


# --- criterion 7: twist constructors -------------------------------------

def test_criterion_7_twist_constructors_round_trip():
    rng = random.Random(4417)
    scalars = (1, 2, 3, -1, -2, Fraction(1, 2))
    problems = []
    built = 0
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            c = rng.choice(scalars)
            table = structure_table(2, {(1, 2, 1): c, (2, 1, 1): -c}, QQ)
            alpha = [[rng.choice(scalars), 0], [0, 1]]
            beta = [[rng.choice(scalars), 0], [0, 1]]
        elif kind == 1:
            w = rng.choice(scalars)
            table = structure_table(3, {(1, 2, 3): w, (2, 1, 3): -w}, QQ)
            s, t = rng.choice(scalars), rng.choice(scalars)
            u, v = rng.choice(scalars), rng.choice(scalars)
            alpha = [[s, 0, 0], [0, t, 0], [0, 0, s * t]]
            beta = [[u, 0, 0], [0, v, 0], [0, 0, u * v]]
        else:
            # commuting invertible upper-triangular Toeplitz pair on an
            # abelian bracket
            table = structure_table(2, {}, QQ)
            p0, p1 = rng.choice(scalars), rng.choice(scalars)
            q0, q1 = rng.choice(scalars), rng.choice(scalars)
            alpha = [[p0, p1], [0, p0]]
            beta = [[q0, q1], [0, q0]]
        L = yau_twist(table, alpha, beta)
        built += 1
        if not L.check_all().passed:
            problems.append("twist %d fails the axioms" % trial)
        if induced_lie(L) != table:
            problems.append("twist %d does not round-trip" % trial)
    regular = 0
    for fid, params, L in _instances():
        if not L.is_regular():
            continue
        regular += 1
        skew, jacobi = classical_lie_check(induced_lie(L), L.field)
        if not (skew and jacobi):
            problems.append("%s untwisted: skew=%s jacobi=%s"
                            % (fid, skew, jacobi))
    ok = not problems and built == 50 and regular >= 1
    detail = "; ".join(problems[:4]) or (
        "50 random twists checked and round-tripped, %d regular catalog "
        "instances untwisted" % regular)
    _report(7, ok, detail)


# --- criterion 8: ideals, and no simple instances ------------------------

def test_criterion_8_kernel_and_line_ideals():
    problems = []
    count = 0
    one, zero = QQ.one(), QQ.zero()
    for fid, params, L in _instances():
        count += 1
        if not is_ideal(L, ker_alpha_plus_ker_beta(L)):
            problems.append("%s %s: kernel sum is not an ideal"
                            % (fid, _fmt_params(params)))
        vec = (one, one) if fid == "L_1^10" else (one, zero)
        line = VectorSubspace(2, [vec], QQ)
        if not (line.dim == 1 and is_ideal(L, line)):
            problems.append("%s %s: pinned line is not an ideal"
                            % (fid, _fmt_params(params)))
    detail = "; ".join(problems[:4]) or (
        "%d instances, kernel-sum ideal plus a proper nonzero line ideal "
        "each, so none is simple" % count)
    _report(8, not problems, detail)


# --- criterion 9: chosen pairs stay apart --------------------------------

_PAIRS = (
    ("L_1^1", {"z1": 0, "b": 2, "y": 2}, "L_2^1", {"b": 2, "y": 2}),
    ("L_2^1", {"b": 2, "y": 1}, "L_3^1", {"b": 2, "y": 1}),
    ("L_3^1", {"b": 2, "y": 2}, "L_4^1", {"z1": 0, "b": 2, "y": 2}),
    ("L_1^2", {"b": 2, "y": 2}, "L_1^4", {"y": 2}),
    ("L_1^5", {"b": 2, "y": 2}, "L_1^6", {"b": 2}),
    ("L_1^9", {}, "L_1^10", {}),
    ("L_1^10", {}, "L_1^12", {}),
    ("L_1^3", {"a": 2, "y": 2}, "L_1^7", {"b": 2, "x": 2}),
    ("L_1^8", {"a": 2, "x": 2}, "L_1^10", {}),
    ("L_1^11", {"z": 2}, "L_3^11", {}),
    ("L_2^11", {}, "L_3^11", {}),
    ("L_1^13", {"z1": 2, "t1": 2, "z": 2}, "L_2^13", {"t1": 2, "z": 2}),
    ("L_1^15", {"t1": 2}, "L_1^16", {"z": 2}),
)


def test_criterion_9_chosen_pairs_stay_apart():
    by_print = by_search = 0
    problems = []
    for fa, pa, fb, pb in _PAIRS:
        A, B = catalog.build(fa, pa), catalog.build(fb, pb)
        if compare_fingerprints(fingerprint(A), fingerprint(B)) == "distinct":
            by_print += 1
            continue
        if brute_force_iso(A, B, 3) is None:
            by_search += 1
        else:
            problems.append("%s vs %s: fingerprints agree and a mod-3 "
                            "witness exists" % (fa, fb))
    ok = (not problems and by_print + by_search == len(_PAIRS)
          and len(_PAIRS) >= 10)
    detail = "; ".join(problems) or (
        "%d pairs separated: %d by fingerprint, %d by exhaustive mod-3 "
        "search" % (len(_PAIRS), by_print, by_search))
    _report(9, ok, detail)
