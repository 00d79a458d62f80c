"""The benchmark's three workloads: their seeded inputs, set-up and passes.

Every input is generated here from the workload seed; nothing is read from
the test suite, so editing a test never changes what the benchmark runs.
A workload object has three steps:

    make_inputs(seed, catalog)
                             plain data (family ids, parameters, maps); the
                             catalog module is read for ids and samples
    setup(lib, inputs, mark) builds and axiom-checks every library object
    run_pass(lib, built, run_item, mark)
                             one pass over the items, each checked

``lib`` is a namespace of freshly imported ``bihomlie`` modules.
``run_item(kind, fn)`` times one call, and ``fn`` returns ``(ok, note)``.
``mark(label)`` tells the tracer where a labelled part of the run starts.
"""

import random
from fractions import Fraction

# Extra-sample pool of the CLI's BIHOM_SAMPLE_SEED mode: nonzero, and away
# from the roots of unity that put instances on special table rows.
SAMPLE_POOL = (Fraction(2), Fraction(3), Fraction(5), Fraction(-2),
               Fraction(1, 2), Fraction(1, 3))

# Criterion-6 census triples: one representative per canonical case.
CENSUS_TRIPLES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
                  (0, 1, 0), (0, 1, 1), (1, 1, -1), (0, 1, -1))

GRID = 3
CENSUS_PRIME = 3
SWEEP_HALF_DIMS = (1, 2, 3, 4)          # n = 2m + 1 = 3, 5, 7, 9
FINGERPRINT_HALF_DIMS = (1, 2)          # n = 3, 5


# --- input rules -------------------------------------------------------------

def heisenberg_params(rng, m):
    """(a, x, b_list, y_list) giving neither twist a repeated eigenvalue.

    The twists are diag(b_1..b_m, a/b_1..a/b_m, a) and the same in (x, y).
    With the b_i distinct integers in 2..9 and a negative, the b_i are
    positive and pairwise distinct, the a/b_i negative, pairwise distinct and
    different from a; so every eigenvalue is simple. This keeps the sweep
    off the locus a = b^2 where criterion 2's pinned sample sits.
    """
    b = rng.sample(range(2, 10), m)
    y = rng.sample(range(2, 10), m)
    a = -rng.choice((2, 3, 5, 7))
    x = -rng.choice((2, 3, 5, 7))
    return a, x, b, y


def mod3_search_params(rng):
    """Parameters of two 3-dimensional twisted Heisenberg algebras whose
    mod-3 reductions are told apart by the characteristic polynomial of
    alpha: (t-1)^3 for the first (a = b = 1 mod 3), (t-1)(t-2)^2 for the
    second (a = 2 mod 3). Every value is prime to 3."""
    first = (rng.choice((-2, -5, -8)), rng.choice((-1, -2, -4, -5)),
             [rng.choice((4, 7, 10))], [rng.choice((2, 4, 5, 7))])
    second = (rng.choice((-1, -4, -7)), rng.choice((-1, -2, -4, -5)),
              [rng.choice((2, 4, 5, 7))], [rng.choice((2, 4, 5, 7))])
    return first, second


def _det3_mod(m, p):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % p


def witness_map(rng, p):
    """A seeded invertible 3x3 map over F_p whose first row is (0, 0, 1).

    The search scans matrices in entry-lexicographic order and stops at
    the first witness. No matrix before position p^6 is invertible, and
    the map itself sits below 2 p^6, so the scan always stops within the
    first 2 p^6 of its p^9 candidates: its length barely depends on the
    seed, and the full scan of the other pair dominates the search time.
    """
    while True:
        m = [[0, 0, 1]] + [[rng.randrange(p) for _ in range(3)]
                           for _ in range(2)]
        if _det3_mod(m, p):
            return m


def char_poly_of_diagonal(diag):
    """Coefficients of prod (t - d), highest degree first."""
    poly = [Fraction(1)]
    for d in diag:
        poly = [a - d * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


# --- catalog-replay ----------------------------------------------------------

class CatalogReplay:
    """Every catalog family at its pinned samples, plus two seeded samples
    per parametrised family drawn from SAMPLE_POOL, over the (k, l) grid
    {0,1,2}^2. One item is one verify_entry cell."""

    name = "catalog-replay"

    def make_inputs(self, seed, catalog):
        rng = random.Random(seed)
        pinned, seeded = [], []
        for family_id in catalog.family_ids():
            for params in catalog.pinned_samples(family_id):
                pinned.append((family_id, params))
            names = catalog.get_family(family_id).param_names
            for _ in range(2 if names else 0):
                seeded.append((family_id,
                               {n: rng.choice(SAMPLE_POOL) for n in names}))
        return {"pinned": pinned, "seeded": seeded}

    def setup(self, lib, inputs, mark):
        built = {}
        for part in ("pinned", "seeded"):
            mark("setup:" + part)
            built[part] = [(fid, params, lib.catalog.build(fid, params))
                           for fid, params in inputs[part]]
        return built, []

    def run_pass(self, lib, built, run_item, mark):
        for part in ("pinned", "seeded"):
            mark("pass:" + part)
            for fid, params, L in built[part]:
                for k in range(GRID):
                    for l in range(GRID):
                        run_item("cell", _cell(lib, fid, params, k, l, L))


def _cell(lib, fid, params, k, l, L):
    def item():
        v = lib.catalog.verify_entry(fid, params, k, l, algebra=L)
        return v.ok, None if v.ok else repr(v)
    return item


# --- fp3-exhaustive ----------------------------------------------------------

class Fp3Exhaustive:
    """The criterion-6 census over F_3 and two GL_3(F_3) witness searches.

    Census: every pinned catalog instance that reduces mod 3, times the
    eight census triples; one item solves the space and counts its members
    among all 81 matrices, which must number 3^dim. Searches: a pair told
    apart by fingerprint, so the full 19,683-candidate scan must find
    nothing; and a pair (A, transport(A, f)) for a seeded invertible f,
    whose returned witness must verify.
    """

    name = "fp3-exhaustive"

    def make_inputs(self, seed, catalog):
        rng = random.Random(seed)
        instances = [(fid, params) for fid in catalog.family_ids()
                     for params in catalog.pinned_samples(fid)]
        first, second = mod3_search_params(rng)
        return {"instances": instances, "apart": (first, second),
                "witness_map": witness_map(rng, CENSUS_PRIME)}

    def setup(self, lib, inputs, mark):
        p = CENSUS_PRIME
        problems = []
        mark("setup:census")
        reduced = []
        for fid, params in inputs["instances"]:
            L = lib.catalog.build(fid, params)
            try:
                Lp = lib.isomorphism.reduce_mod_p(L, p)
            except lib.fields.ReductionError:
                continue
            if not Lp.check_all().passed:
                problems.append("%s %r fails the axioms mod %d"
                                % (fid, params, p))
            reduced.append((fid, params, Lp))
        mark("setup:search")
        A, B = [lib.isomorphism.reduce_mod_p(
                    lib.algebra.heisenberg(1, a, x, b, y), p)
                for a, x, b, y in inputs["apart"]]
        verdict = lib.isomorphism.compare_fingerprints(
            lib.isomorphism.fingerprint(A), lib.isomorphism.fingerprint(B))
        if verdict != "distinct":
            problems.append("search pair fingerprints: %s" % verdict)
        f = lib.linalg.Matrix(inputs["witness_map"], lib.fields.GF(p))
        C = lib.isomorphism.transport(A, f)
        for name, X in (("A", A), ("B", B), ("transport(A, f)", C)):
            if not X.check_all().passed:
                problems.append("%s fails the axioms" % name)
        return {"census": reduced, "apart": (A, B), "witness": (A, C)}, \
            problems

    def run_pass(self, lib, built, run_item, mark):
        mark("pass:census")
        for fid, params, Lp in built["census"]:
            for triple in CENSUS_TRIPLES:
                run_item("census", _census(lib, fid, Lp, triple))
        mark("pass:search")
        A, B = built["apart"]
        run_item("iso_search", _search(lib, A, B, expect_witness=False))
        A, C = built["witness"]
        run_item("iso_witness", _search(lib, A, C, expect_witness=True))


def _census(lib, fid, Lp, triple):
    def item():
        dim = lib.derivations.derivation_space(Lp, *triple).dim
        count = lib.derivations.count_members_fp(Lp, *triple)
        ok = count == CENSUS_PRIME ** dim
        return ok, None if ok else "%s %r: %d members for dim %d" % (
            fid, triple, count, dim)
    return item


def _search(lib, A, B, expect_witness):
    def item():
        w = lib.isomorphism.brute_force_iso(A, B, CENSUS_PRIME)
        if expect_witness:
            ok = w is not None and lib.isomorphism.verify_isomorphism(A, B, w)
        else:
            ok = w is None
        return ok, None if ok else "search returned %r, expected %s" % (
            w, "a verified witness" if expect_witness else "None")
    return item


# --- heisenberg-sweep --------------------------------------------------------

class HeisenbergSweep:
    """Twisted Heisenberg algebras at n = 3, 5, 7, 9 with seeded parameters.

    Each n runs check_all and derivation_space(1,1,1, k=1, l=1), whose
    dimension is m + 1 for n = 2m + 1 off the repeated-eigenvalue locus;
    fingerprint runs at n = 3 and 5 and is checked against invariants known
    in closed form.
    """

    name = "heisenberg-sweep"

    def make_inputs(self, seed, catalog):
        rng = random.Random(seed)
        return {m: heisenberg_params(rng, m) for m in SWEEP_HALF_DIMS}

    def setup(self, lib, inputs, mark):
        mark("setup:build")
        return {m: (lib.algebra.heisenberg(m, *params), params)
                for m, params in inputs.items()}, []

    def run_pass(self, lib, built, run_item, mark):
        mark("pass:sweep")
        for m, (H, params) in built.items():
            n = 2 * m + 1
            run_item("check_all_n%d" % n, _check_all(H))
            run_item("derivation_space_n%d" % n, _der(lib, H, m))
            if m in FINGERPRINT_HALF_DIMS:
                run_item("fingerprint_n%d" % n,
                         _fingerprint(lib, H, m, params))


def _check_all(H):
    def item():
        report = H.check_all()
        return report.passed, None if report.passed else repr(report)
    return item


def _der(lib, H, m):
    def item():
        dim = lib.derivations.derivation_space(H, 1, 1, 1, k=1, l=1).dim
        ok = dim == m + 1
        return ok, None if ok else "n=%d: dim %d, expected %d" % (
            2 * m + 1, dim, m + 1)
    return item


def _fingerprint(lib, H, m, params):
    n = 2 * m + 1
    a, x, b, y = params
    alpha = [Fraction(v) for v in b] + [Fraction(a, v) for v in b] + [a]
    beta = [Fraction(v) for v in y] + [Fraction(x, v) for v in y] + [x]
    expected = {
        "dim": n, "rank_alpha": n, "rank_beta": n, "dim_bracket_image": 1,
        "dim_center": 1, "lower_central_dims": (n, 1, 0),
        "derived_dims": (n, 1, 0),
        "char_poly_alpha": char_poly_of_diagonal(alpha),
        "char_poly_beta": char_poly_of_diagonal(beta),
    }

    def item():
        fp = lib.isomorphism.fingerprint(H)
        got = {key: getattr(fp, key) for key in expected}
        got_der = fp.der_dims.get((1, 1, 1, 1, 1))
        ok = got == expected and got_der == m + 1
        return ok, None if ok else "n=%d: %r, der(1,1,1,1,1)=%r" % (
            n, got, got_der)
    return item


WORKLOADS = {w.name: w for w in (CatalogReplay(), Fp3Exhaustive(),
                                 HeisenbergSweep())}
