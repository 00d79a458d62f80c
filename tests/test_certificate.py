"""A completeness certificate for solved derivation spaces.

Re-verification proves that every solved basis member is a member; this
oracle proves that none is missing. The space at (lam, mu, gamma, k, l) is
the kernel of one linear map R on gl(n),

    d -> (d alpha - alpha d, d beta - beta d,
          lam d([e_i,e_j]) - mu [d e_i, m e_j] - gamma [m e_i, d e_j]),

m = alpha^k beta^l. R is built here from the dense structure table and the
twists alone, with m multiplied in the test; nothing reads the solver's
commutant, blocks, constants or int view. Over Q, R is reduced mod a
Mersenne prime P that divides no denominator of its inputs; cleared of
denominators, R is an integer matrix whose rank mod P is at most its rank
over Q. So rank_P(R) >= n^2 - dim bounds the kernel over Q by dim, and
with dim re-verified independent members the solved space is all of it.
Over F_p the rank is taken in F_p itself. An unlucky P could only make the
certificate fail, never pass wrongly.
"""

import random
from fractions import Fraction
from itertools import product

from bihomlie import catalog, heisenberg
from bihomlie.derivations import derivation_space, twist_commutant
from bihomlie.fields import ReductionError
from bihomlie.isomorphism import reduce_mod_p

# the 8 canonical triples of normalize_params, and two with lam != 1
TRIPLES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1),
           (1, 1, -1), (0, 1, -1), (2, 1, 0), (2, 1, 1))
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
MERSENNE = (2 ** 61 - 1, 2 ** 89 - 1)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _residues(L):
    """(P, table, alpha, beta, reduce): L's dense table and twists as ints
    mod P, P = p over F_p and otherwise the first Mersenne prime dividing
    no denominator; reduce maps a scalar of L's field to its residue."""
    field = L.field
    values = [Fraction(field.plain(x)) for plane in L.structure
              for row in plane for x in row]
    values += [Fraction(field.plain(x)) for t in (L.alpha, L.beta)
               for row in t.entries for x in row]
    P = field.characteristic or next(
        P for P in MERSENNE if all(v.denominator % P for v in values))

    def reduce(x):
        v = Fraction(field.plain(field.coerce(x)))
        return v.numerator * pow(v.denominator, -1, P) % P

    table = [[[reduce(x) for x in row] for row in plane]
             for plane in L.structure]
    alpha, beta = ([[reduce(x) for x in row] for row in t.entries]
                   for t in (L.alpha, L.beta))
    return P, table, alpha, beta, reduce


def _mul(a, b, P):
    return [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*b)]
            for row in a]


def _support(rows):
    """The nonzero (index, entry) pairs of every row."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def _rows(n, table, twists, m, lam, mu, gamma):
    """The rows of R mod P as {column: coefficient}, column u * n + v for
    d_uv (the columns of a matrix hold basis images)."""
    rows = {}

    def add(key, col, x):
        row = rows.setdefault(key, {})
        row[col] = row.get(col, 0) + x

    for name, t in zip(("alpha", "beta"), twists):
        # (d t - t d)_ij = sum_s d_is t_sj - t_is d_sj
        for s, t_row in enumerate(_support(t)):
            for j, x in t_row:
                for i in range(n):
                    add((name, i, j), i * n + s, x)
                    add((name, s, i), j * n + i, -x)
    m_rows = _support(m)
    for p, q, b in product(range(n), repeat=3):
        c = table[p][q][b]
        if not c:
            continue
        for i in range(n):
            # lam d([e_p, e_q]) at i: lam c_pq^b d_ib
            add((p, q, i), i * n + b, lam * c)
        # [d e_i, m e_j] at b holds d_pi m_qj c_pq^b, and
        # [m e_j, d e_i] at b holds m_pj d_qi c_pq^b
        for j, x in m_rows[q]:
            for i in range(n):
                add((i, j, b), p * n + i, -mu * c * x)
        for j, x in m_rows[p]:
            for i in range(n):
                add((j, i, b), q * n + i, -gamma * c * x)
    return rows.values()


def _rank_reaches(rows, target, P):
    """Whether the rows mod P have rank at least target; the elimination
    stops once it does."""
    pivots = {}
    if target <= 0:
        return True
    for row in rows:
        row = {col: x % P for col, x in row.items() if x % P}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(row[col], -1, P)
                pivots[col] = {c: x * inverse % P for c, x in row.items()}
                if len(pivots) >= target:
                    return True
                break
            f = row[col]
            for c, x in pivot.items():
                y = (row.get(c, 0) - f * x) % P
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return False


def certificate_failures(L):
    """The cells (lam, mu, gamma, k, l) whose solved dimension the
    certificate does not bound from above."""
    n = L.n
    P, table, alpha, beta, reduce = _residues(L)
    failures = []
    for k, l in CELLS:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for t, e in ((alpha, k), (beta, l)):
            for _ in range(e):
                m = _mul(m, t, P)
        for triple in TRIPLES:
            dim = derivation_space(L, *triple, k, l).dim
            rows = _rows(n, table, (alpha, beta), m,
                         *(reduce(x) for x in triple))
            if not _rank_reaches(rows, n * n - dim, P):
                failures.append((*triple, k, l))
    return failures


def _samples():
    """Every catalog family at every pinned sample, over Q."""
    return [("%s %r" % (fid, params), catalog.build(fid, params))
            for fid in catalog.family_ids()
            for params in catalog.pinned_samples(fid)]


def _failures(corpus):
    return [(name, cell) for name, L in corpus
            for cell in certificate_failures(L)]


def test_certificate_on_the_pinned_samples():
    assert _failures(_samples()) == []


def test_certificate_on_twisted_heisenberg_up_to_n17():
    # b and y are 2m distinct small primes, drawn with a fixed seed
    rng = random.Random(20)
    corpus = []
    for m in range(1, 9):
        primes = rng.sample(SMALL_PRIMES, 2 * m)
        corpus.append(("heisenberg(%d, 6, 10, %r, %r)"
                       % (m, primes[:m], primes[m:]),
                       heisenberg(m, 6, 10, primes[:m], primes[m:])))
    assert _failures(corpus) == []


def test_certificate_on_twisted_heisenberg_mod_5_and_7():
    # b and y drawn as above but without p. At m = 3, and at m = 4 mod 5,
    # twist eigenvalues collide, so the commutant is not the diagonals
    corpus = []
    for p in (5, 7):
        rng = random.Random(20)
        pool = [q for q in SMALL_PRIMES if q != p]
        for m in range(1, 5):
            primes = rng.sample(pool, 2 * m)
            corpus.append(("heisenberg(%d, 6, 10, %r, %r) mod %d"
                           % (m, primes[:m], primes[m:], p),
                           reduce_mod_p(heisenberg(m, 6, 10, primes[:m],
                                                   primes[m:]), p)))
    assert [twist_commutant(L).dim for _, L in corpus] == [3, 5, 9, 11,
                                                           3, 5, 9, 9]
    assert _failures(corpus) == []


def test_certificate_on_the_census_corpus_mod_3():
    corpus = []
    for name, L in _samples():
        try:
            corpus.append((name + " mod 3", reduce_mod_p(L, 3)))
        except ReductionError:
            pass
    assert len(corpus) >= 60
    assert _failures(corpus) == []
