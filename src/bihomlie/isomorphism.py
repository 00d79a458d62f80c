"""Isomorphism witnesses, basis-independent fingerprints, and an
exhaustive finite-field witness search.

A witness f must be invertible, intertwine both twist maps, and carry
every bracket of the source to the matching bracket of the target, checked
as one morphism residual over both algebras' constants. The structure data
are read from the constants, never from the dense table.
Fingerprints collect invariants that any witness preserves; they can
certify that no witness exists, never that one does. The search scans the
intertwiner space, which holds every witness: p^d members, not p^(n^2).
"""

from itertools import product as cartesian

from .algebra import (BiHomLieAlgebra, _dense, _morphism_violation, _pullback,
                      _pushforward)
from .derivations import (MAX_SEARCH_CANDIDATES, _refuse_mismatch,
                          derivation_space, intertwiners)
from .fields import GF, ReductionError, _is_prime
from .linalg import Matrix, char_poly, invert, is_invertible, rank
from .structure import (center, derived_series, derived_subalgebra,
                        lower_central_series)

# one representative per coefficient-triple class, the scan grid for
# fingerprint derivation dimensions
CANONICAL_TRIPLES = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
    (0, 1, 0), (0, 1, 1), (1, 1, -1), (0, 1, -1),
)


def _as_witness(f, L):
    if isinstance(f, Matrix):
        if f.field != L.field:
            raise ValueError("witness field does not match the algebras")
    else:
        f = Matrix(f, L.field)
    if f.rows != L.n or f.cols != L.n:
        raise ValueError("witness must be %d x %d" % (L.n, L.n))
    return f


def verify_isomorphism(L, L2, f):
    """True iff f is an invertible map from L to L2 intertwining the
    twists and every bracket."""
    _refuse_mismatch(L, L2)
    f = _as_witness(f, L)
    if not is_invertible(f):
        return False
    if f * L.alpha != L2.alpha * f or f * L.beta != L2.beta * f:
        return False
    return _morphism_violation(L._constants, L2._constants, f.entries,
                               "isomorphism") is None


def transport(L, f):
    """Push the whole structure through an invertible map.

    The result is the unique algebra making f an isomorphism out of L:
    brackets and twists are conjugated, so every axiom carries over.
    """
    f = _as_witness(f, L)
    finv = invert(f)
    pulled = _pullback(L._constants, finv.entries, finv.entries)
    table = _dense(L.n, _pushforward(pulled, f.entries), L.field.zero())
    return BiHomLieAlgebra(table, f * L.alpha * finv, f * L.beta * finv,
                           L.field)


class Fingerprint:
    """Basis-independent profile of one algebra.

    Differing fingerprints certify non-isomorphism. Equal fingerprints
    decide nothing: the invariants are not complete.
    """

    __slots__ = ("dim", "rank_alpha", "rank_beta", "dim_bracket_image",
                 "dim_center", "lower_central_dims", "derived_dims",
                 "der_dims", "char_poly_alpha", "char_poly_beta")

    def __init__(self, dim, rank_alpha, rank_beta, dim_bracket_image,
                 dim_center, lower_central_dims, derived_dims, der_dims,
                 char_poly_alpha, char_poly_beta):
        self.dim = dim
        self.rank_alpha = rank_alpha
        self.rank_beta = rank_beta
        self.dim_bracket_image = dim_bracket_image
        self.dim_center = dim_center
        self.lower_central_dims = tuple(lower_central_dims)
        self.derived_dims = tuple(derived_dims)
        self.der_dims = dict(der_dims)
        self.char_poly_alpha = tuple(char_poly_alpha)
        self.char_poly_beta = tuple(char_poly_beta)

    def as_tuple(self):
        keys = sorted(self.der_dims)
        return (self.dim, self.rank_alpha, self.rank_beta,
                self.dim_bracket_image, self.dim_center,
                self.lower_central_dims, self.derived_dims,
                tuple((key, self.der_dims[key]) for key in keys),
                self.char_poly_alpha, self.char_poly_beta)

    def __eq__(self, other):
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return ("Fingerprint(dim=%d, ranks=(%d,%d), bracket_image=%d, "
                "center=%d)" % (self.dim, self.rank_alpha, self.rank_beta,
                                self.dim_bracket_image, self.dim_center))


def fingerprint(L):
    """Deterministic invariant profile; see Fingerprint."""
    der_dims = {}
    for lam, mu, gamma in CANONICAL_TRIPLES:
        for k in range(2):
            for l in range(2):
                space = derivation_space(L, lam, mu, gamma, k, l)
                der_dims[(lam, mu, gamma, k, l)] = space.dim
    return Fingerprint(
        dim=L.n,
        rank_alpha=rank(L.alpha),
        rank_beta=rank(L.beta),
        dim_bracket_image=derived_subalgebra(L).dim,
        dim_center=center(L).dim,
        lower_central_dims=lower_central_series(L).dims,
        derived_dims=derived_series(L).dims,
        der_dims=der_dims,
        char_poly_alpha=char_poly(L.alpha),
        char_poly_beta=char_poly(L.beta))


def compare_fingerprints(a, b):
    """'distinct' certifies non-isomorphism; anything else is
    'inconclusive', never a positive verdict."""
    return "inconclusive" if a == b else "distinct"


def _iter_values(L):
    yield from L._constants.values()
    yield from (v for m in (L.alpha, L.beta) for row in m.entries for v in row)


def smallest_admissible_prime(L):
    """Least prime dividing no denominator of the structure data."""
    if L.field.characteristic:
        raise ValueError("the algebra is already over a finite field")
    dens = {v.denominator for v in _iter_values(L)}
    p = 2
    while not (_is_prime(p) and all(d % p for d in dens)):
        p += 1
    return p


def reduce_mod_p(L, p):
    """Reduce a rational algebra mod p.

    Every denominator must be coprime to p; the error otherwise names the
    smallest prime that would work. Identities survive reduction, so the
    result satisfies the axioms whenever the source does.
    """
    if L.field.characteristic:
        raise ValueError("the algebra is already over a finite field")
    field = GF(p)
    try:
        table = _dense(L.n, {key: field.coerce(v) for key, v
                             in L._constants.items()}, field.zero())
        alpha = Matrix(L.alpha.entries, field)
        beta = Matrix(L.beta.entries, field)
    except ReductionError as exc:
        raise ReductionError(
            "%s; smallest admissible prime is %d"
            % (exc, smallest_admissible_prime(L))) from None
    return BiHomLieAlgebra(table, alpha, beta, field)


def brute_force_iso(L, L2, p):
    """First witness in entry-lexicographic order over F_p, else None.

    Every witness lies in the intertwiner space, so the search scans its
    p^d members in coefficient-lexicographic order; the basis is in reduced
    row echelon form, so that order is entry-lexicographic, and row i of a
    candidate is fixed by the members with pivots in rows up to i. A prefix
    that fixes a zero row is skipped: its completions are singular. The
    verdict is definitive for the reduced pair. Rational inputs are reduced
    mod p first; more than MAX_SEARCH_CANDIDATES members are refused up
    front.
    """
    if L.n != L2.n:
        raise ValueError("dimension mismatch: %d vs %d" % (L.n, L2.n))
    reduced = []
    for A in (L, L2):
        if not A.field.characteristic:
            reduced.append(reduce_mod_p(A, p))
        elif A.field.characteristic == p:
            reduced.append(A)
        else:
            raise ValueError("algebra is over F_%d, not F_%d"
                             % (A.field.characteristic, p))
    Lp, L2p = reduced
    space = intertwiners(Lp, L2p)
    if p ** space.dim > MAX_SEARCH_CANDIDATES:
        raise ValueError(
            "witness search over %d^%d = %d candidates exceeds the cap of %d"
            % (p, space.dim, p ** space.dim, MAX_SEARCH_CANDIDATES))
    n = L.n
    vecs = [b.vectorize() for b in space.basis]
    # per entry of a candidate, the basis members nonzero there
    entries = [[(r, Lp.field.plain(v[t])) for r, v in enumerate(vecs)
                if v[t]] for t in range(n * n)]
    pivot_rows = [next(t for t, x in enumerate(v) if x) // n for v in vecs]

    def row(coeffs, i):
        return [sum(coeffs[r] * x for r, x in entries[t]) % p
                for t in range(i * n, i * n + n)]

    def walk(coeffs, i):
        # coeffs fix rows 0..i-1, none of them zero
        if i == n:
            yield coeffs
            return
        for block in cartesian(range(p), repeat=pivot_rows.count(i)):
            if any(row(coeffs + block, i)):
                yield from walk(coeffs + block, i + 1)

    for coeffs in walk((), 0):
        f = Matrix([row(coeffs, i) for i in range(n)], Lp.field)
        if verify_isomorphism(Lp, L2p, f):
            return f
    return None
