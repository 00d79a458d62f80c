"""Isomorphism witnesses, basis-independent fingerprints, and an
exhaustive finite-field witness search for small dimensions.

A witness f must be invertible, intertwine both twist maps, and carry
every bracket of the source to the matching bracket of the target.
Fingerprints collect invariants that any witness preserves; they can
certify that no witness exists, never that one does.
"""

from itertools import product as cartesian

from .algebra import BiHomLieAlgebra, _conjugate
from .derivations import SolveContext
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

MAX_SEARCH_DIM = 3


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
    if L.n != L2.n:
        raise ValueError("dimension mismatch: %d vs %d" % (L.n, L2.n))
    if L.field != L2.field:
        raise ValueError("the algebras live over different fields")
    f = _as_witness(f, L)
    if not is_invertible(f):
        return False
    if f * L.alpha != L2.alpha * f or f * L.beta != L2.beta * f:
        return False
    for i in range(L.n):
        for j in range(L.n):
            image = f.apply(L.bracket_basis(i, j))
            if image != L2.bracket(f.col(i), f.col(j)):
                return False
    return True


def transport(L, f):
    """Push the whole structure through an invertible map.

    The result is the unique algebra making f an isomorphism out of L:
    brackets and twists are conjugated, so every axiom carries over.
    """
    f = _as_witness(f, L)
    finv = invert(f)
    pulled = _conjugate(L.structure, finv.entries, finv.entries,
                        L.field.zero())
    table = [[f.apply(cell) for cell in plane] for plane in pulled]
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
    context = SolveContext(L)
    der_dims = {}
    for lam, mu, gamma in CANONICAL_TRIPLES:
        for k in range(2):
            for l in range(2):
                space = context.solve(lam, mu, gamma, k, l)
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
    for row in L.structure:
        for cell in row:
            for v in cell:
                yield v
    for m in (L.alpha, L.beta):
        for row in m.entries:
            for v in row:
                yield v


def smallest_admissible_prime(L):
    """Least prime dividing no denominator of the structure data."""
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
    zero = field.zero()
    try:
        table = [[[field.coerce(v) if v else zero for v in row]
                  for row in plane] for plane in L.structure]
        alpha = Matrix(L.alpha.entries, field)
        beta = Matrix(L.beta.entries, field)
    except ReductionError as exc:
        raise ReductionError(
            "%s; smallest admissible prime is %d"
            % (exc, smallest_admissible_prime(L))) from None
    return BiHomLieAlgebra(table, alpha, beta, field)


def brute_force_iso(L, L2, p):
    """First witness in entry-lexicographic order over F_p, else None.

    Scans all of GL_n(F_p), so the verdict is definitive for the reduced
    pair. Rational inputs are reduced mod p first.
    """
    if L.n != L2.n:
        raise ValueError("dimension mismatch: %d vs %d" % (L.n, L2.n))
    if L.n > MAX_SEARCH_DIM:
        raise ValueError(
            "exhaustive search is limited to dimension <= %d" % MAX_SEARCH_DIM)
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
    field = GF(p)
    n = L.n
    for digits in cartesian(range(p), repeat=n * n):
        f = Matrix([list(digits[r * n:(r + 1) * n]) for r in range(n)], field)
        if not is_invertible(f):
            continue
        if verify_isomorphism(Lp, L2p, f):
            return f
    return None
