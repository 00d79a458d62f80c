"""Structural invariants: centers, series, ideals, nilpotency-type flags,
and the direct-sum decomposition.

All subspace computations go through the canonicalized VectorSubspace /
MatrixSubspace types, so equality assertions in reports are structural.
Brackets of vectors (products of subspaces, the restriction to a piece)
come from L.bracket, and the centralizer's maps are read off L's nonzero
structure constants; neither reads the dense structure table.
"""

from functools import reduce
from itertools import product
from operator import mul

from .algebra import BiHomLieAlgebra
from .linalg import (Matrix, MatrixSubspace, VectorSubspace, char_poly,
                     nullspace_basis, rank)
from .derivations import (MAX_SEARCH_CANDIDATES, centroid, commutator,
                          derivation_space)


class ClosureError(ValueError):
    """A computed operator space is not commutator-closed, so treating it
    as a matrix Lie algebra would silently lie; raised instead."""


class SeriesReport:

    __slots__ = ("kind", "dims", "terminated_at_zero", "steps")

    def __init__(self, kind, dims, terminated_at_zero):
        self.kind = kind
        self.dims = tuple(dims)
        self.terminated_at_zero = terminated_at_zero
        self.steps = len(dims) - 1 if terminated_at_zero else None

    def __repr__(self):
        return "SeriesReport(%s, dims=%r, zero=%s)" % (
            self.kind, list(self.dims), self.terminated_at_zero)


def _refuse_foreign(L, *spaces):
    """ValueError unless every space is a subspace of L."""
    for S in spaces:
        if (S.ambient_dim, S.field) != (L.n, L.field):
            raise ValueError("not a subspace of L: dimension %d over %r"
                             % (S.ambient_dim, S.field))


def product_subspace(L, S, T):
    """Span of all brackets [s, t] over the two bases."""
    _refuse_foreign(L, S, T)
    vecs = [L.bracket(s, t) for s in S.basis for t in T.basis]
    return VectorSubspace(L.n, vecs, L.field)


def derived_subalgebra(L):
    f = VectorSubspace.full(L.n, L.field)
    return product_subspace(L, f, f)


def center(L, two_sided=False):
    """{x : [x, y] = 0 for all y}; the flag also demands [y, x] = 0.

    The one-sided version is the default: with twisted skew-symmetry the
    left and right conditions genuinely differ.
    """
    return _centralizer(L, Matrix.identity(L.n, L.field).entries, two_sided)


def centralizer(L, S):
    """{x : [x, s] = 0 for every s in S}."""
    _refuse_foreign(L, S)
    return _centralizer(L, S.basis)


def _centralizer(L, vectors, two_sided=False):
    """The annihilator kernel: {x : [x, s] = 0 for every s in vectors},
    two_sided also demanding [s, x] = 0. It is the nullspace of the maps
    x -> [x, s] (and x -> [s, x]), their columns sum_q s_q [e_i, e_q] (and
    sum_p s_p [e_p, e_i]) read off the nonzero structure constants."""
    n, zero, constants = L.n, L.field.zero(), L._constants
    rows = []
    for s in vectors:
        right, left = ([[zero] * n for _ in range(n)] for _ in range(2))
        for (p, q, t), c in constants.items():
            if s[q]:
                right[t][p] += s[q] * c
            if two_sided and s[p]:
                left[t][q] += s[p] * c
        rows += right + (left if two_sided else [])
    sols = nullspace_basis(Matrix(rows or [[zero] * n], L.field))
    return VectorSubspace._of(n, sols, L.field)


def _descend(first, step):
    """Dimensions of first, step(first), step(step(first)), ... up to the
    first zero term or the first repeat; (dims, whether zero was reached)."""
    dims = [first.dim]
    current = first
    while current.dim:
        nxt = step(current)
        if nxt == current:
            return dims, False
        current = nxt
        dims.append(current.dim)
    return dims, True


def lower_central_series(L):
    full = VectorSubspace.full(L.n, L.field)
    return SeriesReport("lower_central", *_descend(
        full, lambda s: product_subspace(L, full, s)))


def derived_series(L):
    full = VectorSubspace.full(L.n, L.field)
    return SeriesReport("derived", *_descend(
        full, lambda s: product_subspace(L, s, s)))


def is_nilpotent(L):
    return lower_central_series(L).terminated_at_zero


def is_solvable(L):
    return derived_series(L).terminated_at_zero


def is_ideal(L, S):
    """Twist-invariant and bracket-absorbing on both sides: one inclusion
    of alpha(S), beta(S), [S, L] and [L, S] in S."""
    full = VectorSubspace.full(L.n, L.field)
    return S.contains_subspace(VectorSubspace(L.n, [
        *(t.apply(v) for t in (L.alpha, L.beta) for v in S.basis),
        *product_subspace(L, S, full).basis,
        *product_subspace(L, full, S).basis], L.field))


def ker_alpha_plus_ker_beta(L):
    return VectorSubspace(L.n, nullspace_basis(L.alpha)
                          + nullspace_basis(L.beta), L.field)


def is_characteristically_nilpotent(L):
    """Whether the (1,1,1) derivation space at exponents (0,0) is a
    nilpotent matrix Lie algebra. This is not the classical notion
    (Dixmier and Lister), which asks that every derivation act nilpotently
    on L; the two differ on 8 of the 25 catalog families.

    Commutator closure of the computed span is verified first; a non-closed
    span raises ClosureError rather than running the series on a non-algebra.
    """
    space = derivation_space(L, 1, 1, 1, 0, 0)

    def brackets(cur):
        return MatrixSubspace(L.n, [commutator(a, b) for a in space.basis
                                    for b in cur.basis], L.field)

    derived = brackets(space)
    if not space.contains_subspace(derived):
        raise ClosureError("derivation space is not closed under commutators")
    return _descend(derived, brackets)[1]


def _strictly_central_maps(L, gamma00):
    """Members of both the centroid gamma00 and the derivation space at
    exponents (0,0) whose image lies in the central part of the derived
    subalgebra and which kill the derived subalgebra.

    The maps with that image and kernel are spanned by t w^T, with t in
    the intersection of the center and L^2 and w in the annihilator of L^2.
    """
    der00 = derivation_space(L, 1, 1, 1, 0, 0)
    pool = gamma00.intersection(der00)
    if pool.dim == 0:
        return pool
    l2 = derived_subalgebra(L)
    target = center(L).intersection(l2)
    maps = [Matrix([[a * b for b in w] for a in t], L.field)
            for t in target.basis for w in _annihilator(l2, L.n, L.field)]
    return pool.intersection(MatrixSubspace(L.n, maps, L.field))


def _annihilator(S, n, field):
    """Functionals vanishing exactly on S: rows of a matrix with kernel S.
    w vanishes on S iff it is orthogonal to each basis row, so these span
    the nullspace of the stacked basis (of a zero row when S = 0)."""
    return nullspace_basis(Matrix(S.basis or [[field.zero()] * n], field))


def is_small_centroid(L):
    """Whether the centroid at exponents (0,0) is generated by the scalars
    together with central derivations in the strong sense: maps in both
    the centroid and the derivation space whose image lies in the central
    part of the derived subalgebra and which kill the derived subalgebra.
    """
    gamma00 = centroid(L, 0, 0)
    k = _strictly_central_maps(L, gamma00)
    span = MatrixSubspace(L.n, [Matrix.identity(L.n, L.field), *k.basis],
                          L.field)
    return span.contains_subspace(gamma00)


def decompose(L):
    """Split L into twist-invariant ideals as far as its two-sided centroid
    C2 shows: (summands, complete), the summands VectorSubspaces sorted by
    their canonical bases. See the README for the derivation.

    A piece is split at the Fitting pieces ker (c-r)^n and im (c-r)^n of
    the first basis member c of its C2 and eigenvalue r in the field that
    give two nonzero ideals, and each piece is decomposed again as an
    algebra of its own. A piece that does not split is certified
    indecomposable when its C2 is the scalars (dim 1, as C2 holds I), over
    Q when the trace form of its C2 has rank 1, over F_p when a scan of
    its C2 finds no idempotent other than 0 and 1. complete is False when
    some piece is neither split nor certified.
    """
    field = L.field
    summands, complete = [], True
    pieces = [VectorSubspace.full(L.n, field)]
    while pieces:
        W = pieces.pop()
        split, certified = _split(_restrict(L, W))
        if split is None:
            summands.append(W)
            complete = complete and certified
            continue
        embed = Matrix(list(zip(*W.basis)), field)
        pieces += [VectorSubspace(L.n, map(embed.apply, S.basis), field)
                   for S in split]
    summands.sort(key=lambda S: [list(map(field.plain, v)) for v in S.basis])
    return summands, complete


def _restrict(L, W):
    """L on the twist-invariant ideal W, in the coordinates of W's reduced
    row echelon basis: those of a vector of W sit at its pivot columns."""
    pivots = [next(i for i, x in enumerate(w) if x) for w in W.basis]

    def coords(v):
        return [v[i] for i in pivots]

    table = [[coords(L.bracket(u, w)) for w in W.basis] for u in W.basis]
    alpha, beta = (zip(*[coords(t.apply(w)) for w in W.basis])
                   for t in (L.alpha, L.beta))
    return BiHomLieAlgebra(table, alpha, beta, L.field)


def _split(L):
    """(the Fitting pieces of a split of L, True), or (None, whether L is
    certified indecomposable)."""
    n, field, p = L.n, L.field, L.field.characteristic
    c2 = centroid(L, 0, 0).intersection(derivation_space(L, 1, 0, 1))
    if c2.dim == 1:     # C2 holds the identity: here it is the scalars
        return None, True
    one = Matrix.identity(n, field)
    for c in c2.basis:
        for r in _eigenvalues(c):
            split = _fitting(c - one * r)
            if split:
                return split, True
    if not p:
        gram = [[sum((a * b).entries[i][i] for i in range(n))
                 for b in c2.basis] for a in c2.basis]
        return None, rank(Matrix(gram, field)) == 1
    if p ** c2.dim > MAX_SEARCH_CANDIDATES:
        return None, False
    for xs in product(range(p), repeat=c2.dim):
        e = sum(map(mul, c2.basis, xs), Matrix.zero(n, n, field))
        split = _fitting(e) if e * e == e else None
        if split:
            return split, True
    return None, True


def _fitting(f):
    """(ker f^n, im f^n) when both are nonzero, else None."""
    g = f ** f.rows
    ker = nullspace_basis(g)
    if not ker or len(ker) == f.rows:
        return None
    return (VectorSubspace._of(f.rows, ker, f.field),
            VectorSubspace(f.rows, g.transpose().entries, f.field))


def _eigenvalues(c):
    """The roots of c's characteristic polynomial in its field, among every
    residue over F_p; over Q among 0 and +-u/v, u dividing the lowest
    nonzero coefficient m and v the leading one den of the polynomial in
    integers, tried only when den * m <= MAX_SEARCH_CANDIDATES."""
    field, poly = c.field, char_poly(c)
    if field.characteristic:
        candidates = map(field, range(field.characteristic))
    else:
        candidates, den = [field(0)], 1
        for a in poly:
            den *= (a * den).denominator
        m = abs(next(a for a in reversed(poly) if a) * den).numerator
        if den * m <= MAX_SEARCH_CANDIDATES:
            candidates += sorted({field(s * u, v) for u in range(1, m + 1)
                                  if m % u == 0 for v in range(1, den + 1)
                                  if den % v == 0 for s in (1, -1)})
    return [r for r in candidates
            if not reduce(lambda v, a: v * r + a, poly, field.zero())]
