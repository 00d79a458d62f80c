"""Structural invariants: centers, series, ideals, nilpotency-type flags.

All subspace computations go through the canonicalized VectorSubspace /
MatrixSubspace types, so equality assertions in reports are structural.
"""

import math
from fractions import Fraction

from .algebra import _unit
from .linalg import Matrix, MatrixSubspace, VectorSubspace, nullspace_basis
from .derivations import (central_derivations, centroid, commutator,
                          derivation_space)


class ClosureError(ValueError):
    """A computed operator space is not commutator-closed, so treating it
    as a matrix Lie algebra would silently lie; raised instead."""


class UnsupportedFieldError(ValueError):
    """The answer would require eigenvalues outside the base field."""


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


def product_subspace(L, S, T):
    """Span of all brackets [s, t] over the two bases."""
    vecs = [L.bracket(s, t) for s in S.basis for t in T.basis]
    return VectorSubspace(L.n, vecs, L.field)


def derived_subalgebra(L):
    f = VectorSubspace.full(L.n, L.field)
    return product_subspace(L, f, f)


def _bracket_maps(L, j):
    """Rows of the matrices of x -> [x, e_j] and x -> [e_j, x], read off
    the structure table (columns hold images)."""
    c, r = L.structure, range(L.n)
    return ([[c[i][j][s] for i in r] for s in r],
            [[c[j][i][s] for i in r] for s in r])


def center(L, two_sided=False):
    """{x : [x, y] = 0 for all y}; the flag also demands [y, x] = 0.

    The one-sided version is the default: with twisted skew-symmetry the
    left and right conditions genuinely differ.
    """
    rows = []
    for j in range(L.n):
        right, left = _bracket_maps(L, j)
        rows += right + (left if two_sided else [])
    sols = nullspace_basis(Matrix(rows, L.field))
    return VectorSubspace(L.n, sols, L.field)


def centralizer(L, S):
    """{x : [x, s] = 0 for every s in S}."""
    n = L.n
    if not S.basis:
        return VectorSubspace.full(n, L.field)
    rows = []
    for s_vec in S.basis:
        cols = [L.bracket(_unit(n, i, L.field), s_vec) for i in range(n)]
        for out_coord in range(n):
            rows.append([cols[i][out_coord] for i in range(n)])
    sols = nullspace_basis(Matrix(rows, L.field))
    return VectorSubspace(n, sols, L.field)


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
    """Twist-invariant and bracket-absorbing on both sides."""
    n = L.n
    for v in S.basis:
        if not S.contains(L.alpha.apply(v)):
            return False
        if not S.contains(L.beta.apply(v)):
            return False
        for j in range(n):
            ej = _unit(n, j, L.field)
            if not S.contains(L.bracket(v, ej)):
                return False
            if not S.contains(L.bracket(ej, v)):
                return False
    return True


def ker_alpha_plus_ker_beta(L):
    ka = VectorSubspace(L.n, nullspace_basis(L.alpha), L.field)
    kb = VectorSubspace(L.n, nullspace_basis(L.beta), L.field)
    return ka.sum(kb)


def is_characteristically_nilpotent(L):
    """Whether the (1,1,1) derivation space at exponents (0,0) is a
    nilpotent matrix Lie algebra.

    Commutator closure of the computed span is verified first; a non-closed
    span raises ClosureError rather than running the series on a non-algebra.
    """
    space = derivation_space(L, 1, 1, 1, 0, 0).space
    for a in space.basis:
        for b in space.basis:
            if not space.contains(commutator(a, b)):
                raise ClosureError(
                    "derivation space is not closed under commutators")
    return _descend(space, lambda cur: MatrixSubspace(
        L.n, [commutator(a, b) for a in space.basis for b in cur.basis],
        L.field))[1]


def _strictly_central_maps(L, gamma00):
    """Members of both the centroid gamma00 and the derivation space at
    exponents (0,0) whose image lies in the central part of the derived
    subalgebra and which kill the derived subalgebra.

    The maps with that image and kernel are spanned by t w^T, with t in
    the intersection of the center and L^2 and w in the annihilator of L^2.
    """
    der00 = derivation_space(L, 1, 1, 1, 0, 0).space
    pool = gamma00.intersection(der00)
    if pool.dim == 0:
        return pool
    l2 = derived_subalgebra(L)
    target = center(L).intersection(l2)
    maps = [Matrix([[a * b for b in w] for a in t], L.field)
            for t in target.basis for w in _annihilator(l2, L.n, L.field)]
    return pool.intersection(MatrixSubspace(L.n, maps, L.field))


def _annihilator(S, n, field):
    """Functionals vanishing exactly on S: rows of a matrix with kernel S."""
    if S.dim == n:
        return []
    if S.dim == 0:
        return [list(r) for r in Matrix.identity(n, field).entries]
    # w works as a functional vanishing on S iff w is orthogonal to each
    # basis row, i.e. w lies in the nullspace of the stacked basis
    basis_matrix = Matrix([list(v) for v in S.basis], field)
    return [list(v) for v in nullspace_basis(basis_matrix)]


def is_small_centroid(L, mode="strict"):
    """Whether the centroid at exponents (0,0) is generated by central
    derivations together with the scalars.

    mode "strict": central derivations are taken in the strong sense of
    maps in both the centroid and the derivation space whose image lies in
    the central part of the derived subalgebra and which kill the derived
    subalgebra. mode "cder_span": the weaker span test against the
    intersection-style central derivation space; kept because the two
    disagree on some algebras and callers may want both verdicts.
    """
    gamma00 = centroid(L, 0, 0).space
    if mode == "strict":
        k = _strictly_central_maps(L, gamma00)
        gens = [Matrix.identity(L.n, L.field)] + list(k.basis)
    elif mode == "cder_span":
        cder = central_derivations(L, 0, 0).space
        gens = [Matrix.identity(L.n, L.field)] + list(cder.basis)
    else:
        raise ValueError("unknown mode %r" % (mode,))
    span = MatrixSubspace(L.n, gens, L.field)
    return span.contains_subspace(gamma00)


class Decomposition2:

    __slots__ = ("pair", "split_holds", "agrees")

    def __init__(self, pair, split_holds):
        self.pair = pair
        self.split_holds = split_holds
        self.agrees = (pair is not None) == split_holds

    def __repr__(self):
        return "Decomposition2(pair=%r, split_holds=%s)" % (
            self.pair, self.split_holds)


def _rational_sqrt(x):
    x = Fraction(x)
    if x < 0:
        return None
    rn, rd = _int_sqrt(x.numerator), _int_sqrt(x.denominator)
    return None if rn is None or rd is None else Fraction(rn, rd)


def _int_sqrt(v):
    r = math.isqrt(v)
    return r if r * r == v else None


def _rational_eigenvalues(m):
    """Distinct rational eigenvalues of a 2x2 matrix, ascending."""
    (a, b), (c, d) = m.entries
    tr, det = a + d, a * d - b * c
    root = _rational_sqrt(tr * tr - 4 * det)
    if root is None:
        return []
    return sorted({(tr - root) / 2, (tr + root) / 2})


def _check_rational_spectrum(m):
    """2x2 only: raise unless the eigenvalues lie in the rationals."""
    if not _rational_eigenvalues(m):
        raise UnsupportedFieldError(
            "twist map has eigenvalues outside the rationals")


def _candidate_lines(L):
    """Lines that could be ideals (2-dim only), as spanning vectors.

    An ideal line is an eigenline of alpha, of beta and of every bracket
    map x -> [x, e_j], x -> [e_j, x]. Over Q the candidates are therefore
    the eigenlines of the first non-scalar map among these; when all are
    scalar, every line is an ideal and the two coordinate lines suffice.
    Over a prime field all p+1 lines are listed.
    """
    field = L.field
    zero, one = field.zero(), field.one()
    if field.characteristic:
        return [(one, zero)] + [(field(t), one)
                                for t in range(field.characteristic)]
    maps = [L.alpha.entries, L.beta.entries]
    for j in range(2):
        maps.extend(_bracket_maps(L, j))
    for rows in maps:
        (a, b), (c, d) = rows
        if b != zero or c != zero or a != d:
            m = Matrix(rows, field)
            return [v for lam in _rational_eigenvalues(m)
                    for v in nullspace_basis(
                        m - Matrix.identity(2, field) * lam)]
    return [(one, zero), (zero, one)]


def decompose_2dim(L):
    """Split into two 1-dimensional ideals when possible (2-dim only).

    The pair is the first two ideal lines found. Over Q the candidates are
    the rational eigenlines of the first non-scalar map among alpha, beta
    and the bracket maps x -> [x, e_j], x -> [e_j, x] (the coordinate lines
    when all are scalar); over F_p they are all p+1 lines. is_ideal decides
    each candidate.

    Also evaluates whether L equals derived-subalgebra plus center as a
    direct sum; agrees says whether split and pair are both present or both
    absent. They are different notions: agrees is False on the abelian
    algebra with alpha a Jordan block, where L = 0 + Z(L) splits but only
    one line is twist-invariant.
    Rational twist spectra are required over the rationals; anything else
    raises UnsupportedFieldError rather than guessing.
    """
    if L.n != 2:
        raise ValueError("only 2-dimensional algebras are supported")
    if not L.field.characteristic:
        _check_rational_spectrum(L.alpha)
        _check_rational_spectrum(L.beta)
    lines = [VectorSubspace(2, [v], L.field) for v in _candidate_lines(L)]
    ideal_lines = [s for s in lines if is_ideal(L, s)]
    pair = tuple(ideal_lines[:2]) if len(ideal_lines) >= 2 else None
    l2 = derived_subalgebra(L)
    c = center(L)
    split_holds = l2.intersection(c).dim == 0 and l2.sum(c).dim == 2
    return Decomposition2(pair, split_holds)
