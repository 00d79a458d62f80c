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


def center(L, two_sided=False):
    """{x : [x, y] = 0 for all y}; the flag also demands [y, x] = 0.

    The one-sided version is the default: with twisted skew-symmetry the
    left and right conditions genuinely differ.
    """
    n = L.n
    rows = []
    for j in range(n):
        # map x -> [x, e_j]; its matrix has columns [e_i, e_j]
        for s in range(n):
            rows.append([L.structure[i][j][s] for i in range(n)])
    if two_sided:
        for j in range(n):
            for s in range(n):
                rows.append([L.structure[j][i][s] for i in range(n)])
    sols = nullspace_basis(Matrix(rows, L.field))
    return VectorSubspace(n, sols, L.field)


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


def _series(L, kind):
    current = VectorSubspace.full(L.n, L.field)
    dims = [current.dim]
    while True:
        if kind == "lower_central":
            nxt = product_subspace(L, VectorSubspace.full(L.n, L.field),
                                   current)
        else:
            nxt = product_subspace(L, current, current)
        if nxt.dim == 0:
            dims.append(0)
            return SeriesReport(kind, dims, True)
        if nxt == current:
            return SeriesReport(kind, dims, False)
        current = nxt
        dims.append(current.dim)


def lower_central_series(L):
    return _series(L, "lower_central")


def derived_series(L):
    return _series(L, "derived")


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


def _matrix_space_series(basis_mats, n, field):
    """Lower central series of the matrix Lie algebra spanned by the basis."""
    v1 = MatrixSubspace(n, basis_mats, field)
    current = v1
    while True:
        prods = [commutator(a, b) for a in v1.basis for b in current.basis]
        nxt = MatrixSubspace(n, prods, field)
        if nxt.dim == 0:
            return True
        if nxt.equals(current):
            return False
        current = nxt


def is_characteristically_nilpotent(L):
    """Whether the (1,1,1) derivation space at exponents (0,0) is a
    nilpotent matrix Lie algebra.

    Commutator closure of the computed span is verified first; a non-closed
    span raises ClosureError rather than running the series on a non-algebra.
    """
    der = derivation_space(L, L.field.one(), L.field.one(), L.field.one(), 0, 0)
    if der.dim == 0:
        return True
    space = der.space
    for a in space.basis:
        for b in space.basis:
            if not space.contains(commutator(a, b)):
                raise ClosureError(
                    "derivation space is not closed under commutators")
    return _matrix_space_series(list(space.basis), L.n, L.field)


def _strictly_central_maps(L):
    """Members of both the centroid and the derivation space at exponents
    (0,0) whose image lies in the central part of the derived subalgebra
    and which kill the derived subalgebra."""
    one = L.field.one()
    gamma00 = centroid(L, 0, 0).space
    der00 = derivation_space(L, one, one, one, 0, 0).space
    pool = gamma00.intersection(der00)
    if pool.dim == 0:
        return pool
    l2 = derived_subalgebra(L)
    target = center(L).intersection(l2)
    # linear conditions on coordinates within the pool's basis
    rows = []
    k = pool.dim
    n = L.n
    for j in range(n):
        ej = _unit(n, j, L.field)
        images = [b.apply(ej) for b in pool.basis]
        # image of e_j must stay in `target`: express via quotient conditions
        for w in _cokernel_rows(target, n, L.field):
            rows.append([sum((w[s] * images[t][s] for s in range(n)),
                             L.field.zero()) for t in range(k)])
    for v in l2.basis:
        images = [b.apply(v) for b in pool.basis]
        for s in range(n):
            rows.append([images[t][s] for t in range(k)])
    if not rows:
        return pool
    sols = nullspace_basis(Matrix(rows, L.field))
    mats = []
    for coeffs in sols:
        m = Matrix.zero(n, n, L.field)
        for t in range(k):
            m = m + pool.basis[t] * coeffs[t]
        mats.append(m)
    return MatrixSubspace(n, mats, L.field)


def _cokernel_rows(S, n, field):
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
        k = _strictly_central_maps(L)
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
    num, den = x.numerator, x.denominator
    rn = _int_sqrt(num)
    rd = _int_sqrt(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _int_sqrt(v):
    r = math.isqrt(v)
    return r if r * r == v else None


def _check_rational_spectrum(m):
    """2x2 only: raise unless the eigenvalues lie in the rationals."""
    tr = m.entries[0][0] + m.entries[1][1]
    det = (m.entries[0][0] * m.entries[1][1]
           - m.entries[0][1] * m.entries[1][0])
    disc = tr * tr - 4 * det
    if _rational_sqrt(disc) is None:
        raise UnsupportedFieldError(
            "twist map has eigenvalues outside the rationals")


def _candidate_lines(L):
    """All lines that could be twist-invariant ideals, exactly.

    A line span(v) qualifies only if alpha(v), beta(v) and all brackets
    with basis vectors stay parallel to v; each condition is a quadratic
    in the line coordinates, so candidates are the rational roots. If every
    condition vanishes identically, all lines qualify.
    """
    n, field = L.n, L.field
    if field.characteristic:
        # small prime field: just enumerate the p+1 lines
        p = field.characteristic
        lines = [( field.one(), field.zero() )]
        for t in range(p):
            lines.append((field(t), field.one()))
        return lines

    def parallel_poly(img_of):
        # v = (1, t): condition img(v) parallel to v as polynomial in t,
        # coefficients constant-first
        w0 = img_of((field.one(), field.zero()))
        w1 = img_of((field.zero(), field.one()))
        # img(v) = w0 + t*w1; parallel: img0 * t - img1 * 1 ... cross product
        # (w0[0] + t w1[0], w0[1] + t w1[1]) x (1, t) = (w0[0]+t w1[0]) t - (w0[1]+t w1[1])
        return [-w0[1], w0[0] - w1[1], w1[0]]

    conditions = []
    for m in (L.alpha, L.beta):
        conditions.append(parallel_poly(m.apply))
    for j in range(n):
        ej = _unit(n, j, field)
        conditions.append(parallel_poly(lambda v, e=ej: L.bracket(v, e)))
        conditions.append(parallel_poly(lambda v, e=ej: L.bracket(e, v)))
    zero = field.zero()
    nonzero = [p for p in conditions if any(c != zero for c in p)]
    if not nonzero:
        # every line works; two coordinate lines are enough for callers
        return [(field.one(), zero), (zero, field.one())]
    roots = _common_rational_roots(nonzero, field)
    lines = [(r, field.one()) for r in roots]
    # the line (1, 0) corresponds to t = infinity: check it directly
    lines.append((field.one(), zero))
    return lines


def _common_rational_roots(polys, field):
    first = polys[0]
    roots = _rational_roots(first)
    out = []
    for r in roots:
        ok = True
        for p in polys[1:]:
            val = field.zero()
            power = field.one()
            for c in p:
                val = val + c * power
                power = power * r
            if val != field.zero():
                ok = False
                break
        if ok:
            out.append(r)
    return out


def _rational_roots(poly):
    c0, c1, c2 = poly
    if c2 == 0:
        if c1 == 0:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4 * c2 * c0
    root = _rational_sqrt(disc)
    if root is None:
        return []
    return sorted(set([(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)]))


def decompose_2dim(L):
    """Split into two 1-dimensional ideals when possible (2-dim only).

    Also evaluates whether L equals derived-subalgebra plus center as a
    direct sum, and reports whether that split agrees with the outcome.
    Rational twist spectra are required over the rationals; anything else
    raises UnsupportedFieldError rather than guessing.
    """
    if L.n != 2:
        raise ValueError("only 2-dimensional algebras are supported")
    if not L.field.characteristic:
        _check_rational_spectrum(L.alpha)
        _check_rational_spectrum(L.beta)
    ideal_lines = []
    for v in _candidate_lines(L):
        s = VectorSubspace(2, [v], L.field)
        if s.dim == 1 and is_ideal(L, s) and not any(
                s == t for t in ideal_lines):
            ideal_lines.append(s)
    pair = None
    for a in range(len(ideal_lines)):
        for b in range(a + 1, len(ideal_lines)):
            if ideal_lines[a].sum(ideal_lines[b]).dim == 2:
                pair = (ideal_lines[a], ideal_lines[b])
                break
        if pair:
            break
    l2 = derived_subalgebra(L)
    c = center(L)
    split_holds = l2.intersection(c).dim == 0 and l2.sum(c).dim == 2
    return Decomposition2(pair, split_holds)
