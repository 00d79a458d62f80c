"""Generalized derivation spaces, solved in twist-commutant coordinates.

For coefficients (lam, mu, gamma) and twist exponents (k, l) the space of
interest is every operator d that commutes with both twist maps and satisfies

    lam * d([x,y]) = mu * [d(x), m(y)] + gamma * [m(x), d(y)],   m = alpha^k beta^l.

Every such d lies in the twist commutant. A SolveContext solves the
commutant of one algebra once, with basis B_1..B_c, and writes
d = sum_r x_r B_r. From the algebra's nonzero constants it builds three
residual blocks, the coordinates of d([e_i,e_j]) at d = B_r once and those
of [d(e_i), m(e_j)] and [m(e_i), d(e_j)] per (k, l); a triple combines them
into a system in the x_r whose nullspace, mapped back through the B_r,
spans the space, a MatrixSubspace kept by its canonical basis.

The nullspace X and the commutant basis B are in reduced row echelon form,
and so is X B, which is wrapped unreduced. If row X_j has its pivot at p,
and B_p at q, row j of X B sums X_jr B_r over r >= p: zero left of q, 1 at
q, where B_p alone is nonzero. Any other row i is X_ip = 0 at q.

The membership kernel _residual evaluates the identity and the twist
commutation on ints, apart from the blocks, from the algebra's int view and
per (k, l) one twist power (M, int rows of M m), lam scaled by M.
verify_derivation, which re-verifies every solved member, accepts d when
the residual is empty; the F_p census count_members_fp reads it at the unit
matrices as linear forms. Each algebra keeps one context, in its _solver
slot: the powers, the blocks and the commutant.
"""

from functools import cached_property

from .algebra import (BiHomLieAlgebra, _bracket, _dense, _image,
                      _lie_constants, _pullback, _pushforward)
from .fields import FieldMismatchError, QQ
from .linalg import (Matrix, MatrixSubspace, VectorSubspace, _matrix,
                     _row_support, nullspace_basis)

# most candidates a bounded scan tries, or prefixes a census level holds
MAX_SEARCH_CANDIDATES = 10 ** 5


class MembershipError(AssertionError):
    """Solver output failed the independent identity check; a bug."""


def twist_power(L, k, l):
    """Matrix of alpha^k composed with beta^l."""
    if k < 0 or l < 0:
        raise ValueError("twist exponents must be non-negative")
    return (L.alpha ** k) * (L.beta ** l)


def _refuse_mismatch(L, L2):
    """ValueError when L and L2 differ in dimension, FieldMismatchError
    when they differ in field."""
    if L.n != L2.n:
        raise ValueError("dimension mismatch: %d vs %d" % (L.n, L2.n))
    if L.field != L2.field:
        raise FieldMismatchError("the algebras live over different fields")


def intertwiners(L, L2):
    """Operators f with f*alpha = alpha2*f and f*beta = beta2*f, alpha2 and
    beta2 the twists of L2, with a basis in reduced row echelon form of the
    row-major vectors; intertwiners(L, L) is the twist commutant of L.
    Refuses algebras of different dimensions or fields (_refuse_mismatch)."""
    _refuse_mismatch(L, L2)
    n, field = L.n, L.field
    zero = field.zero()
    rows = []
    for m, m2 in ((L.alpha.entries, L2.alpha.entries),
                  (L.beta.entries, L2.beta.entries)):
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                # (f m - m2 f)_{ij}: coefficient of f_{uv}
                for t in range(n):
                    if m[t][j]:
                        row[i * n + t] = row[i * n + t] + m[t][j]
                    if m2[i][t]:
                        row[t * n + j] = row[t * n + j] - m2[i][t]
                rows.append(row)
    sols = nullspace_basis(_matrix(rows, field))
    return MatrixSubspace._of(n, VectorSubspace._of(n * n, sols, field))


def twist_commutant(L):
    """Basis of all operators commuting with both twist maps."""
    return _solver(L).commutant


def verify_derivation(L, d, lam, mu, gamma, k=0, l=0):
    """Independent membership check on all basis pairs (no linear system)."""
    if d.rows != L.n or d.cols != L.n:
        return False
    if d.field != L.field:
        raise FieldMismatchError(
            "mixed fields %r and %r" % (d.field, L.field))
    return not _residual(L.field.plain_rows(d.entries)[1],
                         *_solver(L).problem(lam, mu, gamma, k, l))


def _residual(d, brackets, alpha, beta, m, lam, mu, gamma, is_zero):
    """The membership kernel: {position: int} for the entries nonzero in the
    field, at (twist, i, j) of d t - t d, twist "alpha" or "beta", and at
    (i, j, s) of lam d([e_i,e_j]) - mu [d(e_i), m(e_j)] - gamma [m(e_i),
    d(e_j)], for int entry rows d and m, summed by _image and _bracket."""
    out = {}
    d_cols, m_cols = _row_support(zip(*d)), _row_support(zip(*m))
    for name, (_, t_cols) in (("alpha", alpha), ("beta", beta)):
        for j, (d_j, t_j) in enumerate(zip(d_cols, t_cols)):
            dt, td = _image(d_cols, t_j), _image(t_cols, d_j)
            for i in dt.keys() | td.keys():
                v = dt.get(i, 0) - td.get(i, 0)
                if not is_zero(v):
                    out[name, i, j] = v
    for i, (d_i, m_i) in enumerate(zip(d_cols, m_cols)):
        for j, (d_j, m_j) in enumerate(zip(d_cols, m_cols)):
            image = _image(d_cols, brackets[i][j]) if brackets[i][j] else {}
            t1 = _bracket(brackets, d_i, m_j) if d_i and m_j else {}
            t2 = _bracket(brackets, m_i, d_j) if m_i and d_j else {}
            if not (image or t1 or t2):
                continue
            for s in image.keys() | t1.keys() | t2.keys():
                v = (lam * image.get(s, 0) - mu * t1.get(s, 0)
                     - gamma * t2.get(s, 0))
                if not is_zero(v):
                    out[i, j, s] = v
    return out


def derivation_extension(table, D, field=QQ):
    """Adjoin a derivation D of a classical Lie table as a basis vector.

    The result is the classical semidirect product on n+1 dimensions, D the
    last basis vector, with brackets [e_i, D] = -D(e_i), [D, e_j] = D(e_j)
    and identity twists; yau_twist twists it. The table is checked as
    yau_twist checks it, by the table route at identity twists (NotLieError),
    D by verify_derivation at (1, 1, 1), and the result by check_all, whose
    two routes evaluate the same identities on the input's basis triples
    before anything is returned: a failure there is a bug.
    """
    n = len(table)
    if not isinstance(D, Matrix):
        D = Matrix(D, field)
    if (D.rows, D.cols) != (n, n):
        raise ValueError("D is not %d x %d" % (n, n))
    one = Matrix.identity(n, field)
    classical = BiHomLieAlgebra(table, one, one, field)
    constants = dict(_lie_constants(classical._constants, n, field))
    if not verify_derivation(classical, D, 1, 1, 1):
        raise ValueError("D is not a derivation")
    for s, row in enumerate(_row_support(D.entries)):
        for i, x in row:
            constants[i, n, s], constants[n, i, s] = -x, x
    one = Matrix.identity(n + 1, field)
    L = BiHomLieAlgebra(_dense(n + 1, constants, field.zero()), one, one, field)
    if not L.check_all().passed:
        raise AssertionError("the extension fails check_all")
    return L


class SolveContext:
    """Solver state fixed per algebra, built once by _solver: the lam
    block, per (k, l) the scaled twist power and the mu and gamma blocks,
    and the twist commutant, solved on first use. The blocks read L's
    constants, the membership kernel L's int view."""

    def __init__(self, L):
        self.L = L
        self._powers = {}
        self._blocks = {}

    @cached_property
    def commutant(self):
        """The twist commutant, solved on first use."""
        return intertwiners(self.L, self.L)

    def _power(self, k, l):
        """twist_power(L, k, l) as plain_rows gives it, (M, int rows of
        M m), built once per (k, l)."""
        if (k, l) not in self._powers:
            self._powers[k, l] = self.L.field.plain_rows(
                twist_power(self.L, k, l).entries)
        return self._powers[k, l]

    def problem(self, lam, mu, gamma, k, l):
        """_residual's arguments after d: the int view, the power's int
        rows, and (M lam, mu, gamma) times one scale, M the power's."""
        field = self.L.field
        scale, m = self._power(k, l)
        _, ((lam, mu, gamma),) = field.plain_rows(
            [map(field.coerce, (lam, mu, gamma))])
        return (*self.L._ints, m, scale * lam, mu, gamma, field.is_zero)

    @cached_property
    def _lam_block(self):
        """The lam block, built once: it does not depend on the power."""
        return [_pushforward(self.L._constants, b.entries)
                for b in self.commutant.basis]

    def _residual_blocks(self, m):
        """The lam, mu and gamma blocks at a twist power m, given by its
        entry rows: per commutant basis member B_r, a map from (i, j, s) to
        coordinate s of d([e_i,e_j]), [d(e_i), m(e_j)] and [m(e_i), d(e_j)]
        at d = B_r. A missing key is zero. Only mu and gamma depend on m."""
        constants = self.L._constants
        basis = [b.entries for b in self.commutant.basis]
        return (self._lam_block,
                [_pullback(constants, d, m) for d in basis],
                [_pullback(constants, m, d) for d in basis])

    def solve(self, lam, mu, gamma, k=0, l=0):
        """The MatrixSubspace at one triple and exponent pair; every basis
        member is re-verified by verify_derivation."""
        L = self.L
        n, field = L.n, L.field
        lam, mu, gamma = map(field.coerce, (lam, mu, gamma))
        zero = field.zero()
        # blocks at M m and lam * M: the system is M times the unscaled one
        scale, m = self._power(k, l)
        if (k, l) not in self._blocks:
            self._blocks[k, l] = self._residual_blocks(m)
        basis = self.commutant.basis
        rows = {}
        for coeff, block in zip((lam * scale, -mu, -gamma),
                                self._blocks[k, l]):
            if not coeff:
                continue
            for r, residuals in enumerate(block):
                for key, v in residuals.items():
                    row = rows.setdefault(key, [zero] * len(basis))
                    row[r] = row[r] + coeff * v
        system = [row for row in rows.values() if any(row)]
        space = self.commutant
        if system:
            # x B for the nullspace vectors x, B the vectorized commutant
            # basis: the sparse product reads nonzero x_r and B_r entries only
            x = nullspace_basis(_matrix(system, field))
            vecs = _matrix([b.vectorize() for b in basis], field)
            members = (_matrix(x, field) * vecs).entries if x else []
            space = MatrixSubspace._of(n, VectorSubspace._of(n * n, members,
                                                             field))
        for d in space.basis:
            if not verify_derivation(L, d, lam, mu, gamma, k, l):
                raise MembershipError(
                    "solver produced a non-member at params %r"
                    % ((lam, mu, gamma, k, l),))
        return space


def _solver(L):
    """The algebra's SolveContext, built on first use and kept on L."""
    if L._solver is None:
        L._solver = SolveContext(L)
    return L._solver


def derivation_space(L, lam, mu, gamma, k=0, l=0):
    """Solve for the full space at the given coefficients and exponents."""
    return _solver(L).solve(lam, mu, gamma, k, l)


def centroid(L, k=0, l=0):
    """Operators with d([x,y]) = [d(x), m(y)]: coefficients (1,1,0)."""
    return derivation_space(L, 1, 1, 0, k, l)


def quasi_centroid(L, k=0, l=0):
    """Operators with [d(x), m(y)] = [m(x), d(y)]: coefficients (0,1,-1)."""
    return derivation_space(L, 0, 1, -1, k, l)


def central_derivations(L, k=0, l=0):
    """Intersection of the (1,0,0) and (0,1,0) spaces."""
    kill = derivation_space(L, 1, 0, 0, k, l)
    return kill.intersection(derivation_space(L, 0, 1, 0, k, l))


def normalize_params(lam, mu, gamma, field=None):
    """Canonical coefficient triple and its case tag.

    The seven tags follow the case split on (lam; mu vs gamma): nonzero lam
    with mu^2 != gamma^2 reduces to a centroid-type triple, and so on down
    to lam = 0 variants; the all-zero triple is its own tag 0 (its space is
    the whole twist commutant and normalizing it would lose that fact).
    """
    if field is None:
        field = QQ
    lam = field.coerce(lam)
    mu = field.coerce(mu)
    gamma = field.coerce(gamma)
    zero, one = field.zero(), field.one()
    if lam != zero:
        if mu * mu != gamma * gamma:
            return (lam / (mu + gamma), one, zero), 1
        if mu == gamma:
            if mu == zero:
                return (one, zero, zero), 4
            return (lam / mu, one, one), 3
        return (one, one, -one), 2
    if mu * mu != gamma * gamma:
        return (zero, one, zero), 5
    if mu == gamma:
        if mu == zero:
            return (zero, zero, zero), 0
        return (zero, one, one), 6
    return (zero, one, -one), 7


def commutator(d1, d2):
    return d1 * d2 - d2 * d1


def jordan_product(f, g):
    if f.field.characteristic == 2:
        raise ValueError("the symmetrized product needs 1/2: "
                         "characteristic 2 is not supported")
    half = f.field.one() / f.field.coerce(2)
    return (f * g + g * f) * half


def derivation_grid(L, lam, mu, gamma, k_max=3, l_max=3):
    """Spaces at every exponent pair up to the caps, plus their joint span.

    The underlying definition quantifies over all exponents; twist powers on
    any fixed algebra eventually repeat in effect but no termination test is
    attempted here, so the caps are an explicit, documented truncation.
    """
    if k_max < 0 or l_max < 0:
        raise ValueError("exponent caps must be non-negative")
    spaces = {}
    mats = []
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            spaces[k, l] = derivation_space(L, lam, mu, gamma, k, l)
            mats.extend(spaces[k, l].basis)
    union = MatrixSubspace(L.n, mats, L.field)
    return spaces, union


def count_members_fp(L, lam, mu, gamma, k=0, l=0):
    """Exhaustively count members over a prime field; the completeness oracle.

    Each residual entry has degree one in d, so residual(d) = sum_uv d_uv
    residual(E_uv) mod p, a linear form per position in the row-major
    entries of d. The count sets d one entry at a time; once entry t is set,
    a nonzero form whose last entry is t discards the subtree, which holds
    only non-members, so each of the p^(n^2) candidates is counted at a leaf
    or discarded. The forms never read the commutant or the blocks. A level
    that could hold more than MAX_SEARCH_CANDIDATES prefixes is refused.
    """
    p = L.field.characteristic
    if not p:
        raise ValueError("exhaustive enumeration needs a prime field")
    problem, n = _solver(L).problem(lam, mu, gamma, k, l), L.n
    forms = {}
    for t in range(n * n):
        unit = [[int(u * n + v == t) for v in range(n)] for u in range(n)]
        for key, x in _residual(unit, *problem).items():
            forms.setdefault(key, []).append((t, x % p))
    ending = [[] for _ in range(n * n)]
    for form in forms.values():
        ending[form[-1][0]].append((form[:-1], form[-1][1]))
    leaves = [()]
    for checks in ending:
        if len(leaves) * p > MAX_SEARCH_CANDIDATES:
            raise ValueError("census past %d prefixes" % MAX_SEARCH_CANDIDATES)
        grown = []
        for d in leaves:
            values = range(p)
            for head, a in checks:
                # the form over the prefix, plus a times entry t
                s = sum(d[t] * c for t, c in head)
                values = [v for v in values if not (s + a * v) % p]
            grown += [d + (v,) for v in values]
        leaves = grown
    return len(leaves)
