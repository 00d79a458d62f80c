"""Generalized derivation spaces, solved in twist-commutant coordinates.

For coefficients (lam, mu, gamma) and twist exponents (k, l) the space of
interest is every operator d that commutes with both twist maps and satisfies

    lam * d([x,y]) = mu * [d(x), m(y)] + gamma * [m(x), d(y)],   m = alpha^k beta^l.

Every such d lies in the twist commutant. A SolveContext solves the
commutant of one algebra once, with basis B_1..B_c, and writes
d = sum_r x_r B_r. The identity is linear in (lam, mu, gamma), so per (k, l)
the context builds three residual blocks: the coordinates of d([e_i,e_j]),
[d(e_i), m(e_j)] and [m(e_i), d(e_j)] at d = B_r, read off the nonzero
structure constants only. A triple combines the blocks into a system in the
c unknowns x_r, and its nullspace, mapped back through the B_r, spans the
space. Spaces are MatrixSubspaces, stored by the reduced row echelon form of
their vectorized basis; that canonical basis, not the commutant basis or the
row order, is what keeps the output stable. Every basis member is
re-verified by verify_derivation, which evaluates the identity bracket by
bracket, independently of the blocks, in the membership kernel _is_member.
That kernel computes on plain scalars (Fractions, or int residues over
F_p); the F_p census count_members_fp runs every candidate through it too.

Each algebra keeps one context, built by _solver on first use and kept in
its _solver slot. It keeps each value once: the plain table and twists
(over Q the algebra's own rows), per (k, l) only the plain rows of one
twist_power, which the blocks and the membership kernel both read, and the
commutant, solved on the first solve and never for a membership check.
Solved spaces are not kept: every call solves and re-verifies its triple.
"""

from functools import cached_property
from itertools import product

from .algebra import _constants, _row_support, _table_bracket
from .fields import FieldMismatchError, QQ
from .linalg import MatrixSubspace, VectorSubspace, _matrix, nullspace_basis


class MembershipError(AssertionError):
    """Solver output failed the independent identity check; a bug."""


def twist_power(L, k, l):
    """Matrix of alpha^k composed with beta^l."""
    if k < 0 or l < 0:
        raise ValueError("twist exponents must be non-negative")
    return (L.alpha ** k) * (L.beta ** l)


def intertwiners(L, L2):
    """Operators f with f*alpha = alpha2*f and f*beta = beta2*f, alpha2 and
    beta2 the twists of L2, with a basis in reduced row echelon form of the
    row-major vectors; intertwiners(L, L) is the twist commutant of L."""
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
    return MatrixSubspace._of(n, VectorSubspace(n * n, sols, field))


def twist_commutant(L):
    """Basis of all operators commuting with both twist maps."""
    return _solver(L).commutant


def _commutes(d, m, is_zero):
    """d*m == m*d on plain entry rows, compared entry by entry up to the
    first mismatch; products with a zero factor are skipped."""
    n = range(len(d))
    for i in n:
        for j in n:
            left = right = 0
            for t in n:
                if d[i][t] and m[t][j]:
                    left += d[i][t] * m[t][j]
                if m[i][t] and d[t][j]:
                    right += m[i][t] * d[t][j]
            if not is_zero(left - right):
                return False
    return True


def verify_derivation(L, d, lam, mu, gamma, k=0, l=0):
    """Independent membership check on all basis pairs (no linear system)."""
    if d.rows != L.n or d.cols != L.n:
        return False
    if d.field != L.field:
        raise FieldMismatchError(
            "mixed fields %r and %r" % (d.field, L.field))
    return _is_member(L.field.plain_rows(d.entries),
                      *_solver(L).problem(lam, mu, gamma, k, l))


def _is_member(d, table, alpha, beta, m, lam, mu, gamma, is_zero):
    """The membership kernel: verify_derivation on plain scalars. d and m
    are entry rows, table, alpha and beta the algebra's, and is_zero is the
    field's zero test."""
    if not (_commutes(d, alpha, is_zero) and _commutes(d, beta, is_zero)):
        return False
    n = len(d)
    # d(e_i) and m(e_i) are the i-th columns
    d_cols = list(zip(*d))
    m_cols = list(zip(*m))
    for i in range(n):
        for j in range(n):
            # d([e_i,e_j]) = sum_b c_ij^b d(e_b) over the nonzero c_ij^b
            image = [0] * n
            for b, c in enumerate(table[i][j]):
                if c:
                    for s, x in enumerate(d_cols[b]):
                        if x:
                            image[s] += c * x
            t1 = _table_bracket(table, d_cols[i], m_cols[j], 0)
            t2 = _table_bracket(table, m_cols[i], d_cols[j], 0)
            for v, a, b in zip(image, t1, t2):
                if (v or a or b) and not is_zero(
                        lam * v - mu * a - gamma * b):
                    return False
    return True


class SolveContext:
    """Solver and membership state fixed per algebra, built once by _solver:
    the nonzero structure constants, the plain table and twists, per (k, l)
    the plain rows of the twist power and the three residual blocks, and
    the twist commutant, solved on first use."""

    def __init__(self, L):
        self.L = L
        self.constants = _constants(L.structure)
        plain_rows = L.field.plain_rows
        self.plain = (tuple(map(plain_rows, L.structure)),
                      plain_rows(L.alpha.entries), plain_rows(L.beta.entries))
        self._powers = {}
        self._blocks = {}

    @cached_property
    def commutant(self):
        """The twist commutant, solved on first use."""
        return intertwiners(self.L, self.L)

    def _power(self, k, l):
        """The plain rows of twist_power(L, k, l), built once per (k, l)."""
        if (k, l) not in self._powers:
            self._powers[k, l] = self.L.field.plain_rows(
                twist_power(self.L, k, l).entries)
        return self._powers[k, l]

    def problem(self, lam, mu, gamma, k, l):
        """The arguments of _is_member after d, in plain scalars."""
        field = self.L.field
        return (*self.plain, self._power(k, l),
                *(field.plain(field.coerce(x)) for x in (lam, mu, gamma)),
                field.is_zero)

    def _residual_blocks(self, m):
        """The lam, mu and gamma blocks at a twist power m, given by its
        plain rows: per commutant basis member B_r, a map from (i, j, s) to
        coordinate s of d([e_i,e_j]), [d(e_i), m(e_j)] and [m(e_i), d(e_j)]
        at d = B_r. A missing key is zero."""
        zero = self.L.field.zero()
        blocks = ([], [], [])
        m_rows = _row_support(m)
        for b in self.commutant.basis:
            lam, mu, gamma = {}, {}, {}
            b_rows = _row_support(b.entries)
            b_cols = _row_support(zip(*b.entries))
            for p, q, s, v in self.constants:
                # d([e_p,e_q])_t = sum_s d_ts c_pq^s
                for t, w in b_cols[s]:
                    lam[p, q, t] = lam.get((p, q, t), zero) + v * w
                # [d(e_i), m(e_j)]_s = sum_pq d_pi m_qj c_pq^s
                for i, x in b_rows[p]:
                    for j, y in m_rows[q]:
                        mu[i, j, s] = mu.get((i, j, s), zero) + v * x * y
                # [m(e_i), d(e_j)]_s = sum_pq m_pi d_qj c_pq^s
                for i, x in m_rows[p]:
                    for j, y in b_rows[q]:
                        gamma[i, j, s] = gamma.get((i, j, s), zero) + v * x * y
            for block, residuals in zip(blocks, (lam, mu, gamma)):
                block.append(residuals)
        return blocks

    def solve(self, lam, mu, gamma, k=0, l=0):
        """The MatrixSubspace at one triple and exponent pair; every basis
        member is re-verified by verify_derivation."""
        L = self.L
        n, field = L.n, L.field
        lam, mu, gamma = map(field.coerce, (lam, mu, gamma))
        zero = field.zero()
        if (k, l) not in self._blocks:
            self._blocks[k, l] = self._residual_blocks(self._power(k, l))
        basis = self.commutant.basis
        rows = {}
        for coeff, block in zip((lam, -mu, -gamma), self._blocks[k, l]):
            if not coeff:
                continue
            for r, residuals in enumerate(block):
                for key, v in residuals.items():
                    row = rows.setdefault(key, [zero] * len(basis))
                    row[r] = row[r] + coeff * v
        system = [row for row in rows.values() if any(row)]
        space = self.commutant
        if system:
            vecs = [b.vectorize() for b in basis]
            members = [[sum((xr * vec[t] for xr, vec in zip(x, vecs) if xr),
                            zero) for t in range(n * n)]
                       for x in nullspace_basis(_matrix(system, field))]
            space = MatrixSubspace._of(n, VectorSubspace(n * n, members,
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

    Enumerates every n x n matrix over F_p (p^(n^2) candidates) lazily, as
    n-tuples of int residue rows, and counts those the membership kernel
    of verify_derivation accepts; its other inputs come from the algebra's
    context, so no candidate builds a Matrix or an FpElement. Meant for
    small scans: n = 2 over F_3 (81 candidates), n = 3 over F_2 (512).
    """
    p = L.field.characteristic
    if not p:
        raise ValueError("exhaustive enumeration needs a prime field")
    problem = _solver(L).problem(lam, mu, gamma, k, l)
    rows = product(range(p), repeat=L.n)
    return sum(1 for d in product(rows, repeat=L.n)
               if _is_member(d, *problem))
