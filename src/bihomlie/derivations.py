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
row order, is what keeps the output stable. Every basis matrix of a computed
space is re-verified by verify_derivation, which evaluates the identity
bracket by bracket, a route independent of the blocks.

A context lives for one public call: derivation_space builds a fresh one,
and fingerprint, derivation_grid and central_derivations share one for the
length of their call. Nothing is cached on the algebra.
"""

from .algebra import _table_bracket
from .fields import FieldMismatchError, QQ
from .linalg import Matrix, MatrixSubspace, matrix_from_vector, nullspace_basis


class MembershipError(AssertionError):
    """Solver output failed the independent identity check; a bug."""


class DerivationSpace:
    """A solved space: its parameters and basis."""

    __slots__ = ("params", "space")

    def __init__(self, params, space):
        self.params = params
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    @property
    def basis(self):
        return self.space.basis

    def __repr__(self):
        return "DerivationSpace(params=%r, dim=%d)" % (self.params, self.dim)


def twist_power(L, k, l):
    """Matrix of alpha^k composed with beta^l."""
    if k < 0 or l < 0:
        raise ValueError("twist exponents must be non-negative")
    if not k:
        return L.beta ** l
    if not l:
        return L.alpha ** k
    return (L.alpha ** k) * (L.beta ** l)


def _commutation_rows(L):
    """Rows expressing d*alpha = alpha*d and d*beta = beta*d."""
    n = L.n
    zero = L.field.zero()
    rows = []
    for m in (L.alpha.entries, L.beta.entries):
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                # (d m - m d)_{ij}: coefficient of d_{uv}
                for t in range(n):
                    if m[t][j]:
                        row[i * n + t] = row[i * n + t] + m[t][j]
                    if m[i][t]:
                        row[t * n + j] = row[t * n + j] - m[i][t]
                rows.append(row)
    return rows


def twist_commutant(L):
    """Basis of all operators commuting with both twist maps."""
    return SolveContext(L).commutant


def _commutes(d, m, zero):
    """d*m == m*d, compared entry by entry up to the first mismatch;
    products with a zero factor are skipped."""
    de, me = d.entries, m.entries
    n = len(de)
    for i in range(n):
        for j in range(n):
            left = right = zero
            for t in range(n):
                if de[i][t] and me[t][j]:
                    left = left + de[i][t] * me[t][j]
                if me[i][t] and de[t][j]:
                    right = right + me[i][t] * de[t][j]
            if left != right:
                return False
    return True


def verify_derivation(L, d, lam, mu, gamma, k=0, l=0):
    """Independent membership check on all basis pairs (no linear system)."""
    lam = L.field.coerce(lam)
    mu = L.field.coerce(mu)
    gamma = L.field.coerce(gamma)
    if d.rows != L.n or d.cols != L.n:
        return False
    if d.field != L.field:
        raise FieldMismatchError(
            "mixed fields %r and %r" % (d.field, L.field))
    zero = L.field.zero()
    if not (_commutes(d, L.alpha, zero) and _commutes(d, L.beta, zero)):
        return False
    m = twist_power(L, k, l)
    n = L.n
    # d(e_i) and m(e_i) are the i-th columns
    d_cols = [d.col(i) for i in range(n)]
    m_cols = [m.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            # d([e_i,e_j]) = sum_b c_ij^b d(e_b) over the nonzero c_ij^b
            image = [zero] * n
            for b, c in enumerate(L.structure[i][j]):
                if c:
                    for s, x in enumerate(d_cols[b]):
                        if x:
                            image[s] = image[s] + c * x
            t1 = _table_bracket(L.structure, d_cols[i], m_cols[j], zero)
            t2 = _table_bracket(L.structure, m_cols[i], d_cols[j], zero)
            for v, a, b in zip(image, t1, t2):
                if (v or a or b) and lam * v != mu * a + gamma * b:
                    return False
    return True


def _nonzero_rows(entries):
    """Per row, the (column, value) pairs of its nonzero entries."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in entries]


class SolveContext:
    """Solver state for one algebra, kept for the length of one public call:
    the nonzero structure constants, the twist commutant and, per (k, l),
    the three residual blocks."""

    def __init__(self, L):
        n, field = L.n, L.field
        self.L = L
        self.constants = [(p, q, s, v) for p in range(n) for q in range(n)
                          for s, v in enumerate(L.structure[p][q]) if v]
        sols = nullspace_basis(Matrix(_commutation_rows(L), field))
        self.commutant = MatrixSubspace(
            n, [matrix_from_vector(v, n, field) for v in sols], field)
        self._blocks = {}

    def _residual_blocks(self, m):
        """The lam, mu and gamma blocks at twist power m: per commutant
        basis member B_r, a map from (i, j, s) to coordinate s of
        d([e_i,e_j]), [d(e_i), m(e_j)] and [m(e_i), d(e_j)] at d = B_r.
        A missing key is zero."""
        zero = self.L.field.zero()
        blocks = ([], [], [])
        m_rows = _nonzero_rows(m.entries)
        for b in self.commutant.basis:
            lam, mu, gamma = {}, {}, {}
            b_rows = _nonzero_rows(b.entries)
            b_cols = _nonzero_rows(zip(*b.entries))
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
        """The space at one triple and exponent pair; every basis member
        is re-verified by verify_derivation."""
        L = self.L
        n, field = L.n, L.field
        lam = field.coerce(lam)
        mu = field.coerce(mu)
        gamma = field.coerce(gamma)
        zero = field.zero()
        if (k, l) not in self._blocks:
            self._blocks[k, l] = self._residual_blocks(twist_power(L, k, l))
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
            members = []
            for x in nullspace_basis(Matrix(system, field)):
                d = [sum((xr * vec[t] for xr, vec in zip(x, vecs) if xr), zero)
                     for t in range(n * n)]
                members.append(matrix_from_vector(d, n, field))
            space = MatrixSubspace(n, members, field)
        for d in space.basis:
            if not verify_derivation(L, d, lam, mu, gamma, k, l):
                raise MembershipError(
                    "solver produced a non-member at params %r"
                    % ((lam, mu, gamma, k, l),))
        return DerivationSpace((lam, mu, gamma, k, l), space)


def derivation_space(L, lam, mu, gamma, k=0, l=0):
    """Solve for the full space at the given coefficients and exponents."""
    return SolveContext(L).solve(lam, mu, gamma, k, l)


def centroid(L, k=0, l=0):
    """Operators with d([x,y]) = [d(x), m(y)]: coefficients (1,1,0)."""
    one, zero = L.field.one(), L.field.zero()
    return derivation_space(L, one, one, zero, k, l)


def quasi_centroid(L, k=0, l=0):
    """Operators with [d(x), m(y)] = [m(x), d(y)]: coefficients (0,1,-1)."""
    one, zero = L.field.one(), L.field.zero()
    return derivation_space(L, zero, one, -one, k, l)


def central_derivations(L, k=0, l=0):
    """Intersection of the (1,0,0) and (0,1,0) spaces."""
    one, zero = L.field.one(), L.field.zero()
    context = SolveContext(L)
    kill = context.solve(one, zero, zero, k, l)
    absorb = context.solve(zero, one, zero, k, l)
    space = kill.space.intersection(absorb.space)
    return DerivationSpace(("central", k, l), space)


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
    context = SolveContext(L)
    spaces = {}
    mats = []
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            sp = context.solve(lam, mu, gamma, k, l)
            spaces[(k, l)] = sp
            mats.extend(sp.space.basis)
    union = MatrixSubspace(L.n, mats, L.field)
    return spaces, union


def count_members_fp(L, lam, mu, gamma, k=0, l=0):
    """Exhaustively count members over a prime field; the completeness oracle.

    Enumerates every n x n matrix over F_p (p^(n^2) candidates) and counts
    those passing verify_derivation. Intended for p in {2,3} and n <= 2,
    where the scan is 16..512 candidates.
    """
    field = L.field
    p = field.characteristic
    if not p:
        raise ValueError("exhaustive enumeration needs a prime field")
    n = L.n
    residues = [field(v) for v in range(p)]
    count = 0
    total = p ** (n * n)
    for idx in range(total):
        entries = []
        v = idx
        for _ in range(n * n):
            entries.append(residues[v % p])
            v //= p
        d = matrix_from_vector(tuple(entries), n, field)
        if verify_derivation(L, d, lam, mu, gamma, k, l):
            count += 1
    return count
