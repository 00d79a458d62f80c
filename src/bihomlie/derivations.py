"""Generalized derivation spaces via one exact linear system.

For coefficients (lam, mu, gamma) and twist exponents (k, l) the space of
interest is every operator d that commutes with both twist maps and satisfies

    lam * d([x,y]) = mu * [d(x), m(y)] + gamma * [m(x), d(y)],   m = alpha^k beta^l.

The solver vectorizes d row-major into n^2 unknowns and stacks, in this
order: the alpha-commutation rows, the beta-commutation rows, then one
bracket row per (i,j,s) in lexicographic order. The fixed row order keeps
solver diagnostics and golden outputs stable. Every basis matrix of a
computed space is re-verified against the defining identity by direct
bracket evaluation, an independent route from the system assembly.
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
                    row[i * n + t] = row[i * n + t] + m[t][j]
                    row[t * n + j] = row[t * n + j] - m[i][t]
                rows.append(row)
    return rows


def _bracket_rows(L, lam, mu, gamma, m):
    n = L.n
    zero = L.field.zero()
    c = L.structure
    me = m.entries
    rows = []
    for i in range(n):
        for j in range(n):
            for s in range(n):
                row = [zero] * (n * n)
                for b in range(n):
                    row[s * n + b] = row[s * n + b] + lam * c[i][j][b]
                    acc = zero
                    for u in range(n):
                        acc = acc + me[u][j] * c[b][u][s]
                    row[b * n + i] = row[b * n + i] - mu * acc
                    acc = zero
                    for t in range(n):
                        acc = acc + me[t][i] * c[t][b][s]
                    row[b * n + j] = row[b * n + j] - gamma * acc
                rows.append(row)
    return rows


def twist_commutant(L):
    """Basis of all operators commuting with both twist maps."""
    rows = _commutation_rows(L)
    sols = nullspace_basis(Matrix(rows, L.field))
    mats = [matrix_from_vector(v, L.n, L.field) for v in sols]
    return MatrixSubspace(L.n, mats, L.field)


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
            lhs = tuple(lam * v for v in d.apply(L.bracket_basis(i, j)))
            t1 = _table_bracket(L.structure, d_cols[i], m_cols[j], zero)
            t2 = _table_bracket(L.structure, m_cols[i], d_cols[j], zero)
            rhs = tuple(mu * a + gamma * b for a, b in zip(t1, t2))
            if lhs != rhs:
                return False
    return True


def derivation_space(L, lam, mu, gamma, k=0, l=0):
    """Solve for the full space at the given coefficients and exponents."""
    lam = L.field.coerce(lam)
    mu = L.field.coerce(mu)
    gamma = L.field.coerce(gamma)
    m = twist_power(L, k, l)
    rows = _commutation_rows(L) + _bracket_rows(L, lam, mu, gamma, m)
    sols = nullspace_basis(Matrix(rows, L.field))
    mats = [matrix_from_vector(v, L.n, L.field) for v in sols]
    space = MatrixSubspace(L.n, mats, L.field)
    for d in space.basis:
        if not verify_derivation(L, d, lam, mu, gamma, k, l):
            raise MembershipError(
                "solver produced a non-member at params %r"
                % ((lam, mu, gamma, k, l),))
    return DerivationSpace((lam, mu, gamma, k, l), space)


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
    kill = derivation_space(L, one, zero, zero, k, l)
    absorb = derivation_space(L, zero, one, zero, k, l)
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
    spaces = {}
    mats = []
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            sp = derivation_space(L, lam, mu, gamma, k, l)
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
