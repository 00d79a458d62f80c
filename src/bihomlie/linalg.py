"""Dense exact linear algebra over QQ or GF(p).

Matrices are immutable (tuple-of-tuples storage) and all operations are pure.
Row reduction picks the first nonzero entry of each column scan as the pivot;
with exact arithmetic there is nothing to gain from magnitude pivoting, and a
deterministic rule keeps golden-file output stable.

Two subspace types share one canonical-form idea: a subspace is stored by any
spanning set but compared through the reduced row echelon form of the spanning
vectors, which is unique. Span equality is therefore structural equality.
"""

from .fields import FieldMismatchError, field_of_scalar


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""


class Matrix:

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, entries, field=None):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if field is None:
            field = field_of_scalar(rows[0][0])
        self.field = field
        self.rows = len(rows)
        self.cols = ncols
        self.entries = tuple(tuple(field.coerce(x) for x in r) for r in rows)

    @classmethod
    def identity(cls, n, field):
        one, zero = field.one(), field.zero()
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)], field)

    @classmethod
    def zero(cls, rows, cols, field):
        z = field.zero()
        return cls([[z] * cols for _ in range(rows)], field)

    @classmethod
    def unit(cls, n, i, j, field):
        """n x n matrix with a single 1 in row i, column j (0-based)."""
        m = [[field.zero()] * n for _ in range(n)]
        m[i][j] = field.one()
        return cls(m, field)

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatchError(
                "mixed fields %r and %r" % (self.field, other.field))

    def __add__(self, other):
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix([[self.entries[i][j] + other.entries[i][j]
                        for j in range(self.cols)]
                       for i in range(self.rows)], self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-x for x in r] for r in self.entries], self.field)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            return Matrix(
                [[sum((self.entries[i][t] * other.entries[t][j]
                       for t in range(self.cols)), self.field.zero())
                  for j in range(other.cols)]
                 for i in range(self.rows)], self.field)
        x = self.field.coerce(other)
        return Matrix([[e * x for e in r] for r in self.entries], self.field)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        if self.rows != self.cols or n < 0:
            raise ValueError("powers need a square matrix and n >= 0")
        if n == 0:
            return Matrix.identity(self.rows, self.field)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def apply(self, vec):
        """Matrix times coordinate vector (columns hold basis images)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        vec = [self.field.coerce(x) for x in vec]
        return tuple(
            sum((self.entries[i][j] * vec[j] for j in range(self.cols)),
                self.field.zero())
            for i in range(self.rows))

    def transpose(self):
        return Matrix([self.col(j) for j in range(self.cols)], self.field)

    def is_zero(self):
        z = self.field.zero()
        return all(x == z for r in self.entries for x in r)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        one, zero = self.field.one(), self.field.zero()
        return all(self.entries[i][j] == (one if i == j else zero)
                   for i in range(self.rows) for j in range(self.cols))

    def vectorize(self):
        """Row-major flattening, the coordinate convention for operator spaces."""
        return tuple(x for r in self.entries for x in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return "Matrix(%r)" % (list(list(r) for r in self.entries),)


def matrix_from_vector(vec, n, field):
    """Inverse of Matrix.vectorize for n x n operators."""
    if len(vec) != n * n:
        raise ValueError("vector length is not n^2")
    return Matrix([[vec[i * n + j] for j in range(n)] for i in range(n)],
                  field)


def rref(m):
    """Reduced row echelon form. Returns (rref matrix, pivot column list)."""
    field = m.field
    zero = field.zero()
    work = [list(r) for r in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for r in range(pr, m.rows):
            if work[r][pc] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        inv = work[pr][pc]
        work[pr] = [x / inv for x in work[pr]]
        for r in range(m.rows):
            if r != pr and work[r][pc] != zero:
                factor = work[r][pc]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Matrix(work, field), pivots


def rank(m):
    return len(rref(m)[1])


def nullspace_basis(m):
    """Basis of {v : m v = 0}, one vector per free column of the rref."""
    field = m.field
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [field.zero()] * m.cols
        v[fc] = field.one()
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r.entries[row_idx][fc]
        basis.append(tuple(v))
    return basis


def is_invertible(m):
    return m.rows == m.cols and rank(m) == m.rows


def invert(m):
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices invert")
    n = m.rows
    aug = Matrix([list(m.entries[i]) + list(Matrix.identity(n, m.field).entries[i])
                  for i in range(n)], m.field)
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix([red.entries[i][n:] for i in range(n)], m.field)


def char_poly(m):
    """Coefficients of det(t I - m), highest degree first. Division-free."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    field = m.field
    zero, one = field.zero(), field.one()

    def pmul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == zero:
                continue
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return out

    def padd(p, q):
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, b in enumerate(q):
            out[i] = out[i] + b
        return out

    # entry polynomials of t*I - m, constant term first
    ent = [[[-m.entries[i][j]] + ([one] if i == j else [])
            for j in range(n)] for i in range(n)]
    # Leibniz determinant by column-wise subset DP: state = rows used so far,
    # sign of adding row r = parity of rows already used that sit below r.
    memo = {0: [one]}
    for col in range(n):
        new_memo = {}
        for used, val in memo.items():
            for r in range(n):
                if used >> r & 1:
                    continue
                term = pmul(ent[r][col], val)
                if bin(used >> (r + 1)).count("1") % 2 == 1:
                    term = [-c for c in term]
                key = used | 1 << r
                if key in new_memo:
                    new_memo[key] = padd(new_memo[key], term)
                else:
                    new_memo[key] = term
        memo = new_memo
    poly = memo[(1 << n) - 1]
    poly = list(poly) + [zero] * (n + 1 - len(poly))
    return tuple(reversed(poly))


class VectorSubspace:
    """Subspace of coordinate n-space, canonicalized by row reduction."""

    __slots__ = ("ambient_dim", "field", "basis")

    def __init__(self, ambient_dim, vectors, field):
        self.ambient_dim = ambient_dim
        self.field = field
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        if vecs:
            red, pivots = rref(Matrix(vecs, field))
            self.basis = tuple(red.entries[i] for i in range(len(pivots)))
        else:
            self.basis = ()

    @classmethod
    def full(cls, n, field):
        return cls(n, Matrix.identity(n, field).entries, field)

    @classmethod
    def zero(cls, n, field):
        return cls(n, [], field)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        vec = tuple(self.field.coerce(x) for x in vec)
        if all(x == self.field.zero() for x in vec):
            return True
        if not self.basis:
            return False
        stacked = Matrix(list(self.basis) + [vec], self.field)
        return rank(stacked) == self.dim

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def sum(self, other):
        self._check(other)
        return VectorSubspace(self.ambient_dim,
                              list(self.basis) + list(other.basis), self.field)

    def intersection(self, other):
        self._check(other)
        if not self.basis or not other.basis:
            return VectorSubspace.zero(self.ambient_dim, self.field)
        # solve a^T u = b^T v: nullspace of [basisA^T | -basisB^T]
        a = Matrix(self.basis, self.field).transpose()
        b = Matrix(other.basis, self.field).transpose()
        stacked = Matrix(
            [list(a.entries[i]) + [-x for x in b.entries[i]]
             for i in range(self.ambient_dim)], self.field)
        vecs = []
        ka = len(self.basis)
        for sol in nullspace_basis(stacked):
            u = sol[:ka]
            vecs.append(a.apply(u))
        return VectorSubspace(self.ambient_dim, vecs, self.field)

    def _check(self, other):
        if (self.ambient_dim != other.ambient_dim
                or self.field != other.field):
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (isinstance(other, VectorSubspace)
                and self.ambient_dim == other.ambient_dim
                and self.field == other.field
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.field, self.basis))

    def __repr__(self):
        return "VectorSubspace(dim=%d of %d)" % (self.dim, self.ambient_dim)


class MatrixSubspace:
    """Linear space of n x n operators, canonicalized via vectorization."""

    __slots__ = ("dim_ambient", "field", "basis", "_vs")

    def __init__(self, dim_ambient, matrices, field):
        self.dim_ambient = dim_ambient
        self.field = field
        for m in matrices:
            if m.rows != dim_ambient or m.cols != dim_ambient:
                raise ValueError("matrix shape mismatch")
            if m.field != field:
                raise FieldMismatchError("matrix field mismatch")
        self._vs = VectorSubspace(dim_ambient * dim_ambient,
                                  [m.vectorize() for m in matrices], field)
        self.basis = tuple(
            matrix_from_vector(v, dim_ambient, field) for v in self._vs.basis)

    @property
    def dim(self):
        return self._vs.dim

    def contains(self, m):
        return self._vs.contains(m.vectorize())

    def contains_subspace(self, other):
        return all(self.contains(m) for m in other.basis)

    def sum(self, other):
        return MatrixSubspace(self.dim_ambient,
                              list(self.basis) + list(other.basis), self.field)

    def intersection(self, other):
        inter = self._vs.intersection(other._vs)
        mats = [matrix_from_vector(v, self.dim_ambient, self.field)
                for v in inter.basis]
        return MatrixSubspace(self.dim_ambient, mats, self.field)

    def __eq__(self, other):
        return isinstance(other, MatrixSubspace) and self._vs == other._vs

    def __hash__(self):
        return hash(self._vs)

    def __repr__(self):
        return "MatrixSubspace(dim=%d, ambient=%dx%d)" % (
            self.dim, self.dim_ambient, self.dim_ambient)
