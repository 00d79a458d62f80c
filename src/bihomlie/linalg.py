"""Dense exact linear algebra over QQ or GF(p).

Matrices are immutable (tuple-of-tuples storage) and all operations are pure.
Row reduction picks the first nonzero entry of each column scan as the pivot;
with exact arithmetic there is nothing to gain from magnitude pivoting, and a
deterministic rule keeps golden-file output stable.

Two subspace types share one canonical-form idea: a subspace is stored by any
spanning set but compared through the reduced row echelon form of the spanning
vectors, which is unique. Span equality is therefore structural equality.
nullspace_basis returns a kernel in that form, to be wrapped unreduced.
"""

from operator import add

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

    @staticmethod
    def identity(n, field):
        one, zero = field.one(), field.zero()
        return _matrix([[one if i == j else zero for j in range(n)]
                        for i in range(n)], field)

    @staticmethod
    def zero(rows, cols, field):
        z = field.zero()
        return _matrix([[z] * cols for _ in range(rows)], field)

    @staticmethod
    def unit(n, i, j, field):
        """n x n matrix with a single 1 in row i, column j (0-based)."""
        m = [[field.zero()] * n for _ in range(n)]
        m[i][j] = field.one()
        return _matrix(m, field)

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatchError(
                "mixed fields %r and %r" % (self.field, other.field))

    def __add__(self, other):
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return _matrix([map(add, r, s)
                        for r, s in zip(self.entries, other.entries)],
                       self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _matrix([[-x for x in r] for r in self.entries], self.field)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            # row i of the product sums x * (row k of other) over the
            # nonzero x = self[i][k], reading only other's nonzero entries
            zero, support = self.field.zero(), _row_support(other.entries)
            out = []
            for r in self.entries:
                acc = [zero] * other.cols
                for x, row in zip(r, support):
                    if x:
                        for j, y in row:
                            acc[j] = acc[j] + x * y
                out.append(acc)
            return _matrix(out, self.field)
        x = self.field.coerce(other)
        return _matrix([[e * x for e in r] for r in self.entries], self.field)

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
        zero = self.field.zero()
        support = [(j, x) for j, x in enumerate(map(self.field.coerce, vec))
                   if x]
        return tuple(sum((row[j] * x for j, x in support), zero)
                     for row in self.entries)

    def transpose(self):
        return _matrix(zip(*self.entries), self.field)

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


def _row_support(entries):
    """Per row of entries, the nonzero (column, entry) pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in entries]


def _matrix(entries, field):
    """A Matrix of rows already in field (arithmetic results): no checks."""
    m = object.__new__(Matrix)
    m.entries = tuple(map(tuple, entries))
    if not m.entries or not m.entries[0]:
        raise ValueError("empty matrix")
    m.rows, m.cols, m.field = len(m.entries), len(m.entries[0]), field
    return m


def rref(m):
    """Reduced row echelon form. Returns (rref matrix, pivot column list)."""
    field = m.field
    work = [list(r) for r in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for r in range(pr, m.rows):
            if work[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        row, inv = work[pr], work[pr][pc]
        # the pivot row is zero left of pc: only its nonzero columns change
        support = [c for c in range(pc, m.cols) if row[c]]
        for c in support:
            row[c] = row[c] / inv
        for other in work:
            factor = other[pc]
            if other is not row and factor:
                for c in support:
                    other[c] = other[c] - factor * row[c]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return _matrix(work, field), pivots


def rank(m):
    return len(rref(m)[1])


def nullspace_basis(m):
    """The basis of {v : m v = 0} in reduced row echelon form.

    m is row-reduced with its columns reversed, and an rref row is zero left
    of its pivot. So in m's order the kernel vector of a free column is 1
    there, 0 at the other free columns and nonzero elsewhere only at pivot
    columns to its right: by ascending free column, the kernel's rref."""
    n, zero, one = m.cols, m.field.zero(), m.field.one()
    r, pivots = rref(_matrix([row[::-1] for row in m.entries], m.field))
    basis = []
    for f in sorted(set(range(n)).difference(pivots), reverse=True):
        v = [zero] * n
        v[f] = one
        for row, pc in zip(r.entries, pivots):
            if pc < f:
                v[pc] = -row[f]
        basis.append(tuple(reversed(v)))
    return basis


def is_invertible(m):
    return m.rows == m.cols and rank(m) == m.rows


def invert(m):
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices invert")
    n = m.rows
    ident = Matrix.identity(n, m.field).entries
    red, pivots = rref(_matrix([row + unit for row, unit
                                in zip(m.entries, ident)], m.field))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _matrix([red.entries[i][n:] for i in range(n)], m.field)


def char_poly(m):
    """Coefficients of det(t I - m), highest degree first, by Berkowitz's
    division-free recurrence (1984): from the polynomial p of a leading
    block M, that of [[M, C], [R, a]] is q_i = sum_j c_(i-j) p_j with
    c = (1, -a, -R C, -R M C, ..., -R M^(r-1) C), r = size of M, summed
    over nonzero entries and nonzero c_i only."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    a, zero, one = m.entries, m.field.zero(), m.field.one()
    poly = [one]
    for r in range(m.rows):
        left = _row_support(row[:r] for row in a[:r + 1])  # M, then R
        vec = [a[i][r] for i in range(r)]
        col = [one, -a[r][r]]
        for _ in range(r):
            if not any(vec):    # so are all later c_i
                break
            col.append(-sum((x * vec[j] for j, x in left[r]), zero))
            vec = [sum((x * vec[j] for j, x in row), zero) for row in left[:r]]
        terms = [(t, c) for t, c in enumerate(col) if c]
        poly = [sum((c * poly[i - t] for t, c in terms if 0 <= i - t <= r),
                    zero) for i in range(r + 2)]
    return tuple(poly)


class VectorSubspace:
    """Subspace of coordinate n-space, canonicalized by row reduction."""

    __slots__ = ("ambient_dim", "field", "basis")

    def __init__(self, ambient_dim, vectors, field):
        self.ambient_dim = ambient_dim
        self.field = field
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length mismatch")
        self.basis = ()
        if vecs:
            red, pivots = rref(_matrix(vecs, field))
            self.basis = red.entries[:len(pivots)]

    @classmethod
    def _of(cls, n, basis, field):
        """The subspace spanned by basis, rows over field in reduced row
        echelon form already: nothing is coerced or reduced again."""
        space = object.__new__(cls)
        space.ambient_dim, space.field, space.basis = n, field, tuple(basis)
        return space

    @classmethod
    def full(cls, n, field):
        # an identity is its own reduced row echelon form
        return cls._of(n, Matrix.identity(n, field).entries, field)

    @classmethod
    def zero(cls, n, field):
        return cls(n, [], field)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        return self._holds([vec])

    def contains_subspace(self, other):
        self._check(other)
        return self._holds(other.basis)

    def _holds(self, vectors):
        """Whether every one of vectors lies in the space: the inclusion
        test, one rank of the basis stacked on the vectors."""
        if any(len(v) != self.ambient_dim for v in vectors):
            raise ValueError("vector length mismatch")
        return not vectors or rank(Matrix([*self.basis, *vectors],
                                          self.field)) == self.dim

    def sum(self, other):
        self._check(other)
        return VectorSubspace(self.ambient_dim,
                              list(self.basis) + list(other.basis), self.field)

    def intersection(self, other):
        self._check(other)
        if not self.basis or not other.basis:
            return VectorSubspace.zero(self.ambient_dim, self.field)
        # Zassenhaus: the rref of the rows (a | a) and (b | 0) has zero left
        # half exactly in the rows whose right halves span the intersection;
        # those rows have their pivots at n or later, so their right halves
        # are in reduced row echelon form already
        n = self.ambient_dim
        zeros = (self.field.zero(),) * n
        red, pivots = rref(_matrix([a + a for a in self.basis]
                                   + [b + zeros for b in other.basis],
                                   self.field))
        return VectorSubspace._of(n, (red.entries[i][n:]
                                      for i, c in enumerate(pivots) if c >= n),
                                  self.field)

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
        for m in matrices:
            if m.rows != dim_ambient or m.cols != dim_ambient:
                raise ValueError("matrix shape mismatch")
            if m.field != field:
                raise FieldMismatchError("matrix field mismatch")
        self._set(dim_ambient, VectorSubspace(
            dim_ambient * dim_ambient, [m.vectorize() for m in matrices],
            field))

    @classmethod
    def _of(cls, n, vs):
        """The space of n x n operators whose vectorizations span vs, which
        is canonical already: nothing is coerced or reduced again."""
        space = object.__new__(cls)
        space._set(n, vs)
        return space

    def _set(self, n, vs):
        self.dim_ambient, self.field, self._vs = n, vs.field, vs
        self.basis = tuple(_matrix([v[i * n:(i + 1) * n] for i in range(n)],
                                   vs.field) for v in vs.basis)

    @property
    def dim(self):
        return self._vs.dim

    def contains(self, m):
        if m.field != self.field:
            raise FieldMismatchError("matrix field mismatch")
        return self._vs.contains(m.vectorize())

    def contains_subspace(self, other):
        return self._vs.contains_subspace(other._vs)

    def sum(self, other):
        return MatrixSubspace._of(self.dim_ambient, self._vs.sum(other._vs))

    def intersection(self, other):
        return MatrixSubspace._of(self.dim_ambient,
                                  self._vs.intersection(other._vs))

    def __eq__(self, other):
        return isinstance(other, MatrixSubspace) and self._vs == other._vs

    def __hash__(self):
        return hash(self._vs)

    def __repr__(self):
        return "MatrixSubspace(dim=%d, ambient=%dx%d)" % (
            self.dim, self.dim_ambient, self.dim_ambient)
