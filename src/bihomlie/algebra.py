"""BiHom-Lie algebras given by structure constants and two twist matrices.

An algebra is (L, bracket, alpha, beta): bracket via the table c[i][j][s]
(so [e_i, e_j] = sum_s c[i][j][s] e_s, 0-based storage, 1-based reporting),
twists via n x n matrices whose columns hold basis images. Construction does
not enforce the axioms; the check_* operations produce diagnostics so that
candidate non-algebras can be represented and rejected.

Construction extracts the data once into two read-only forms: _constants,
the nonzero structure constants as field values, and _ints, the int view
that plain_rows makes of the table and the twists (see _int_view). Every
bracket on field values sums over _constants: the pull-back kernel
_pullback for matrices, and L.bracket, the same sum for one pair of
vectors; only the algebra itself reads the dense table. The sparse kernels
sum from the int 0, so a key exists only once a field value lands in it.
Every axiom is evaluated by two independent routes. The table route sums
the constant identities with _pullback and _pushforward (Jacobi: two
pull-backs), to report the first violating total. The basis route only
decides: it brackets the twists' unit images on _ints with the int kernels
_bracket and _image, which the membership kernel in derivations also runs,
each distinct Jacobi bracket once. Each check refuses to return if the two
verdicts disagree, since the twisted Jacobi sum is easy to get wrong in
exactly one of the two forms.
"""

from itertools import product

from .fields import QQ, FieldMismatchError
from .linalg import Matrix, _row_support, invert, is_invertible


class CrossCheckError(AssertionError):
    """The two axiom-evaluation routes disagreed; a bug, never user error."""


class NotLieError(ValueError):
    """Input bracket fails classical skew-symmetry or the Jacobi identity."""


class TwistError(ValueError):
    """Twist maps fail a constructor precondition."""


class AxiomReport:
    """Outcome of the four axiom checks with the first violating indices."""

    __slots__ = ("commuting", "skew_symmetric", "bihom_jacobi",
                 "multiplicative", "first_violation")

    def __init__(self, commuting, skew_symmetric, bihom_jacobi,
                 multiplicative, first_violation):
        self.commuting = commuting
        self.skew_symmetric = skew_symmetric
        self.bihom_jacobi = bihom_jacobi
        self.multiplicative = multiplicative
        self.first_violation = first_violation

    @property
    def passed(self):
        return (self.commuting and self.skew_symmetric
                and self.bihom_jacobi and self.multiplicative)

    def __repr__(self):
        if self.passed:
            return "AxiomReport(passed)"
        return "AxiomReport(commuting=%s, skew=%s, jacobi=%s, mult=%s, first=%r)" % (
            self.commuting, self.skew_symmetric, self.bihom_jacobi,
            self.multiplicative, self.first_violation)


def structure_table(n, entries, field):
    """Dense n^3 table from a sparse dict {(i,j,k): value}, 1-based keys."""
    sparse = {}
    for (i, j, k), value in entries.items():
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            raise ValueError("bracket index out of range: %r" % ((i, j, k),))
        sparse[i - 1, j - 1, k - 1] = field.coerce(value)
    return _dense(n, sparse, field.zero())


def _dense(n, entries, zero):
    """The n^3 table of a sparse {(i, j, s): value} dict, 0-based keys."""
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, s), value in entries.items():
        table[i][j][s] = value
    return tuple(tuple(tuple(r) for r in plane) for plane in table)


def _coerce_table(table, field):
    return tuple(tuple(tuple(field.coerce(x) for x in row) for row in plane)
                 for plane in table)


def _constants(table):
    """The nonzero structure constants as {(p, q, s): c_pq^s}."""
    return {(p, q, s): c for p, plane in enumerate(table)
            for q, row in enumerate(plane)
            for s, c in enumerate(row) if c}


def _pullback(constants, a, b):
    """{(i, j, s): sum_{p,q} a_pi b_qj c_pq^s}, coordinate s of [a(e_i),
    b(e_j)] for matrix entries a, b (columns hold basis images), summed
    over the nonzero constants and entries only. A missing key is zero."""
    a_rows, b_rows = _row_support(a), _row_support(b)
    out = {}
    for (p, q, s), c in constants.items():
        for i, x in a_rows[p]:
            for j, y in b_rows[q]:
                out[i, j, s] = out.get((i, j, s), 0) + c * x * y
    return out


def _pushforward(constants, d):
    """{(i, j, t): sum_s d_ts c_ij^s}, coordinate t of d([e_i, e_j]) for
    matrix entries d, summed over the nonzero constants and entries only.
    A missing key is zero."""
    d_cols = _row_support(zip(*d))
    out = {}
    for (i, j, s), c in constants.items():
        for t, x in d_cols[s]:
            out[i, j, t] = out.get((i, j, t), 0) + c * x
    return out


def _first_violation(kind, totals):
    """(kind, 1-based key, total) at the smallest key with a nonzero total,
    the tuple a loop in index order reaches first; None when there is none."""
    key = min((k for k, v in totals.items() if v), default=None)
    return None if key is None else (kind, tuple(i + 1 for i in key),
                                     totals[key])


def _cyclic_keys(i, j, k, r):
    """The Jacobi totals that the outer sum O(i,j,k,r) enters."""
    return ((i, j, k, r), (k, i, j, r), (j, k, i, r))


def _skew_violation(constants, alpha, beta):
    """First ("skew", 1-based (i,j,s), total) with a nonzero total
    sum_{p,q} (b_pi a_qj + b_pj a_qi) c_pq^s, or None; alpha and beta are
    Matrices."""
    totals = {}
    for (i, j, s), v in _pullback(constants, beta.entries,
                                  alpha.entries).items():
        for key in ((i, j, s), (j, i, s)):
            totals[key] = totals.get(key, 0) + v
    return _first_violation("skew", totals)


def _jacobi_violation(constants, alpha, beta, beta2):
    """First ("jacobi", 1-based (i,j,k,r), total) with a nonzero twisted
    Jacobi total, or None, for Matrices alpha, beta and beta2 = beta^2.
    Column j*n + k of an n x n^2 entry list holds inner(j,k) = [beta e_j,
    alpha e_k]; its pull-back with beta2 gives O(i,j,k,r), coordinate r
    of [beta2 e_i, inner(j,k)]; the total is O plus its two cyclic shifts."""
    n = alpha.rows
    inner = [[0] * (n * n) for _ in range(n)]
    for (j, k, l), w in _pullback(constants, beta.entries,
                                  alpha.entries).items():
        inner[l][j * n + k] = w
    totals = {}
    for (i, jk, r), v in _pullback(constants, beta2.entries, inner).items():
        j, k = divmod(jk, n)
        for key in _cyclic_keys(i, j, k, r):
            totals[key] = totals.get(key, 0) + v
    return _first_violation("jacobi", totals)


def _morphism_violation(constants, target, m, kind):
    """First (kind, 1-based (i,j,s), residual) with m([e_i,e_j]) != [m e_i,
    m e_j], the right-hand bracket that of the target constants and m given
    by its entries, or None. The residual is
    sum_k c_ij^k m_sk - sum_{p,q} m_pi m_qj target_pq^s."""
    totals = _pushforward(constants, m)
    for key, v in _pullback(target, m, m).items():
        totals[key] = totals.get(key, 0) - v
    return _first_violation(kind, totals)


def _sparse(rows):
    """_row_support as nested tuples, which share the empty tuple."""
    return tuple(map(tuple, _row_support(rows)))


def _int_view(structure, alpha, beta, field):
    """(brackets, alpha, beta) on ints through field.plain_rows: per bracket
    [e_i, e_j] its nonzero (s, C c_ij^s), and per twist (scale, columns),
    the nonzero (index, entry) pairs of each column of the scaled twist.
    Each identity tested on it has one degree in the constants on both
    sides, so the table scale C cancels and is not kept."""
    n, plain_rows = len(structure), field.plain_rows
    rows = _sparse(plain_rows(row for plane in structure for row in plane)[1])
    twists = [(scale, _sparse(zip(*m)))
              for scale, m in map(plain_rows, (alpha.entries, beta.entries))]
    return (tuple(rows[i:i + n] for i in range(0, n * n, n)), *twists)


def _bracket(brackets, x, y):
    """{s: coordinate s of [x, y]} over the nonzero constants, for x and y
    given by their nonzero (index, entry) pairs."""
    out = {}
    for p, u in x:
        plane = brackets[p]
        for q, v in y:
            for s, c in plane[q]:
                out[s] = out.get(s, 0) + u * v * c
    return out


def _image(cols, x):
    """{s: coordinate s of m x} for m given by its sparse columns."""
    out = {}
    for t, u in x:
        for s, v in cols[t]:
            out[s] = out.get(s, 0) + u * v
    return out


def _vanishes(terms, is_zero):
    """Whether the {s: int} maps terms sum to zero at every coordinate."""
    return all(is_zero(sum(t.get(s, 0) for t in terms))
               for s in set().union(*terms))


def _jacobi_holds(brackets, b2, bu, au, is_zero):
    """Whether the twisted Jacobi sum vanishes on every basis triple, for
    the sparse columns b2, bu and au of the scaled beta^2, beta and alpha.
    Each inner bracket [bu_j, au_k] is evaluated once, and each outer one
    [b2_i, inner(j, k)] once where inner(j, k) is nonzero: 0 elsewhere."""
    n, outer = len(brackets), {}    # (i, j, k): [b2_i, inner(j, k)]
    for j, k in product(range(n), repeat=2):
        w = _bracket(brackets, bu[j], au[k]).items()
        if w:
            for i, x in enumerate(b2):
                outer[i, j, k] = _bracket(brackets, x, w)
    return all(_vanishes((v, outer.get((j, k, i), {}),
                          outer.get((k, i, j), {})), is_zero)
               for (i, j, k), v in outer.items())


def _routes_agree(axiom, table_first, basis_ok):
    """(ok, first violation) of an axiom, once the table route's first
    violation (None when it finds none) and the basis route's verdict
    agree; CrossCheckError when they do not."""
    if (table_first is None) != basis_ok:
        raise CrossCheckError("%s routes disagree" % axiom)
    return basis_ok, table_first


class BiHomLieAlgebra:

    __slots__ = ("n", "field", "structure", "alpha", "beta", "_constants",
                 "_ints", "_solver")

    def __init__(self, structure, alpha, beta, field=None):
        if field is None:
            field = alpha.field if isinstance(alpha, Matrix) else QQ
        n = len(structure)
        table = _coerce_table(structure, field)
        if any(len(plane) != n or any(len(row) != n for row in plane)
               for plane in table):
            raise ValueError("structure table is not n x n x n")
        if not isinstance(alpha, Matrix):
            alpha = Matrix(alpha, field)
        if not isinstance(beta, Matrix):
            beta = Matrix(beta, field)
        for name, m in (("alpha", alpha), ("beta", beta)):
            if m.rows != n or m.cols != n:
                raise ValueError("%s is not %d x %d" % (name, n, n))
            if m.field != field:
                raise FieldMismatchError("%s field mismatch" % name)
        self.n = n
        self.field = field
        self.structure = table
        self.alpha = alpha
        self.beta = beta
        self._constants = _constants(table)
        self._ints = _int_view(table, alpha, beta, field)
        self._solver = None     # derivations._solver builds it on first use

    def __setattr__(self, name, value):
        # the kept _solver answers for the data it was built from
        if name != "_solver" and hasattr(self, name):
            raise AttributeError("BiHomLieAlgebra.%s is read-only" % name)
        object.__setattr__(self, name, value)

    @classmethod
    def from_brackets(cls, n, entries, alpha, beta, field=QQ):
        return cls(structure_table(n, entries, field), alpha, beta, field)

    # --- bracket evaluation -------------------------------------------------

    def bracket(self, x, y):
        """[x, y], coordinate s the sum of c_pq^s x_p y_q over the nonzero
        constants: _pullback's sum for one pair of vectors, inline, as a
        call is made per pair."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("vector length mismatch")
        x = [self.field.coerce(v) for v in x]
        y = [self.field.coerce(v) for v in y]
        out = [self.field.zero()] * self.n
        for (p, q, s), c in self._constants.items():
            if x[p] and y[q]:
                out[s] += c * x[p] * y[q]
        return tuple(out)

    def is_regular(self):
        return is_invertible(self.alpha) and is_invertible(self.beta)

    # --- axiom checks, each along two independent routes --------------------

    def check_commuting(self):
        return (self.alpha * self.beta) == (self.beta * self.alpha)

    def check_skew_symmetry(self):
        """Twisted skew-symmetry. Returns (ok, first_violation)."""
        n, field = self.n, self.field
        brackets, (_, au), (_, bu) = self._ints
        return _routes_agree("skew-symmetry", _skew_violation(
            self._constants, self.alpha, self.beta), all(
                _vanishes((_bracket(brackets, bu[i], au[j]),
                           _bracket(brackets, bu[j], au[i])), field.is_zero)
                for i in range(n) for j in range(i, n)))

    def check_bihom_jacobi(self):
        """Twisted Jacobi identity. Returns (ok, first_violation)."""
        field, beta2 = self.field, self.beta * self.beta
        brackets, (_, au), (_, bu) = self._ints
        b2 = [_image(bu, x).items() for x in bu]
        return _routes_agree("BiHom-Jacobi", _jacobi_violation(
            self._constants, self.alpha, self.beta, beta2),
            _jacobi_holds(brackets, b2, bu, au, field.is_zero))

    def check_multiplicative(self):
        """Both twists are bracket endomorphisms. Returns (ok, first)."""
        constants = self._constants
        first = (_morphism_violation(constants, constants, self.alpha.entries,
                                     "multiplicative-alpha")
                 or _morphism_violation(constants, constants,
                                        self.beta.entries,
                                        "multiplicative-beta"))
        # scale * m([e_i, e_j]) == [m e_i, m e_j] for each scaled twist m
        brackets, *twists = self._ints
        return _routes_agree("multiplicativity", first, all(
            _vanishes((_image(cols, [(s, -scale * c) for s, c in pairs]),
                       _bracket(brackets, cols[i], cols[j])),
                      self.field.is_zero)
            for scale, cols in twists for i, plane in enumerate(brackets)
            for j, pairs in enumerate(plane)))

    def check_all(self):
        commuting = self.check_commuting()
        skew, skew_first = self.check_skew_symmetry()
        jacobi, jacobi_first = self.check_bihom_jacobi()
        mult, mult_first = self.check_multiplicative()
        # a check's first violation is None exactly when it passes
        first = (skew_first or jacobi_first or mult_first if commuting
                 else ("commuting", (), None))
        return AxiomReport(commuting, skew, jacobi, mult, first)

    def __eq__(self, other):
        return (isinstance(other, BiHomLieAlgebra)
                and self.field == other.field
                and self.structure == other.structure
                and self.alpha == other.alpha and self.beta == other.beta)

    def __hash__(self):
        return hash((self.field, self.structure, self.alpha, self.beta))

    def __repr__(self):
        return "BiHomLieAlgebra(n=%d, field=%r)" % (self.n, self.field)


# --- classical Lie helpers (inputs/outputs of the twist constructions) ------

def classical_lie_check(table, field):
    """(skew_ok, jacobi_ok) for a plain Lie structure table: the twisted
    table routes at identity twists."""
    return _classical_lie(_constants(table), len(table), field)


def _classical_lie(constants, n, field):
    one = Matrix.identity(n, field)
    return (_skew_violation(constants, one, one) is None,
            _jacobi_violation(constants, one, one, one) is None)


def _lie_constants(constants, n, field):
    """The nonzero constants of a classical Lie bracket on n dimensions,
    returned as given; NotLieError when they are not a Lie algebra."""
    skew, jacobi = _classical_lie(constants, n, field)
    if not (skew and jacobi):
        raise NotLieError("input table is not a Lie algebra "
                          "(skew=%s, jacobi=%s)" % (skew, jacobi))
    return constants


def yau_twist(table, alpha, beta, field=QQ):
    """BiHom-Lie algebra with bracket [x,y] = [alpha(x), beta(y)]_classical.

    The input is a classical Lie structure table; alpha and beta must commute
    and be endomorphisms of that bracket. The output passes check_all by the
    twisting construction, but this is tested, not assumed.
    """
    table = _coerce_table(table, field)
    if not isinstance(alpha, Matrix):
        alpha = Matrix(alpha, field)
    if not isinstance(beta, Matrix):
        beta = Matrix(beta, field)
    constants = _lie_constants(_constants(table), len(table), field)
    if alpha * beta != beta * alpha:
        raise TwistError("twist maps do not commute")
    for name, m in (("alpha", alpha), ("beta", beta)):
        if _morphism_violation(constants, constants, m.entries,
                               name) is not None:
            raise TwistError("%s is not a morphism of the input bracket" % name)
    twisted = _pullback(constants, alpha.entries, beta.entries)
    return BiHomLieAlgebra(_dense(len(table), twisted, field.zero()), alpha,
                           beta, field)


def induced_lie(L):
    """Classical structure table [x,y]' = [alpha^-1 x, beta^-1 y]; regular only."""
    if not L.is_regular():
        raise TwistError("induced Lie bracket needs bijective twist maps")
    return _dense(L.n, _pullback(L._constants, invert(L.alpha).entries,
                                 invert(L.beta).entries), L.field.zero())


def heisenberg(m, a, x, b_list, y_list, field=QQ):
    """Twisted Heisenberg algebra on 2m+1 dimensions.

    Basis order (X_1..X_m, Y_1..Y_m, Z). Built as the Yau twist of the
    classical Heisenberg bracket [X_i, Y_i] = Z by the diagonal maps
    alpha = diag(b_1..b_m, a/b_1..a/b_m, a), beta = diag(y_1.., x/y_1.., x);
    the resulting brackets are [X_i,Y_i] = b_i (x/y_i) Z and
    [Y_i,X_i] = -y_i (a/b_i) Z.
    """
    a = field.coerce(a)
    x = field.coerce(x)
    b_list = [field.coerce(v) for v in b_list]
    y_list = [field.coerce(v) for v in y_list]
    if len(b_list) != m or len(y_list) != m:
        raise ValueError("need m values for b and for y")
    zero = field.zero()
    if a == zero or x == zero or any(v == zero for v in b_list + y_list):
        raise ValueError("all twist parameters must be nonzero")
    n = 2 * m + 1
    entries = {}
    for i in range(1, m + 1):
        entries[i, m + i, n] = 1
        entries[m + i, i, n] = -1
    alpha, beta = (Matrix([[diag[i] if i == j else zero for j in range(n)]
                           for i in range(n)], field)
                   for diag in (b_list + [a / b for b in b_list] + [a],
                                y_list + [x / y for y in y_list] + [x]))
    return yau_twist(structure_table(n, entries, field), alpha, beta, field)


def direct_sum(A, B):
    """Block direct sum; each summand embeds as an ideal."""
    if A.field != B.field:
        raise FieldMismatchError("direct sum needs a common field")
    field = A.field
    zero = field.zero()
    n = A.n + B.n
    entries = dict(A._constants)
    entries.update(((A.n + i, A.n + j, A.n + s), c)
                   for (i, j, s), c in B._constants.items())

    def block(m1, m2):
        return Matrix([(*row, *[zero] * B.n) for row in m1.entries]
                      + [(*[zero] * A.n, *row) for row in m2.entries], field)

    return BiHomLieAlgebra(_dense(n, entries, zero), block(A.alpha, B.alpha),
                           block(A.beta, B.beta), field)
