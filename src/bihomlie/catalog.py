"""Two-dimensional family catalog and golden-table replay harness.

The shipped data file carries, per family: the bracket and twist templates,
the expected centroid/derivation shapes per guarded case, pinned parameter
samples, and errata records where a shipped cell deviates from the original
tabulation (each deviation is re-derived in the test suite).
"""

import ast
import json
import re
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from operator import add, eq, ge, le, mul, ne, sub

from .algebra import BiHomLieAlgebra
from .derivations import centroid, derivation_space
from .fields import QQ, parse_scalar
from .linalg import Matrix, MatrixSubspace
from .structure import is_characteristically_nilpotent, is_small_centroid

_SLOT_NAMES = ("c1", "c2", "c3", "d1", "d2", "d3")


class CatalogError(Exception):
    pass


class InadmissibleParameterError(CatalogError):
    pass


# --- expression grammar ----------------------------------------------------
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | atom ('^' factor)?
# atom   := INT | NAME | '(' expr ')'
# NAME is ASCII letters then letters or digits, INT is decimal digits. '^'
# is read as Python's '**', which has the same precedence and binds to the
# right; Python's parser reads the string, and only the nodes above are
# compiled. Exponents must evaluate to non-negative integers. A string
# longer than _MAX_EXPR_CHARS is refused before parsing, so no nesting
# reaches the recursion limits of Python's parser or of the compiler below.

_MAX_EXPR_CHARS = 100
_TOKENS = re.compile(r"(?:(?:[A-Za-z][A-Za-z0-9]*|[0-9]+)(?![A-Za-z0-9])"
                     r"|\*(?!\*)|[-+/^()\s])*")


@lru_cache(maxsize=1024)
def _parse(src):
    """(evaluate, names) of an expression string: evaluate(env) gives its
    Fraction value, names the symbols it reads. A malformed string raises
    here, before anything is evaluated."""
    def compile_(node):
        if type(node) is ast.Constant and type(node.value) is int:
            value = Fraction(node.value)
            return lambda env: value
        if type(node) is ast.Name:
            return lookup(node.id)
        if type(node) is ast.UnaryOp and type(node.op) is ast.USub:
            operand = compile_(node.operand)
            return lambda env: -operand(env)
        if type(node) is ast.BinOp and type(node.op) in binary:
            op, lhs, rhs = (binary[type(node.op)], compile_(node.left),
                            compile_(node.right))
            return lambda env: op(lhs(env), rhs(env))
        raise CatalogError("bad expression %r" % src)

    def lookup(name):
        def value(env):
            if name not in env:
                raise CatalogError("unknown symbol %r in expression %r"
                                   % (name, src))
            return env[name]
        return value

    def divide(lhs, rhs):
        if rhs == 0:
            raise CatalogError("division by zero in %r" % src)
        return lhs / rhs

    def power(base, exp):
        if exp.denominator != 1 or exp < 0:
            raise CatalogError("exponent %s in %r is not a non-negative "
                               "integer" % (exp, src))
        return base ** int(exp)

    binary = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: divide,
              ast.Pow: power}
    if len(src) > _MAX_EXPR_CHARS or not _TOKENS.fullmatch(src):
        raise CatalogError("bad expression %r" % src)
    try:
        tree = ast.parse(" ".join(src.split()).replace("^", "**"),
                         mode="eval")
    except SyntaxError:
        raise CatalogError("bad expression %r" % src) from None
    return compile_(tree.body), frozenset(
        node.id for node in ast.walk(tree) if type(node) is ast.Name)


def eval_expr(src, env):
    """Evaluate an expression string to a Fraction over the given symbols."""
    return _parse(src)[0](env)


# --- guards ----------------------------------------------------------------

_OPS = {"eq": eq, "ne": ne, "ge": ge, "le": le}


def guard_matches(guard, env):
    """True when every clause of the conjunctive guard holds in env."""
    for clause in guard:
        op = _OPS.get(clause["op"])
        if op is None:
            raise CatalogError("unknown guard operator %r" % clause["op"])
        if not op(eval_expr(clause["lhs"], env), eval_expr(clause["rhs"], env)):
            return False
    return True


# --- expected-shape patterns ----------------------------------------------

def pattern_space(pattern, env, field=QQ):
    """The matrix space a symbolic shape denotes, as slots range freely.

    Every cell must be linear in the slot symbols with zero constant part;
    parameter and exponent symbols come from env. Cells are evaluated and
    checked over Q; only the unit-slot matrices are mapped into field, so
    over F_p a denominator divisible by p raises ReductionError.
    """
    n = len(pattern)
    slots = sorted({name for row in pattern for cell in row
                    for name in _parse(cell)[1] if name in _SLOT_NAMES})
    zero_env = dict(env)
    for s in _SLOT_NAMES:
        zero_env[s] = Fraction(0)
    base = [[eval_expr(cell, zero_env) for cell in row] for row in pattern]
    if any(v != 0 for row in base for v in row):
        raise CatalogError("shape has a nonzero constant part: %r" % (pattern,))
    units = []
    for s in slots:
        unit_env = dict(zero_env)
        unit_env[s] = Fraction(1)
        units.append([[eval_expr(cell, unit_env) for cell in row]
                      for row in pattern])
    # spot-check linearity over Q, where no weight vanishes: a combined
    # assignment must reproduce the weighted sum of the unit-slot matrices
    weights = [Fraction(5 + 2 * idx) for idx in range(len(slots))]
    probe_env = dict(zero_env)
    probe_env.update(zip(slots, weights))
    probe = [[eval_expr(cell, probe_env) for cell in row] for row in pattern]
    for i in range(n):
        for j in range(n):
            acc = sum(w * unit[i][j] for w, unit in zip(weights, units))
            if acc != probe[i][j]:
                raise CatalogError(
                    "shape cell (%d,%d) is not linear in its slots: %r"
                    % (i + 1, j + 1, pattern))
    return MatrixSubspace(n, [Matrix(unit, field) for unit in units], field)


# --- data access -----------------------------------------------------------

class ExpectedRow:
    """One guarded case of a family's expected-results table."""

    __slots__ = ("guard", "centroid", "der", "small", "cn")

    def __init__(self, record):
        self.guard = record["guard"]
        self.centroid = record["centroid"]
        self.der = record["der"]
        self.small = record["small"]
        self.cn = record["cn"]


class CatalogFamily:

    __slots__ = ("id", "params", "brackets", "alpha", "beta", "rows",
                 "samples", "errata")

    def __init__(self, record):
        self.id = record["id"]
        self.params = record["params"]
        self.brackets = record["brackets"]
        self.alpha = record["alpha"]
        self.beta = record["beta"]
        self.rows = [ExpectedRow(r) for r in record["rows"]]
        self.samples = record["samples"]
        self.errata = record["errata"]

    @property
    def param_names(self):
        return [p["name"] for p in self.params]


def _samples_digest(families):
    try:  # the builtin module, as random.py does: OpenSSL costs 3.7 MB RSS
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    blob = json.dumps({f["id"]: f["samples"] for f in families},
                      sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("ascii")).hexdigest()


@cache
def load_catalog():
    """Parsed catalog data, cached; fails if the pinned samples changed."""
    text = (resources.files("bihomlie.data")
            .joinpath("catalog2.json").read_text("utf-8"))
    data = json.loads(text)
    if data.get("format_version") != 1:
        raise CatalogError(
            "unsupported catalog format_version %r"
            % data.get("format_version"))
    digest = _samples_digest(data["families"])
    if digest != data["samples_sha256"]:
        raise CatalogError(
            "pinned sample digest mismatch: expected %s, data gives %s"
            % (data["samples_sha256"], digest))
    families = {}
    for record in data["families"]:
        fam = CatalogFamily(record)
        if fam.id in families:
            raise CatalogError("duplicate family id %r" % fam.id)
        families[fam.id] = fam
    return families


def family_ids():
    return list(load_catalog().keys())


def get_family(family_id):
    fam = load_catalog().get(family_id)
    if fam is None:
        raise CatalogError("unknown family id %r" % family_id)
    return fam


def coerce_params(family_id, params):
    """Validate and convert a parameter assignment to Fractions."""
    fam = get_family(family_id)
    given = dict(params)
    out = {}
    for spec in fam.params:
        name = spec["name"]
        if name not in given:
            raise InadmissibleParameterError(
                "%s: missing parameter %r" % (family_id, name))
        raw = given.pop(name)
        value = raw if isinstance(raw, Fraction) else parse_scalar(raw, QQ)
        if spec["constraint"] == "nonzero" and value == 0:
            raise InadmissibleParameterError(
                "%s: parameter %r must be nonzero" % (family_id, name))
        elif spec["constraint"] not in ("any", "nonzero"):
            raise CatalogError(
                "unknown constraint %r on %s.%s"
                % (spec["constraint"], family_id, name))
        out[name] = value
    if given:
        raise InadmissibleParameterError(
            "%s: unexpected parameters %r" % (family_id, sorted(given)))
    return out


def pinned_samples(family_id):
    """The reproducible parameter assignments shipped with the data file."""
    fam = get_family(family_id)
    return [coerce_params(family_id, s) for s in fam.samples]


def build(family_id, params):
    """Construct a catalog instance over the rationals."""
    fam = get_family(family_id)
    env = coerce_params(family_id, params)
    entries = {}
    for rec in fam.brackets:
        value = eval_expr(rec["value"], env)
        if value != 0:
            entries[(rec["i"], rec["j"], rec["k"])] = value
    alpha = [[eval_expr(cell, env) for cell in row] for row in fam.alpha]
    beta = [[eval_expr(cell, env) for cell in row] for row in fam.beta]
    L = BiHomLieAlgebra.from_brackets(2, entries, Matrix(alpha, QQ),
                                      Matrix(beta, QQ), QQ)
    report = L.check_all()
    if not report.passed:
        raise CatalogError(
            "%s at %r violates the axioms: %r" % (family_id, params, report))
    return L


class RowVerdict:
    """Outcome of replaying one (family, params, k, l) cell."""

    __slots__ = ("family_id", "params", "k", "l", "matched_rows", "ok",
                 "diffs", "notes")

    def __init__(self, family_id, params, k, l):
        self.family_id = family_id
        self.params = params
        self.k = k
        self.l = l
        self.matched_rows = []
        self.ok = True
        self.diffs = []
        self.notes = []

    def _fail(self, aspect, expected, computed):
        self.ok = False
        self.diffs.append((aspect, expected, computed))

    def __repr__(self):
        state = "match" if self.ok else "mismatch %r" % (self.diffs,)
        return ("RowVerdict(%s, %r, k=%d, l=%d, rows=%r, %s)"
                % (self.family_id, self.params, self.k, self.l,
                   self.matched_rows, state))


def _space_repr(space):
    return [m.entries for m in space.basis]


def verify_entry(family_id, params, k, l, algebra=None):
    """Replay one expected-table cell against freshly solved spaces; the
    structure flags of the matched rows are checked in cell (0,0) only."""
    fam = get_family(family_id)
    env = coerce_params(family_id, params)
    L = algebra if algebra is not None else build(family_id, params)
    verdict = RowVerdict(family_id, dict(env), k, l)
    guard_env = dict(env)
    guard_env["k"] = Fraction(k)
    guard_env["l"] = Fraction(l)
    matched = [idx for idx, row in enumerate(fam.rows)
               if guard_matches(row.guard, guard_env)]
    verdict.matched_rows = matched
    if not matched:
        verdict.ok = False
        verdict.notes.append("no expected row covers this cell")
        return verdict
    if len(matched) > 1:
        verdict.notes.append(
            "guards overlap: rows %s all match" % (matched,))
    cen = centroid(L, k, l)
    der = derivation_space(L, 1, 1, 1, k, l)
    cn_value = None
    small_value = None
    for idx in matched:
        row = fam.rows[idx]
        cen_expected = pattern_space(row.centroid, guard_env)
        if cen_expected != cen:
            verdict._fail("centroid row %d" % idx,
                          _space_repr(cen_expected), _space_repr(cen))
        der_expected = pattern_space(row.der, guard_env)
        if der_expected != der:
            verdict._fail("der row %d" % idx,
                          _space_repr(der_expected), _space_repr(der))
        if k or l:
            continue  # both flags are properties of L, checked at (0,0)
        if row.cn is not None:
            if cn_value is None:
                cn_value = is_characteristically_nilpotent(L)
            expected = row.cn == "yes"
            if cn_value != expected:
                verdict._fail("cn row %d" % idx, expected, cn_value)
        if row.small is not None:
            if small_value is None:
                small_value = is_small_centroid(L)
            expected = row.small == "small"
            if small_value != expected:
                verdict._fail("small row %d" % idx, expected, small_value)
    return verdict


def verify_family(family_id, params, kmax=2, lmax=2):
    """Yield the verify_entry verdicts of one instance at every k <= kmax
    and l <= lmax, in (k, l) order; the instance is built once."""
    L = build(family_id, params)
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            yield verify_entry(family_id, params, k, l, algebra=L)


def iter_default_verifications(grid=3):
    """Replay every family at its pinned samples; yields RowVerdicts.

    Ordered by (family, sample index, k, l) independent of any scheduling.
    """
    for family_id in family_ids():
        for params in pinned_samples(family_id):
            yield from verify_family(family_id, params, grid - 1, grid - 1)
