"""Two-dimensional family catalog and golden-table replay harness.

The shipped data file carries, per family: the bracket and twist templates,
the expected centroid/derivation shapes per guarded case, pinned parameter
samples, and errata records where a shipped cell deviates from the original
tabulation (each deviation is re-derived in the test suite).
"""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from operator import add, eq, ge, le, mul, ne, sub, truediv

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
# Exponents must evaluate to non-negative integers. Each string is parsed
# once, to postfix code in the order of a one-pass evaluating parser; a
# syntax error ends it with a "fail" step, raised where that parser would.

def _tokenize(src):
    toks = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(("num", Fraction(int(src[i:j]))))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(src) and src[j].isalnum():
                j += 1
            toks.append(("name", src[i:j]))
            i = j
        elif ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
        else:
            raise CatalogError("bad character %r in expression %r" % (ch, src))
    toks.append(("end", None))
    return toks


class _Parser:

    __slots__ = ("src", "toks", "pos", "code")

    def __init__(self, src, toks):
        self.src, self.toks, self.pos, self.code = src, toks, 0, []

    def _peek(self):
        return self.toks[self.pos][0]

    def _take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _then(self, op, operand):
        """Take an operator token, parse its right operand, emit op."""
        self._take()
        operand()
        self.code.append((op, None))

    def _chain(self, ops, operand):
        operand()
        while self._peek() in ops:
            self._then(self._peek(), operand)

    def _expr(self):
        self._chain(("+", "-"), self._term)

    def _term(self):
        self._chain(("*", "/"), self._factor)

    def _factor(self):
        if self._peek() == "-":
            return self._then("neg", self._factor)
        self._atom()
        if self._peek() == "^":
            self._then("^", self._factor)

    def _atom(self):
        kind, val = self._take()
        if kind in ("num", "name"):
            self.code.append((kind, val))
        elif kind == "(":
            self._expr()
            if self._take()[0] != ")":
                raise CatalogError("unbalanced parentheses in %r" % self.src)
        else:
            raise CatalogError("unexpected token in expression %r" % self.src)


@lru_cache(maxsize=1024)
def _parse(src):
    """The postfix code of an expression string; a bad character raises
    here, before anything is evaluated."""
    parser = _Parser(src, _tokenize(src))
    try:
        parser._expr()
        if parser._peek() != "end":
            raise CatalogError("trailing input in expression %r" % src)
    except CatalogError as err:
        parser.code.append(("fail", str(err)))
    return tuple(parser.code)


_BINARY = {"+": add, "-": sub, "*": mul, "/": truediv,
           "^": lambda base, exp: base ** int(exp)}


def eval_expr(src, env):
    """Evaluate an expression string to a Fraction over the given symbols."""
    stack = []
    for op, arg in _parse(src):
        if op == "num":
            stack.append(arg)
        elif op == "name":
            if arg not in env:
                raise CatalogError(
                    "unknown symbol %r in expression %r" % (arg, src))
            stack.append(env[arg])
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "fail":
            raise CatalogError(arg)
        else:
            rhs = stack.pop()
            if op == "/" and rhs == 0:
                raise CatalogError("division by zero in %r" % src)
            if op == "^" and (rhs.denominator != 1 or rhs < 0):
                raise CatalogError("exponent %s in %r is not a non-negative "
                                   "integer" % (rhs, src))
            stack[-1] = _BINARY[op](stack[-1], rhs)
    return stack[0]


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
    slots = sorted({name
                    for row in pattern for cell in row
                    for op, name in _parse(cell)
                    if op == "name" and name in _SLOT_NAMES})
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


_catalog_cache = None


def _samples_digest(families):
    blob = json.dumps({f["id"]: f["samples"] for f in families},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def load_catalog():
    """Parsed catalog data, cached; fails if the pinned samples changed."""
    global _catalog_cache
    if _catalog_cache is None:
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
        _catalog_cache = families
    return _catalog_cache


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


def verify_family(family_id, params, grid=3):
    """Verdicts for one instance over the (k,l) grid, building once."""
    L = build(family_id, params)
    return [verify_entry(family_id, params, k, l, algebra=L)
            for k in range(grid) for l in range(grid)]


def iter_default_verifications(grid=3):
    """Replay every family at its pinned samples; yields RowVerdicts.

    Ordered by (family, sample index, k, l) independent of any scheduling.
    """
    for family_id in family_ids():
        for params in pinned_samples(family_id):
            for verdict in verify_family(family_id, params, grid=grid):
                yield verdict
