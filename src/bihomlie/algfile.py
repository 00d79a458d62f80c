"""Reading and writing single-algebra files.

The format is versioned JSON: exact value strings ("3/2", never floats),
sparse 1-indexed bracket records, dense row-major twist matrices, and an
optional name/source metadata block. Serialization is canonical (sorted
bracket records, fixed key order), so parse followed by serialize is
byte-identical on canonically formatted files.
"""

import json

from .algebra import BiHomLieAlgebra
from .fields import GF, QQ, ReductionError, format_scalar, parse_scalar
from .linalg import Matrix

FORMAT_VERSION = 1

_META_KEYS = ("name", "source")
_TOP_KEYS = ("format_version", "field", "dim", "brackets", "alpha", "beta",
             "metadata")


class AlgebraFileError(Exception):
    """The text does not describe an algebra in this format."""


class AlgebraDocument:
    """An algebra together with its optional file metadata."""

    __slots__ = ("algebra", "metadata")

    def __init__(self, algebra, metadata=None):
        self.algebra = algebra
        self.metadata = dict(metadata) if metadata else None

    def __eq__(self, other):
        if not isinstance(other, AlgebraDocument):
            return NotImplemented
        return (self.algebra == other.algebra
                and self.metadata == other.metadata)

    def __repr__(self):
        return "AlgebraDocument(%r, metadata=%r)" % (self.algebra,
                                                     self.metadata)


def _parse_value(raw, field, where):
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise AlgebraFileError(
            "%s: values must be integers or exact strings, got %r"
            % (where, raw))
    try:
        return parse_scalar(raw, field)
    except ReductionError as exc:
        raise AlgebraFileError("%s: %s" % (where, exc)) from None
    except ValueError:
        raise AlgebraFileError("%s: cannot parse value %r"
                               % (where, raw)) from None


def _parse_field(raw):
    if raw == "rational":
        return QQ
    if isinstance(raw, dict) and set(raw) == {"fp"}:
        p = raw["fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise AlgebraFileError("field: fp must be a prime integer")
        try:
            return GF(p)
        except ValueError as exc:
            raise AlgebraFileError("field: %s" % exc) from None
    raise AlgebraFileError(
        "field must be \"rational\" or {\"fp\": p}, got %r" % (raw,))


def _parse_matrix(raw, dim, field, label):
    if (not isinstance(raw, list) or len(raw) != dim
            or any(not isinstance(row, list) or len(row) != dim
                   for row in raw)):
        raise AlgebraFileError("%s must be a dense %dx%d array"
                               % (label, dim, dim))
    return Matrix([[_parse_value(cell, field, "%s[%d][%d]" % (label, r, c))
                    for c, cell in enumerate(row)]
                   for r, row in enumerate(raw)], field)


def _json(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise AlgebraFileError("not valid JSON: %s" % exc) from None


def read_json(path):
    """The parsed JSON content of one file; any failure is AlgebraFileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlgebraFileError("%s: %s" % (path, exc.strerror)) from None
    except UnicodeDecodeError:
        raise AlgebraFileError("%s: not UTF-8 text" % path) from None
    return _json(text)


def _document(doc):
    if not isinstance(doc, dict):
        raise AlgebraFileError("top level must be an object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise AlgebraFileError("unknown keys: %s" % sorted(unknown))
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise AlgebraFileError("unsupported format_version %r" % (version,))
    field = _parse_field(doc.get("field"))
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise AlgebraFileError("dim must be a positive integer")

    brackets = doc.get("brackets")
    if not isinstance(brackets, list):
        raise AlgebraFileError("brackets must be a list of records")
    entries = {}
    for pos, rec in enumerate(brackets):
        where = "brackets[%d]" % pos
        if not isinstance(rec, dict) or set(rec) != {"i", "j", "k", "value"}:
            raise AlgebraFileError(
                "%s: expected keys i, j, k, value" % where)
        idx = []
        for key in ("i", "j", "k"):
            v = rec[key]
            if not isinstance(v, int) or isinstance(v, bool) \
                    or not 1 <= v <= dim:
                raise AlgebraFileError(
                    "%s: index %s=%r out of range 1..%d"
                    % (where, key, v, dim))
            idx.append(v)
        if tuple(idx) in entries:
            raise AlgebraFileError("%s: duplicate record for (%d,%d,%d)"
                                   % (where, idx[0], idx[1], idx[2]))
        entries[tuple(idx)] = _parse_value(rec["value"], field, where)

    alpha = _parse_matrix(doc.get("alpha"), dim, field, "alpha")
    beta = _parse_matrix(doc.get("beta"), dim, field, "beta")

    metadata = doc.get("metadata")
    if metadata is not None:
        if (not isinstance(metadata, dict)
                or set(metadata) - set(_META_KEYS)
                or any(not isinstance(v, str) for v in metadata.values())):
            raise AlgebraFileError(
                "metadata allows string values for name and source only")

    algebra = BiHomLieAlgebra.from_brackets(dim, entries, alpha, beta, field)
    return AlgebraDocument(algebra, metadata)


def loads(text):
    """Parse one algebra document from text."""
    return _document(_json(text))


def load(path):
    """Read one algebra document from a file."""
    return _document(read_json(path))


def _field_spec(field):
    if field.characteristic:
        return {"fp": field.characteristic}
    return "rational"


def dumps(doc):
    """Canonical text for an algebra or document."""
    if isinstance(doc, AlgebraDocument):
        L, metadata = doc.algebra, doc.metadata
    else:
        L, metadata = doc, None
    records = [{"i": i + 1, "j": j + 1, "k": s + 1, "value": format_scalar(v)}
               for (i, j, s), v in sorted(L._constants.items())]
    out = {
        "format_version": FORMAT_VERSION,
        "field": _field_spec(L.field),
        "dim": L.n,
        "brackets": records,
        "alpha": [[format_scalar(v) for v in row] for row in L.alpha.entries],
        "beta": [[format_scalar(v) for v in row] for row in L.beta.entries],
    }
    if metadata:
        out["metadata"] = {k: metadata[k] for k in _META_KEYS
                           if k in metadata}
    return json.dumps(out, indent=2) + "\n"


def dump(doc, path):
    """Write one algebra document to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
