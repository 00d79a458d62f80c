"""Command-line interface.

Subcommands load one algebra per file, run the solvers, and print either
human-readable reports or machine-readable line records (--output
records, one fact per line). Exit codes: 0 success or match, 1 a
mathematical negative (axiom violation, mismatch, no witness), 2 usage
or parse errors, 3 an internal error (an independent cross-check of the
library's own result failed; a bug, never the input's fault). Scalars are
read as an integer or "num/den" and print exactly, never as floats.

Bounds: check, structure, fingerprint and iso --witness are polynomial in
the file's dimension n, which has no bound yet, and so is der; over Q it
refuses (exit 2, before any product or output) exponents whose power
alpha^k beta^l could have an entry with a numerator or denominator past
14000 bits, a bound read from the twists' int entries, scales and n, so
every accepted power prints within Python's 4300-digit limit. catalog is
linear in its output, which --kmax and --lmax set; iso --brute P refuses
more than MAX_SEARCH_CANDIDATES (10^5) candidates.
"""

import argparse
import os
import random
import sys
from fractions import Fraction

from . import algfile, catalog
from .algebra import CrossCheckError
from .algfile import AlgebraFileError
from .catalog import CatalogError
from .derivations import MembershipError, derivation_space, normalize_params
from .fields import (QQ, FieldMismatchError, ReductionError, format_scalar,
                     parse_scalar)
from .isomorphism import (brute_force_iso, compare_fingerprints, fingerprint,
                          verify_isomorphism)
from .structure import (ClosureError, center, derived_series,
                        is_characteristically_nilpotent, is_small_centroid,
                        lower_central_series)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SEED_ENV = "BIHOM_SAMPLE_SEED"

# the largest bit size der prints over Q for the numerator or denominator
# of an entry of a twist power: 2^14000 < 10^4300, so every accepted power
# prints within Python's default int-to-string limit of 4300 digits
_MAX_POWER_BITS = 14000

# extra-sample pool: nonzero, and away from the roots of unity that put
# instances on special table rows
_SAMPLE_POOL = (Fraction(2), Fraction(3), Fraction(5), Fraction(-2),
                Fraction(1, 2), Fraction(1, 3))


class CliError(Exception):
    """Bad invocation discovered after argument parsing."""


def _fraction(text):
    try:
        return parse_scalar(text, QQ)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not an exact value: %r" % text) from None


def _fmt_matrix(m):
    return "[%s]" % ",".join(
        "[%s]" % ",".join(format_scalar(v) for v in row) for row in m.entries)


def _emit(args, kind, human, **fields):
    if args.output == "records":
        parts = [kind]
        parts.extend("%s=%s" % (key, value) for key, value in fields.items())
        print(" ".join(parts))
    else:
        print(human)


def _emit_facts(args, facts):
    """One line per (key, value): labelled by the key with spaces, a flag
    as yes/no, a sequence joined by commas."""
    for key, value in facts:
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, tuple):
            value = ",".join(map(format_scalar, value))
        _emit(args, key, "%s: %s" % (key.replace("_", " "), value),
              value=value)


_VIOLATION_INDEX_NAMES = {3: ("i", "j", "s"), 4: ("i", "j", "k", "r")}


def cmd_check(args):
    L = algfile.load(args.path).algebra
    report = L.check_all()
    for name, ok in (("commuting", report.commuting),
                     ("skew", report.skew_symmetric),
                     ("jacobi", report.bihom_jacobi),
                     ("multiplicative", report.multiplicative)):
        _emit(args, "axiom", "%s: %s" % (name, "ok" if ok else "FAILED"),
              name=name, ok=str(ok).lower())
    if report.passed:
        _emit(args, "verdict", "all axioms hold", value="pass")
        return EXIT_OK
    kind, indices, _ = report.first_violation
    named = dict(zip(_VIOLATION_INDEX_NAMES.get(len(indices), ()), indices))
    inner = ",".join("%s=%d" % item for item in named.items())
    _emit(args, "violation",
          "violation: %s" % ("%s (%s)" % (kind, inner) if inner else kind),
          type=kind, **named)
    return EXIT_NEGATIVE


def _refuse_unprintable_power(L, k, l):
    """ValueError, before any product, when alpha^k beta^l over Q could have
    an entry whose numerator or denominator passes _MAX_POWER_BITS. With
    each twist A/s for its scaled int entries A and scale s, and a, b the
    largest |A|, a numerator is at most n^(k+l-1) a^k b^l and a denominator
    divides s_alpha^k s_beta^l. Over F_p every power prints."""
    if L.field.characteristic:
        return
    (s_a, a_rows), (s_b, b_rows) = (L.field.plain_rows(t.entries)
                                    for t in (L.alpha, L.beta))
    a, b = (max((abs(x) for row in rows for x in row), default=0)
            for rows in (a_rows, b_rows))
    bits = max(k * a.bit_length() + l * b.bit_length()
               + max(k + l - 1, 0) * L.n.bit_length(),
               k * s_a.bit_length() + l * s_b.bit_length())
    if bits > _MAX_POWER_BITS:
        raise ValueError("twist power alpha^%d beta^%d: entries of up to %d "
                         "bits, past the limit of %d"
                         % (k, l, bits, _MAX_POWER_BITS))


def cmd_der(args):
    L = algfile.load(args.path).algebra
    triple = args.lam, args.mu, args.gamma
    if args.normalize:
        triple, tag = normalize_params(*triple, L.field)
    # refused or solved before any output, so that a refusal prints nothing
    _refuse_unprintable_power(L, args.k, args.l)
    space = derivation_space(L, *triple, args.k, args.l)
    _emit(args, "params",
          "params: lambda=%s mu=%s gamma=%s k=%d l=%d"
          % (args.lam, args.mu, args.gamma, args.k, args.l),
          **{"lambda": args.lam, "mu": args.mu, "gamma": args.gamma,
             "k": args.k, "l": args.l})
    if args.normalize:
        texts = [format_scalar(v) for v in triple]
        _emit(args, "normalized",
              "normalized: (%s, %s, %s) case %d" % (*texts, tag),
              **dict(zip(("lambda", "mu", "gamma"), texts), case=tag))
    _emit(args, "dimension", "dimension: %d" % space.dim, value=space.dim)
    if args.output == "human" and space.dim:
        print("basis:")
    for idx, m in enumerate(space.basis):
        _emit(args, "basis", _fmt_matrix(m), index=idx,
              matrix=_fmt_matrix(m))
    return EXIT_OK


def cmd_structure(args):
    L = algfile.load(args.path).algebra
    lower, derived = lower_central_series(L), derived_series(L)
    _emit_facts(args, (
        ("center_dim", center(L).dim),
        ("lower_central_dims", lower.dims),
        ("derived_dims", derived.dims),
        ("nilpotent", lower.terminated_at_zero),
        ("solvable", derived.terminated_at_zero),
        ("characteristically_nilpotent", is_characteristically_nilpotent(L)),
        ("small_centroid", is_small_centroid(L)),
    ))
    return EXIT_OK


def _parse_cli_params(text):
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError("--params expects name=value pairs, got %r" % part)
        name, _, raw = part.partition("=")
        out[name.strip()] = raw.strip()
    return out


def _random_samples(family, rng, count=2):
    return [{spec["name"]: rng.choice(_SAMPLE_POOL) for spec in family.params}
            for _ in range(count)]


def _catalog_jobs(args):
    if args.params is not None and args.entry is None:
        raise CliError("--params requires --entry")
    entries = [args.entry] if args.entry else catalog.family_ids()
    seed_text = os.environ.get(SEED_ENV)
    rng = None
    if seed_text is not None:
        try:
            rng = random.Random(int(seed_text))
        except ValueError:
            raise CliError("%s must be an integer, got %r"
                           % (SEED_ENV, seed_text)) from None
    for family_id in entries:
        if args.params is not None:
            sample_sets = [_parse_cli_params(args.params)]
        else:
            sample_sets = list(catalog.pinned_samples(family_id))
            if rng is not None:
                fam = catalog.get_family(family_id)
                if fam.params:
                    sample_sets.extend(_random_samples(fam, rng))
        for params in sample_sets:
            yield family_id, params


def cmd_catalog(args):
    if args.kmax < 0 or args.lmax < 0:
        raise CliError("--kmax and --lmax must be non-negative")
    failures = 0
    for family_id, params in _catalog_jobs(args):
        for v in catalog.verify_family(family_id, params, args.kmax,
                                       args.lmax):
            shown = ",".join("%s=%s" % (name, format_scalar(value))
                             for name, value in v.params.items())
            verdict = "match" if v.ok else "MISMATCH"
            _emit(args, "cell",
                  "%s [%s] k=%d l=%d: %s"
                  % (family_id, shown, v.k, v.l, verdict),
                  entry=family_id, params=shown.replace(" ", ""),
                  k=v.k, l=v.l, verdict=verdict.lower())
            if not v.ok:
                failures += 1
                for aspect, expected, computed in v.diffs:
                    _emit(args, "diff",
                          "  %s: expected %s, computed %s"
                          % (aspect, expected, computed),
                          aspect=aspect.replace(" ", "_"))
    _emit(args, "summary",
          "mismatched cells: %d" % failures, mismatches=failures)
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def cmd_fingerprint(args):
    L = algfile.load(args.path).algebra
    fp = fingerprint(L)
    _emit_facts(args, (
        ("dim", fp.dim), ("rank_alpha", fp.rank_alpha),
        ("rank_beta", fp.rank_beta),
        ("bracket_image_dim", fp.dim_bracket_image),
        ("center_dim", fp.dim_center),
        ("lower_central_dims", fp.lower_central_dims),
        ("derived_dims", fp.derived_dims),
        ("char_poly_alpha", fp.char_poly_alpha),
        ("char_poly_beta", fp.char_poly_beta),
    ))
    for (lam, mu, gamma, k, l) in sorted(fp.der_dims):
        dim = fp.der_dims[(lam, mu, gamma, k, l)]
        _emit(args, "der_dim",
              "der dim (%s,%s,%s) k=%d l=%d: %d"
              % (lam, mu, gamma, k, l, dim),
              **{"lambda": lam, "mu": mu, "gamma": gamma, "k": k, "l": l,
                 "value": dim})
    return EXIT_OK


def _load_witness(path, L):
    doc = algfile.read_json(path)
    if isinstance(doc, dict) and set(doc) == {"matrix"}:
        doc = doc["matrix"]
    return algfile._parse_matrix(doc, L.n, L.field, "witness")


def cmd_iso(args):
    La = algfile.load(args.path_a).algebra
    Lb = algfile.load(args.path_b).algebra
    if args.witness is not None:
        f = _load_witness(args.witness, La)
        if verify_isomorphism(La, Lb, f):
            _emit(args, "verdict", "isomorphic (witness verified)",
                  value="isomorphic", how="witness")
            return EXIT_OK
        _emit(args, "verdict", "witness rejected", value="rejected")
        return EXIT_NEGATIVE
    if args.brute is not None:
        found = brute_force_iso(La, Lb, args.brute)
        if found is not None:
            _emit(args, "verdict",
                  "isomorphic over F_%d (witness found): %s"
                  % (args.brute, _fmt_matrix(found)),
                  value="isomorphic", witness=_fmt_matrix(found))
            return EXIT_OK
        _emit(args, "verdict", "no witness over F_%d" % args.brute,
              value="no_witness")
        return EXIT_NEGATIVE
    verdict = compare_fingerprints(fingerprint(La), fingerprint(Lb))
    if verdict == "distinct":
        _emit(args, "verdict", "fingerprints distinct (not isomorphic)",
              value="distinct")
        return EXIT_NEGATIVE
    _emit(args, "verdict",
          "inconclusive (fingerprints equal; no witness attempted)",
          value="inconclusive")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bihomlie",
        description="exact solvers for twisted bracket algebras "
                    "given by structure constants")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("human", "records"),
                        default="human",
                        help="report style: prose or one fact per line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run the axiom checks on one algebra file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("der", parents=[common],
                       help="solve one generalized derivation space")
    p.add_argument("path")
    p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1))
    p.add_argument("--mu", type=_fraction, default=Fraction(1))
    p.add_argument("--gamma", type=_fraction, default=Fraction(1))
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--normalize", action="store_true",
                   help="print and solve the canonical coefficient triple")
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("structure", parents=[common],
                       help="center, series, and nilpotency report")
    p.add_argument("path")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("catalog", parents=[common],
                       help="replay expected-table rows for the built-in "
                            "two-dimensional families")
    p.add_argument("--entry", help="one family id (default: all)")
    p.add_argument("--params",
                   help="comma-separated name=value list; needs --entry")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--lmax", type=int, default=2)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("fingerprint", parents=[common],
                       help="print basis-independent invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("iso", parents=[common],
                       help="compare two algebra files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--witness",
                      help="JSON matrix file to verify as an isomorphism")
    mode.add_argument("--brute", type=int, metavar="P",
                      help="exhaustive search over F_P")
    p.set_defaults(func=cmd_iso)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MembershipError, CrossCheckError, ClosureError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (AlgebraFileError, CatalogError, CliError, FieldMismatchError,
            ReductionError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
