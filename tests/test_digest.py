"""One digest of every result: a SHA-256 over a canonical text of the axiom
reports, derivation spaces and structure invariants of a fixed corpus.

A change that alters any result, down to the order of a canonical basis or
one violation total, changes the digest. On a mismatch the test writes the
text to a file and names it. `python tests/test_digest.py > seed.txt` prints
the same text from any checkout, and `python tests/test_digest.py seed.txt`
prints the first line at which this checkout's text differs from it.
A change that alters a result on purpose updates DIGEST and says why.
"""

import hashlib
import random
import sys
from itertools import zip_longest

from bihomlie.algebra import BiHomLieAlgebra, heisenberg
from bihomlie.catalog import build, family_ids, pinned_samples
from bihomlie.derivations import derivation_space
from bihomlie.fields import format_scalar
from bihomlie.isomorphism import (CANONICAL_TRIPLES, fingerprint,
                                  reduce_mod_p, transport)
from bihomlie.linalg import Matrix
from bihomlie.structure import (center, decompose, derived_subalgebra,
                                lower_central_series)

DIGEST = "b8fa9d4fc09c862d29215af06429b3af8a9c12ba729053b472f434c1ad9d9b31"

TRIPLES = CANONICAL_TRIPLES + ((2, 1, 0), (2, 1, 1))


def corpus():
    """(label, algebra): the pinned catalog samples, twisted Heisenberg at
    m = 1..4 and their mod-101 reductions, and a dense n = 5 algebra, a
    seeded transport of the m = 2 one."""
    out = [("%s %r" % (fid, sorted(params.items())), build(fid, params))
           for fid in family_ids() for params in pinned_samples(fid)]
    heis = [heisenberg(m, 6, 10, [2, 3, 5, 7][:m], [13, 11, 7, 5][:m])
            for m in range(1, 5)]
    out += [("heisenberg m=%d" % (H.n // 2), H) for H in heis]
    out += [("heisenberg m=%d mod 101" % (H.n // 2), reduce_mod_p(H, 101))
            for H in heis]
    # a seeded unit upper triangular map, whose inverse has integer entries
    rng = random.Random(23)
    f = Matrix([[int(i == j) or rng.randint(-1, 1) * (i < j) for j in range(5)]
                for i in range(5)])
    out.append(("dense transport of heisenberg m=2", transport(heis[1], f)))
    return out


def broken(L):
    """Three non-algebras next to L: one more structure constant, an alpha
    that no longer commutes with beta, and alpha doubled, which is no
    bracket morphism unless the bracket vanishes."""
    n, field = L.n, L.field
    unit = Matrix([[field.one() if (i, j) == (0, n - 1) else field.zero()
                    for j in range(n)] for i in range(n)], field)
    table = [[list(row) for row in plane] for plane in L.structure]
    table[0][n - 1][0] += field.one()
    return [BiHomLieAlgebra(table, L.alpha, L.beta, field),
            BiHomLieAlgebra(L.structure, L.alpha + unit, L.beta, field),
            BiHomLieAlgebra(L.structure, L.alpha * 2, L.beta, field)]


def _violation(first):
    if first is None:
        return "None"
    kind, indices, total = first
    return "%s %r %s" % (kind, indices,
                         total if total is None else format_scalar(total))


def report_lines(L):
    """check_all's report, then each check's own first violation."""
    report = L.check_all()
    yield "check %s %s %s %s first=%s" % (
        report.commuting, report.skew_symmetric, report.bihom_jacobi,
        report.multiplicative, _violation(report.first_violation))
    for check in (L.check_skew_symmetry, L.check_bihom_jacobi,
                  L.check_multiplicative):
        ok, first = check()
        yield "  %s %s %s" % (check.__name__, ok, _violation(first))


def _vectors(vectors):
    return " ".join("(%s)" % ",".join(map(format_scalar, v)) for v in vectors)


def _matrices(matrices):
    return " ".join("[%s]" % _vectors(m.entries) for m in matrices)


def canonical_lines(label, L):
    yield "algebra %s n=%d %r" % (label, L.n, L.field)
    yield next(report_lines(L))
    for triple in TRIPLES:
        for k in range(2):
            for l in range(2):
                space = derivation_space(L, *triple, k, l)
                yield "der %r k=%d l=%d: %s" % (triple, k, l,
                                                _matrices(space.basis))
    yield "center %s" % _vectors(center(L).basis)
    yield "derived %s" % _vectors(derived_subalgebra(L).basis)
    yield "lower central %r" % (lower_central_series(L).dims,)
    if L.n <= 5:
        fp = fingerprint(L).as_tuple()
        yield "fingerprint %r" % (fp[:-2] + tuple(
            tuple(map(format_scalar, poly)) for poly in fp[-2:]),)
        summands, complete = decompose(L)
        yield "decompose %s %s" % (complete, " | ".join(
            _vectors(S.basis) for S in summands))


def canonical_text():
    lines = []
    for label, L in corpus():
        lines += canonical_lines(label, L)
        if label.startswith(("heisenberg", "dense")):
            for B in broken(L):
                lines += report_lines(B)
    return "".join("%s\n" % line for line in lines)


def test_digest_of_every_result_is_pinned(tmp_path):
    text = canonical_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != DIGEST:
        path = tmp_path / "digest.txt"
        path.write_text(text)
        raise AssertionError("result digest %s differs from the pinned %s; "
                             "the canonical text is in %s"
                             % (digest, DIGEST, path))


def first_difference(saved, text):
    """The first line at which two canonical texts differ, as
    (1-based line number, saved line, new line), or None."""
    pairs = zip_longest(saved.splitlines(), text.splitlines(), fillvalue="")
    return next(((number, old, new) for number, (old, new)
                 in enumerate(pairs, 1) if old != new), None)


if __name__ == "__main__":
    # no argument: print the canonical text; a saved text's path: print the
    # first line at which this checkout's text differs from it
    if len(sys.argv) < 2:
        sys.stdout.write(canonical_text())
    else:
        with open(sys.argv[1], encoding="utf-8") as fh:
            diff = first_difference(fh.read(), canonical_text())
        print("no difference" if diff is None
              else "line %d\n- %s\n+ %s" % diff)
