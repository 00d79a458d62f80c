"""Differential tests for the field-valued bracket kernel: L.bracket,
product_subspace and verify_isomorphism against references that read the
dense structure table straight from the definition
[x, y]_s = sum_{i,j} x_i y_j c_ij^s."""

import random
from itertools import product

import pytest

from bihomlie.algebra import BiHomLieAlgebra, heisenberg
from bihomlie.catalog import build, family_ids, pinned_samples
from bihomlie.derivations import intertwiners
from bihomlie.fields import GF, QQ, ReductionError
from bihomlie.isomorphism import reduce_mod_p, transport, verify_isomorphism
from bihomlie.linalg import Matrix, VectorSubspace, is_invertible
from bihomlie.structure import product_subspace


def dense_bracket(L, x, y):
    """[x, y] summed over every (i, j) of the dense table, zeros included."""
    n = L.n
    return tuple(sum((x[i] * y[j] * L.structure[i][j][s]
                      for i in range(n) for j in range(n)), L.field.zero())
                 for s in range(n))


def reference_verify(L, L2, f):
    """verify_isomorphism as a loop over the basis pairs: f([e_i, e_j]) =
    [f e_i, f e_j] in L2, the right-hand side from dense_bracket."""
    if not is_invertible(f):
        return False
    if f * L.alpha != L2.alpha * f or f * L.beta != L2.beta * f:
        return False
    cols = f.transpose().entries
    return all(f.apply(L.structure[i][j])
               == dense_bracket(L2, cols[i], cols[j])
               for i in range(L.n) for j in range(L.n))


def rational_algebras():
    """A seeded sample of the pinned catalog instances, twisted Heisenberg
    at m = 1, 2, and a seeded transport of the m = 2 one, dense."""
    rng = random.Random(3)
    catalog = [build(fid, params) for fid in family_ids()
               for params in pinned_samples(fid)]
    H = heisenberg(2, 6, 10, [2, 3], [13, 11])
    f = Matrix([[int(i == j) or rng.randint(-2, 2) * (i < j)
                 for j in range(5)] for i in range(5)])
    return rng.sample(catalog, 12) + [heisenberg(1, 2, 3, [5], [2]), H,
                                      transport(H, f)]


def algebras():
    """rational_algebras over Q, F_3 and F_5, where they reduce."""
    out = []
    for p in (None, 3, 5):
        for L in rational_algebras():
            try:
                out.append(L if p is None else reduce_mod_p(L, p))
            except ReductionError:
                pass
    return out


def random_vector(rng, L):
    if L.field.characteristic:
        return tuple(L.field.coerce(rng.randrange(L.field.characteristic))
                     for _ in range(L.n))
    return tuple(QQ.coerce(rng.choice((0, 0, 1, -1, 2, 3))) / rng.choice(
        (1, 1, 2, 5)) for _ in range(L.n))


def random_subspace(rng, L):
    dim = rng.randrange(L.n + 1)
    return VectorSubspace(L.n, [random_vector(rng, L) for _ in range(dim)],
                          L.field)


def test_bracket_matches_dense_reference():
    rng = random.Random(11)
    for L in algebras():
        units = Matrix.identity(L.n, L.field).entries
        pairs = list(product(units, repeat=2))
        pairs += [(random_vector(rng, L), random_vector(rng, L))
                  for _ in range(20)]
        for x, y in pairs:
            assert L.bracket(x, y) == dense_bracket(L, x, y), (L, x, y)


def test_product_subspace_matches_span_of_reference_brackets():
    rng = random.Random(13)
    for L in algebras():
        for _ in range(6):
            S, T = random_subspace(rng, L), random_subspace(rng, L)
            expected = VectorSubspace(L.n, [dense_bracket(L, s, t)
                                            for s in S.basis
                                            for t in T.basis], L.field)
            assert product_subspace(L, S, T) == expected, (L, S, T)


def random_member(rng, space, field):
    """A seeded combination of the basis of an operator space."""
    total = Matrix.zero(space.dim_ambient, space.dim_ambient, field)
    for b in space.basis:
        total = total + b * field.coerce(rng.randint(-2, 2))
    return total


def scaled(L, c):
    """L with every structure constant times c, the same twists."""
    table = [[[c * v for v in row] for row in plane] for plane in L.structure]
    return BiHomLieAlgebra(table, L.alpha, L.beta, L.field)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_verify_isomorphism_matches_pairwise_reference(field):
    """Witnesses from transport, random maps (which mostly fail the twist
    check), and random intertwiners between pairs with equal twists but
    brackets scaled apart, which only the bracket check decides."""
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for L in algebras():
        if L.field != field:
            continue
        while True:
            g = Matrix([[rng.randint(-2, 2) for _ in range(L.n)]
                        for _ in range(L.n)], field)
            if is_invertible(g):
                break
        moved = transport(L, g)
        cases = [(L, moved, g), (L, moved, g * field.coerce(2))]
        cases += [(L, moved, Matrix([list(random_vector(rng, L))
                                     for _ in range(L.n)], field))
                  for _ in range(3)]
        for c in (2, -1):
            L2 = scaled(L, field.coerce(c))
            space = intertwiners(L, L2)
            cases += [(L, L2, random_member(rng, space, field))
                      for _ in range(4)]
            cases.append((L, L2, Matrix.identity(L.n, field)
                          * (field.one() / field.coerce(c))))
        for A, B, f in cases:
            expected = reference_verify(A, B, f)
            assert verify_isomorphism(A, B, f) == expected, (A, B, f)
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts
