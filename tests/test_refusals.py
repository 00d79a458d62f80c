"""Every documented refusal of the library: its exception type and its
whole message."""

import re

import pytest

from bihomlie import (BiHomLieAlgebra, TwistError, direct_sum, heisenberg,
                      twist_power, yau_twist)
from bihomlie.catalog import CatalogError, guard_matches
from bihomlie.fields import GF, QQ, FieldMismatchError, FpElement
from bihomlie.linalg import (Matrix, MatrixSubspace, SingularMatrixError,
                             VectorSubspace, char_poly, invert)


def _point():
    return BiHomLieAlgebra([[[0]]], [[1]], [[1]])


REFUSALS = {
    "algebra-non-cubic-table": (
        lambda: BiHomLieAlgebra([[[0, 0]]], [[1]], [[1]]),
        ValueError, "structure table is not n x n x n"),
    "algebra-twist-size": (
        lambda: BiHomLieAlgebra([[[0]]], [[1, 0], [0, 1]], [[1]]),
        ValueError, "alpha is not 1 x 1"),
    "algebra-twist-field": (
        lambda: BiHomLieAlgebra([[[0]]], Matrix([[1]], GF(3)), [[1]], QQ),
        FieldMismatchError, "alpha field mismatch"),
    "bracket-short-vector": (
        lambda: heisenberg(1, 1, 1, [1], [1]).bracket((1, 0), (0, 1, 0)),
        ValueError, "vector length mismatch"),
    "yau-twist-non-commuting": (
        lambda: yau_twist([[[0, 0], [0, 0]]] * 2, [[1, 1], [0, 1]],
                          [[1, 0], [0, 2]]),
        TwistError, "twist maps do not commute"),
    "heisenberg-list-length": (
        lambda: heisenberg(2, 1, 1, [1], [1, 1]),
        ValueError, "need m values for b and for y"),
    "direct-sum-across-fields": (
        lambda: direct_sum(_point(), BiHomLieAlgebra([[[0]]], [[1]], [[1]],
                                                     GF(3))),
        FieldMismatchError, "direct sum needs a common field"),
    "twist-power-negative": (
        lambda: twist_power(_point(), -1, 0),
        ValueError, "twist exponents must be non-negative"),
    "matrix-ragged": (
        lambda: Matrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "matrix-add-shapes": (
        lambda: Matrix([[1]]) + Matrix([[1, 2]]),
        ValueError, "shape mismatch in addition"),
    "matrix-apply-short": (
        lambda: Matrix([[1, 2]]).apply((1,)),
        ValueError, "vector length mismatch"),
    "invert-non-square": (
        lambda: invert(Matrix([[1, 2]])),
        SingularMatrixError, "only square matrices invert"),
    "char-poly-non-square": (
        lambda: char_poly(Matrix([[1, 2]])),
        ValueError, "characteristic polynomial needs a square matrix"),
    "matrix-float": (
        lambda: Matrix([[1.5]]), FieldMismatchError, "not a field scalar: 1.5"),
    "vector-subspace-length": (
        lambda: VectorSubspace(2, [(1,)], QQ),
        ValueError, "vector length mismatch"),
    "vector-subspace-sum-ambient": (
        lambda: VectorSubspace(2, [], QQ).sum(VectorSubspace(3, [], QQ)),
        ValueError, "subspaces live in different ambient spaces"),
    "matrix-subspace-size": (
        lambda: MatrixSubspace(2, [Matrix([[1]])], QQ),
        ValueError, "matrix shape mismatch"),
    "matrix-subspace-field": (
        lambda: MatrixSubspace(1, [Matrix([[1]], GF(3))], QQ),
        FieldMismatchError, "matrix field mismatch"),
    "matrix-subspace-contains-field": (
        lambda: MatrixSubspace(2, [Matrix.identity(2, GF(5))], GF(5)).contains(
            Matrix([[6, 0], [0, 6]], QQ)),
        FieldMismatchError, "matrix field mismatch"),
    "fp-zero-inverse": (
        lambda: FpElement(0, 5).inverse(),
        ZeroDivisionError, "0 has no inverse in F_5"),
    "qq-coerce-float": (
        lambda: QQ.coerce(1.5),
        FieldMismatchError, "not a rational scalar: 1.5"),
    "gf-coerce-foreign": (
        lambda: GF(3).coerce(FpElement(1, 5)),
        FieldMismatchError, "element of F_5 used in F_3"),
    "gf-coerce-float": (
        lambda: GF(3).coerce(1.5),
        FieldMismatchError, "not an F_3 scalar: 1.5"),
    "guard-unknown-operator": (
        lambda: guard_matches([{"op": "gt", "lhs": "a", "rhs": "0"}],
                              {"a": 1}),
        CatalogError, "unknown guard operator 'gt'"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_library_refuses_as_documented(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()
