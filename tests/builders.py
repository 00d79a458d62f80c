"""Hand-built 2-dim algebras from the catalog, shared by the test modules."""

from fractions import Fraction

from bihomlie import BiHomLieAlgebra

IDENT = [[1, 0], [0, 1]]


def l_1_10():
    # brackets [e1,e2] = e1+e2, [e2,e1] = -(e1+e2), identity twists
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 2, 1): 1, (1, 2, 2): 1, (2, 1, 1): -1, (2, 1, 2): -1,
    }, IDENT, IDENT)


def l_1_1(b=2, y=3, z1=0):
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 1, 1): 1, (1, 2, 1): 1, (2, 1, 1): z1,
    }, [[0, 0], [0, b]], [[0, 0], [0, y]])


def l_1_8(a=2, x=3):
    return BiHomLieAlgebra.from_brackets(2, {
        (1, 2, 1): 1, (2, 1, 1): Fraction(-x, a),
    }, [[a, 0], [0, 1]], [[x, 0], [0, 1]])
