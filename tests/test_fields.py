import math
import time
from fractions import Fraction

import pytest

from bihomlie.fields import (GF, QQ, FieldMismatchError, FpElement,
                             ReductionError, _is_prime, format_scalar,
                             parse_scalar, reduce_fraction_mod)


def test_rational_coerce():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("2/5") == Fraction(2, 5)
    assert QQ.coerce(Fraction(-1, 2)) == Fraction(-1, 2)
    assert QQ.characteristic == 0


def test_fp_arithmetic():
    F5 = GF(5)
    a = F5(3)
    b = F5(4)
    assert a + b == F5(2)
    assert a * b == F5(2)
    assert a - b == F5(4)
    assert (a / b).value == (3 * pow(4, 3, 5)) % 5
    assert a ** -1 == F5(2)   # 3*2 = 6 = 1 mod 5
    assert -a == F5(2)


def test_fp_int_operands_reduce_without_a_wrapper(monkeypatch):
    F3 = GF(3)
    x = F3(2)
    built = []
    init = FpElement.__init__

    def counting(self, value, p):
        built.append(value)
        init(self, value, p)

    monkeypatch.setattr(FpElement, "__init__", counting)
    y = x * 5
    assert len(built) == 1
    assert y == F3(1)
    assert (x + 2, x - 4, 7 - x, 5 * x) == (F3(1), F3(1), F3(2), F3(1))
    assert (x / 2, 1 / x) == (F3(1), F3(2))
    assert x.__mul__(1.5) is NotImplemented
    with pytest.raises(ZeroDivisionError):
        x / 3
    with pytest.raises(FieldMismatchError):
        x * GF(5)(1)


def test_fp_pow_and_bool():
    F3 = GF(3)
    assert F3(2) ** 4 == F3(1)
    assert bool(F3(0)) is False
    assert bool(F3(1)) is True


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def test_primality_matches_trial_division_below_10_5():
    assert [p for p in range(10 ** 5) if _is_prime(p)] == [
        p for p in range(2, 10 ** 5)
        if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    for n, factors in ((3215031751, (151, 751, 28351)),
                       (3825123056546413051, (149491, 747451, 34233211))):
        assert math.prod(factors) == n
        assert not _is_prime(n)


def test_primality_of_large_moduli_is_bounded():
    start = time.perf_counter()
    assert _is_prime(2 ** 61 - 1) and GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.1
    # moduli past 2^64 are refused before any test runs
    for p in (2 ** 64, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="2\\^64"):
            GF(p)


def test_gf_cached():
    assert GF(7) is GF(7)


def test_reduce_fraction_mod():
    assert reduce_fraction_mod(Fraction(1, 2), 3) == 2   # 2^-1 = 2 mod 3
    with pytest.raises(ReductionError):
        reduce_fraction_mod(Fraction(1, 3), 3)


def test_fp_coerce_fraction():
    F3 = GF(3)
    assert F3.coerce(Fraction(1, 2)) == F3(2)
    assert F3.coerce("4/5") == F3(4) / F3(5)


def test_parse_and_format_round_trip():
    for text in ["0", "7", "-3", "2/5", "-9/4"]:
        v = parse_scalar(text, QQ)
        assert format_scalar(v) == str(Fraction(text))
    F7 = GF(7)
    assert parse_scalar("10", F7) == F7(3)
    assert format_scalar(F7(3)) == "3"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("1/0", QQ)
    with pytest.raises(ValueError):
        parse_scalar("x", QQ)


def test_fp_mixed_int_ops():
    F3 = GF(3)
    assert F3(2) + 2 == F3(1)
    assert 2 * F3(2) == F3(1)
    assert F3(1) - 2 == F3(2)
    assert F3(2) == 2
    assert hash(F3(2)) == hash(FpElement(2, 3))
