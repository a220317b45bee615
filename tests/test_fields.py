import random
from fractions import Fraction

import pytest

from ariki_koike.fields import (
    FpElement,
    GateError,
    Params,
    PrimeField,
    Rationals,
    f_partition_value,
    f_s_value,
    parse_field,
    parse_params_file,
    poincare,
)


def qparams(n=2, r=2, s=1, q=2, Q=(1, 5)):
    return Params(field=Rationals(), q=q, Q=Q, n=n, r=r, s=s)


def test_f_s_reference_value():
    # (q^{-1}Q_1 - Q_2)(Q_1 - Q_2)(q Q_1 - Q_2) = (-9/2)(-4)(-3)
    assert f_s_value(qparams()) == Fraction(-54)


def test_f_s_single_factor():
    assert f_s_value(qparams(n=1)) == Fraction(1 - 5)


def test_f_s_vanishes_on_q_connected_parameters():
    assert f_s_value(qparams(Q=(1, 2))) == 0  # Q_2 = q Q_1
    assert f_s_value(qparams(Q=(1, Fraction(1, 2)))) == 0  # Q_2 = q^{-1} Q_1


def test_f_s_needs_proper_split():
    with pytest.raises(ValueError):
        f_s_value(Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=2))


def test_poincare_at_q_one():
    p = Params(field=Rationals(), q=1, Q=(1, 5), n=2, r=2)
    # the quantum-integer tail is prod_k k = n!, nonzero over the rationals
    assert poincare(p) == Fraction((1 - 5) ** 3 * 2)


def test_poincare_root_of_unity():
    p = Params(field=PrimeField(7), q=6, Q=(1, 5), n=2, r=2)
    assert poincare(p) == 0  # 1 + q = 0 mod 7


def test_poincare_equal_parameters():
    assert poincare(qparams(Q=(5, 5))) == 0


def test_f_partition_single_block():
    assert f_partition_value(qparams(), [[1, 2]]) == 1


def test_f_partition_two_blocks_matches_split():
    p = qparams()
    assert f_partition_value(p, [[1], [2]]) == f_s_value(p)


def test_f_partition_three_singletons():
    p = Params(field=Rationals(), q=2, Q=(1, 5, 7), n=2, r=3, s=1)
    expected = Fraction(1)
    for (i, j) in [(1, 2), (1, 3), (2, 3)]:
        for a in (-1, 0, 1):
            expected *= Fraction(2) ** a * p.Q[i - 1] - p.Q[j - 1]
    assert f_partition_value(p, [[1], [2], [3]]) == expected


def test_f_partition_rejects_bad_blocks():
    with pytest.raises(ValueError):
        f_partition_value(qparams(), [[1], []])
    with pytest.raises(ValueError):
        f_partition_value(qparams(), [[1]])
    with pytest.raises(ValueError):
        f_partition_value(qparams(), [[1, 1], [2]])


def test_field_axioms_random():
    rng = random.Random(7)
    for field in (Rationals(), PrimeField(13)):
        for _ in range(200):
            a = field(rng.randint(-20, 20))
            b = field(rng.randint(-20, 20))
            c = field(rng.randint(-20, 20))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if a:
                inv = a / a
                assert inv == field.one


def test_fp_element_basics():
    x = FpElement(3, 5)
    assert x + 4 == FpElement(2, 5)
    assert 2 - x == FpElement(4, 5)
    assert x.inverse() * x == FpElement(1, 5)
    assert x ** -1 == x.inverse()
    assert not FpElement(0, 5)
    with pytest.raises(ZeroDivisionError):
        FpElement(0, 5).inverse()


def test_parse_field():
    assert parse_field("Q").name == "Q"
    assert parse_field("GF(7)").name == "GF(7)"
    with pytest.raises(ValueError):
        parse_field("GF(8)")
    with pytest.raises(ValueError):
        parse_field("GF(101)")  # above the supported bound


def test_params_validation():
    with pytest.raises(ValueError):
        Params(field=Rationals(), q=0, Q=(1,), n=1, r=1)
    with pytest.raises(ValueError):
        Params(field=Rationals(), q=1, Q=(1, 2), n=1, r=1)
    with pytest.raises(GateError):
        Params(field=Rationals(), q=2, Q=(1, 5), n=2, r=2, s=2).require_split()


def test_params_file_roundtrip():
    text = """
    # comment
    field=GF(5)
    q=4
    Q=1,2
    n=2
    r=2
    s=1
    """
    p = parse_params_file(text)
    assert p.field.name == "GF(5)"
    assert p.q == 4 and p.n == 2 and p.r == 2 and p.s == 1
    assert p.Q == (p.field(1), p.field(2))


def test_params_file_rational_values():
    p = parse_params_file("field=Q\nq=1/2\nQ=1,5\nn=3\n")
    assert p.q == Fraction(1, 2)
    assert p.r == 2 and p.s is None


def test_field_constants_are_shared():
    # Fractions and FpElements are immutable, so each field builds its constants once
    assert Rationals().one is Rationals().one and Rationals().zero is Rationals().zero
    gf5 = PrimeField(5)
    assert gf5.one is gf5.one and gf5.zero is gf5.zero
    assert gf5.one == 1 and gf5.zero == 0 and gf5 == PrimeField(5)


def test_int_form_round_trip():
    Q = Rationals()
    terms = {"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": Fraction(3)}
    den, ints = Q.to_ints(terms)
    assert den == 6 and ints == {"a": 3, "b": -4, "c": 18}
    assert Q.from_ints(den, ints) == terms
    # back in lowest terms, zeros dropped
    out = Q.from_ints(4, {"a": 2, "b": 0, "c": -8})
    assert out == {"a": Fraction(1, 2), "c": Fraction(-2)}
    assert all(type(v) is Fraction for v in out.values())
    gf5 = PrimeField(5)
    assert gf5.to_ints({"a": gf5(3), "b": gf5(4)}) == (1, {"a": 3, "b": 4})
    # reduced once on the way out: 12 = 2, 10 = 0 (dropped), -1 = 4, 1/3 = 2
    assert gf5.from_ints(1, {"a": 12, "b": 10, "c": -1}) == {"a": gf5(2), "c": gf5(4)}
    assert gf5.from_ints(3, {"a": 1}) == {"a": gf5(2)}


def test_canonical_int_form():
    Q = Rationals()
    # 2/12, 4/12, -6/12 are 1/6, 1/3, -1/2: dividing by gcd(12, 2, 4, -6) = 2
    # gives 6, their least common denominator, and the zero is dropped
    assert Q.canonical(12, {"a": 2, "b": 4, "c": -6, "d": 0}) == (6, {"a": 1, "b": 2, "c": -3})
    assert Q.canonical(4, {"a": 8, "b": -4}) == (1, {"a": 2, "b": -1})
    assert Q.canonical(6, {"a": 1, "b": 0}) == (6, {"a": 1})
    assert Q.canonical(5, {"a": 0}) == (1, {})
    gf5 = PrimeField(5)
    # reduced mod 5 and zeros dropped: 12 = 2, 10 = 0, -1 = 4
    assert gf5.canonical(1, {"a": 12, "b": 10, "c": -1}) == (1, {"a": 2, "c": 4})
    # a den > 1 is inverted mod 5: 1/3 = 2, 6/3 = 2, 5/3 = 0
    assert gf5.canonical(3, {"a": 1, "b": 6, "c": 5}) == (1, {"a": 2, "b": 2})
    # the same values as the round trip through field values
    rng = random.Random(4)
    for field in (Q, gf5):
        for _ in range(50):
            den = rng.choice((1, 2, 3, 4, 6, 12, 36))
            ints = {k: rng.randint(-30, 30) for k in range(rng.randint(0, 5))}
            assert field.canonical(den, ints) == field.to_ints(field.from_ints(den, ints))


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        Rationals()("1/0")
    with pytest.raises(ValueError, match="divisible by 5"):
        PrimeField(5)("1/5")
    with pytest.raises(ValueError, match="divisible by 5"):
        PrimeField(5)(Fraction(2, 15))
    assert PrimeField(5)("1/3") == FpElement(2, 5)
