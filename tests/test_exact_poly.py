"""Tests for the exact polynomial layer."""

import random
from fractions import Fraction

import pytest

from linestrata.exact_poly import (
    MultiPoly,
    UniPoly,
    config_poly,
    monomial_content_split,
    multi_eval,
    quotient_config_poly,
)


def test_unipoly_basics():
    p = UniPoly.x() ** 2 + UniPoly.constant(3)
    assert p.degree == 2
    assert p[0] == 3 and p[1] == 0 and p[2] == 1 and p[17] == 0
    assert p(2) == 7
    assert p(Fraction(1, 2)) == Fraction(13, 4)
    assert str(p) == "x^2 + 3"
    assert UniPoly.zero().is_zero()
    assert str(UniPoly.zero()) == "0"
    assert str(UniPoly.monomial(5, 2)) == "5x^2"
    assert str(-UniPoly.x()) == "-x"


def test_unipoly_arithmetic_matches_evaluation():
    rng = random.Random(5)
    for _ in range(60):
        p = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        q = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert (p + q)(t) == p(t) + q(t)
        assert (p - q)(t) == p(t) - q(t)
        assert (p * q)(t) == p(t) * q(t)
        assert (p ** 3)(t) == p(t) ** 3


def test_unipoly_shift_down():
    p = UniPoly.x() ** 3 + UniPoly.x()
    assert p.shift_down(1) == UniPoly.x() ** 2 + UniPoly.one()
    assert p.shift_down(0) == p
    with pytest.raises(ValueError, match="not divisible"):
        (UniPoly.x() ** 2 + UniPoly.one()).shift_down(1)


def test_unipoly_json_round_trip():
    p = UniPoly([1, 0, 5, 0, 1])
    assert p.to_json() == {"coeffs": [1, 0, 5, 0, 1]}
    assert UniPoly.from_json(p.to_json()) == p
    assert str(p) == "x^4 + 5x^2 + 1"


def test_config_poly():
    x = UniPoly.x()
    assert config_poly(0, 7) == UniPoly.one()
    assert config_poly(1, 3) == x ** 2 - UniPoly.constant(3)
    # two points at scale 0: x^2 (x^2 - 1)
    assert config_poly(2, 0) == x ** 4 - x ** 2
    # the factors shift with the starting level
    assert config_poly(2, 1) == (x ** 2 - UniPoly.one()) * (
        x ** 2 - UniPoly.constant(2)
    )


def test_quotient_config_poly():
    x = UniPoly.x()
    assert quotient_config_poly(0) == UniPoly.one()
    assert quotient_config_poly(2) == UniPoly.one()
    assert quotient_config_poly(3) == x ** 2 - UniPoly.constant(2)
    assert quotient_config_poly(4) == (x ** 2 - UniPoly.constant(2)) * (
        x ** 2 - UniPoly.constant(3)
    )
    # degrees grow by two per extra part
    for m in range(2, 8):
        assert quotient_config_poly(m).degree == 2 * (m - 2)


def test_multipoly_basics():
    a = MultiPoly.variable("a")
    b = MultiPoly.variable("b")
    q = a * b + a * 2 + MultiPoly.constant(Fraction(1, 2))
    assert q.variables() == ["a", "b"]
    assert q.constant_term() == Fraction(1, 2)
    assert str(q) == "a*b + 2*a + 1/2"
    assert str((a + b) * (a + b)) == "a^2 + 2*a*b + b^2"
    assert multi_eval(q, {"a": 1, "b": Fraction(1, 2)}) == 3
    with pytest.raises(ValueError, match="no value for variable 'b'"):
        multi_eval(q, {"a": 1})


def test_multipoly_arithmetic_matches_evaluation():
    rng = random.Random(12)
    names = ["a", "b", "c"]

    def random_poly():
        out = MultiPoly.zero()
        for _ in range(rng.randint(1, 4)):
            mono = {
                v: rng.randint(1, 2)
                for v in names
                if rng.random() < 0.5
            }
            out = out + MultiPoly.from_monomial(mono, rng.randint(-3, 3))
        return out

    for _ in range(40):
        p = random_poly()
        q = random_poly()
        point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in names}
        assert multi_eval(p + q, point) == multi_eval(p, point) + multi_eval(q, point)
        assert multi_eval(p * q, point) == multi_eval(p, point) * multi_eval(q, point)
        assert multi_eval(p - q, point) == multi_eval(p, point) - multi_eval(q, point)


def test_monomial_content_split():
    a = MultiPoly.variable("a")
    b = MultiPoly.variable("b")
    content, reduced = monomial_content_split(a * a * b + a * b * b)
    assert content == {"a": 1, "b": 1}
    assert reduced == a + b
    # no common content
    content, reduced = monomial_content_split(a + b)
    assert content == {}
    assert reduced == a + b
    # splitting preserves the product
    rng = random.Random(3)
    for _ in range(20):
        p = MultiPoly.zero()
        for _ in range(rng.randint(1, 3)):
            mono = {"a": rng.randint(1, 3), "b": rng.randint(0, 2)}
            p = p + MultiPoly.from_monomial(mono, rng.randint(1, 4))
        content, reduced = monomial_content_split(p)
        rebuilt = reduced * MultiPoly.from_monomial(content, 1)
        assert rebuilt == p
