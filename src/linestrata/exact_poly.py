"""Exact polynomial arithmetic used throughout the package.

Two representations are provided:

* :class:`UniPoly` -- univariate polynomials over the integers, stored as an
  ascending list of coefficients with no trailing zeros.  These carry the
  virtual Poincare polynomials; all arithmetic is exact integer arithmetic.

* :class:`MultiPoly` -- multivariate polynomials over the rationals, stored as
  a map from monomials (variable name -> positive exponent) to nonzero
  ``Fraction`` coefficients.  This is the ring of the symbolic gluing
  polynomials, the oracle the numeric chart maps are checked against.

``UniPoly`` has a canonical JSON form.  Both print deterministically
(descending powers for ``UniPoly``, graded-lex on sorted variable names for
``MultiPoly``), so equal polynomials always print identically.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

__all__ = [
    "UniPoly",
    "MultiPoly",
    "Monomial",
    "config_poly",
    "quotient_config_poly",
    "multi_eval",
    "monomial_content_split",
]

#: A monomial: sorted tuple of (variable, exponent) pairs, exponents > 0.
Monomial = tuple[tuple[str, int], ...]

Scalar = Union[int, Fraction]


class UniPoly:
    """Univariate integer polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "UniPoly":
        """coeff * x**exponent."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coeff,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        # VPPs are even polynomials, so about half of each operand is zero
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in terms:
                out[i + j] += a * b
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_down(self, k: int) -> "UniPoly":
        """Exact division by x**k; raises if any of the low k coefficients is nonzero."""
        if any(self.coeffs[:k]):
            raise ValueError(f"not divisible by x^{k}: {self!r}")
        return UniPoly(self.coeffs[k:])

    def __call__(self, value: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- comparisons / hashing ---------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    # -- presentation -------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: Mapping) -> "UniPoly":
        return cls(data["coeffs"])


@lru_cache(maxsize=None)
def config_poly(ell: int, k: int) -> UniPoly:
    """prod_{i=0}^{ell-1} (x^2 - (k + i)).

    Counting polynomial for ordered configurations of ell distinct points in
    the plane avoiding k fixed points; config_poly(0, k) == 1.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    x2 = UniPoly.monomial(1, 2)
    out = UniPoly.one()
    for i in range(ell):
        out = out * (x2 - UniPoly.constant(k + i))
    return out


@lru_cache(maxsize=None)
def quotient_config_poly(m: int) -> UniPoly:
    """prod_{j=2}^{m-1} (x^2 - j); equals 1 for m <= 2.

    Counting polynomial for m distinct points on a line modulo affine
    reparametrization.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    x2 = UniPoly.monomial(1, 2)
    out = UniPoly.one()
    for j in range(2, m):
        out = out * (x2 - UniPoly.constant(j))
    return out


# ---------------------------------------------------------------------------
# multivariate polynomials over Q
# ---------------------------------------------------------------------------


def _norm_monomial(m: Mapping[str, int]) -> Monomial:
    items = tuple(sorted((str(v), int(e)) for v, e in m.items() if int(e) != 0))
    for _, e in items:
        if e < 0:
            raise ValueError("negative exponent in monomial")
    return items


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


class MultiPoly:
    """Multivariate polynomial over Q: monomial -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        out: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    key = _norm_monomial(dict(mono))
                    c = out.get(key, Fraction(0)) + c
                    if c:
                        out[key] = c
                    else:
                        out.pop(key, None)
        self.terms: dict[Monomial, Fraction] = out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "MultiPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.constant(1)

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls({((str(name), 1),): Fraction(1)})

    @classmethod
    def from_monomial(cls, mono: Mapping[str, int], coeff: Scalar = 1) -> "MultiPoly":
        return cls({_norm_monomial(mono): Fraction(coeff)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> list[str]:
        seen = {v for mono in self.terms for v, _ in mono}
        return sorted(seen)

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = MultiPoly.__new__(MultiPoly)
        res.terms = out
        return res

    def __neg__(self) -> "MultiPoly":
        res = MultiPoly.__new__(MultiPoly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | int | Fraction") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            res = MultiPoly.__new__(MultiPoly)
            res.terms = {} if not c0 else {m: c * c0 for m, c in self.terms.items()}
            return res
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = _mul_monomials(m1, m2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = MultiPoly.__new__(MultiPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    # -- comparisons / hashing ---------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- presentation -------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        # graded-lex, highest first: total degree, then exponent vector on the
        # sorted variable list.
        allvars = self.variables()

        def key(item: tuple[Monomial, Fraction]):
            mono, _ = item
            exps = dict(mono)
            return (sum(exps.values()), tuple(exps.get(v, 0) for v in allvars))

        return sorted(self.terms.items(), key=key, reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self._sorted_terms():
            body = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in mono
            )
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({dict(self.terms)!r})"


def multi_eval(p: MultiPoly, assignment: Mapping[str, Scalar]) -> Fraction:
    """Evaluate p at a full assignment; unassigned variables are an error."""
    values = {str(v): Fraction(c) for v, c in assignment.items()}
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        c = coeff
        for v, e in mono:
            if v not in values:
                raise ValueError(f"no value for variable {v!r}")
            c *= values[v] ** e
        total += c
    return total


def monomial_content_split(
    p: MultiPoly, variables: Iterable[str] | None = None
) -> tuple[dict[str, int], MultiPoly]:
    """Split p as (monomial content) * (reduced part).

    The content is the largest monomial in the given variables (all variables
    when omitted) dividing every term of p; the reduced part is p with that
    monomial divided out, so from_monomial(content) * reduced == p.
    """
    if p.is_zero():
        raise ValueError("content of the zero polynomial is undefined")
    restrict = None if variables is None else {str(v) for v in variables}
    content: dict[str, int] | None = None
    for mono in p.terms:
        exps = {v: e for v, e in mono if restrict is None or v in restrict}
        if content is None:
            content = exps
        else:
            content = {
                v: min(e, exps.get(v, 0)) for v, e in content.items() if v in exps
            }
            content = {v: e for v, e in content.items() if e > 0}
    if content is None:
        raise AssertionError("a nonzero polynomial has a term")
    reduced_terms: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        exps = dict(mono)
        for v, e in content.items():
            exps[v] -= e
        reduced_terms[_norm_monomial(exps)] = coeff
    reduced = MultiPoly.__new__(MultiPoly)
    reduced.terms = reduced_terms
    return content, reduced
