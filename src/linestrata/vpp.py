"""Virtual Poincare polynomials of compactified marked-line moduli.

The central routine computes the polynomial of a fiber product of marked-line
spaces over the common line-collision moduli; the polynomial of a single space
W_n is the one-factor case, and the line-collision moduli itself ("seam"
polynomial) is the zero-factor case.

The recursion stratifies by how the configuration degenerates seen from the
root screen:

* each factor independently splits its marks into k screens.  The fused
  levels above them (each splitting its content into at least two children
  at distinct heights, weight ``qconfig(#children)``) form a rooted tree on
  the k labelled screens, and p_k = ``_fiber(k, ())`` (p_1 = p_2 = 1) sums
  exactly these trees.  So a screen partition of multiplicity m weighs
  m * p_k, in every ring, since this only regroups the hierarchies' products;
* the leaves of those hierarchies are screens on which the lines separate into
  a shared partition P with at least two parts (weight ``qconfig(#P)`` once,
  since line positions are common to all factors);
* on each screen, marks over a part are distributed into sub-screens whose
  pooled collection forms a smaller fiber product over that part; over a
  single line, the sub-screens are point clusters, each of size m
  contributing p_m;
* every screen is taken modulo its two-dimensional reparametrization group,
  dividing out one factor of q = x^2 (the division is checked to be exact,
  see below);
* a fat part carrying no marks at all still degenerates the shared base and
  contributes the bare seam polynomial of the part.

Marks are labelled, but every weight above depends only on how many marks of
each line a group holds.  So the sums over set partitions of marks run over
partitions of count vectors instead
(:func:`~linestrata._combi.vector_partitions`), each weighted by the number
of labelled set partitions it stands for: the exponential formula for
labelled structures.  The sum over shared line partitions takes the same
step.  Write the pooled screens as a matrix, one row per screen and one
column per line.  A part's factor depends only on the multiset of its
lines' columns, so lines with equal columns are interchangeable: the sum
runs over partitions of the vector counting the lines of each column type,
each computed once on representative lines and weighted by its
multiplicity.  When all columns differ, these are the labelled set
partitions, each of multiplicity 1.  Relabelling the lines permutes the
columns and leaves the sum unchanged, so the screens are cached with their
columns sorted, then their rows; so are a fat part's screens, without those
that hold no marks over the part, and the sub-screens it pools.

A screen's division by q is taken from a single part: the one holding the
screen's first marked line.  On that line, or over that fat part, the
screen's marks sit at one or more distinct heights, so every term of the
part's factor carries a ``config(l >= 1, 0)``, which has the root q = 0.
Each screen has exactly one first marked line, so every screen is divided
out once, and each part's factor is divided once, before it enters any
product.  Every division is checked, so this checks each part on its own,
where one division of the product would check only their total.

Weight rings
------------
Every polynomial of the recursion is a polynomial in q = x^2, built by ``+``
and ``*`` from integer constants and two primitives, ``config(l, k)`` =
prod_{i<l} (q - k - i) and ``qconfig(m)`` = prod_{j=2}^{m-1} (q - j), and
divided by q once per screen.  The recursion therefore runs over any ring
that supplies ``constant``, ``config``, ``qconfig`` and ``divide`` and has
native ``+`` and ``*``; the ring is the first argument of every cached
function, so each ring keeps its own caches.  A ring also evaluates sums of
products, ``sum_of_products(terms, values)`` = sum of mult * prod_i
values[i] over the terms (indices, mult): each of the recursion's hot sums
(over the line partitions of ``_all_root`` and over the pooled screens and
sub-screens of ``_fiber_sum`` and ``_fat_part``) is one such call, so a ring
can evaluate it without building a value per operation.
:class:`IntRing` gives three rings with Python-int values, and evaluates a
sum of products in native int arithmetic.  Each sends a linear factor q - a
to ``radix - slope * a`` and divides a screen out by ``radix``:

* the Kronecker ring (slope 1, radix B = 2^K) evaluates every polynomial at
  q = B, so each product or sum is one big-integer operation and dividing
  out s screens is exact division by B^s;
* the bound ring (radix 1, slope -1) sends a polynomial to the sum of the
  absolute values of its coefficients, and division is the identity;
* the dimension-marker ring (slope 0, radix t = 2^K) sends each primitive
  to t^degree and divides each screen out by t.

The recursion runs in a :class:`BoundedRing`, whose values carry a
bound-ring value next to a Kronecker or dimension-marker value, once and at
most twice (see below).  It evaluates a sum of products once on the bounds
and once on the values, and builds one :class:`Bounded` per sum.

Why at most two passes with the bound carried are safe.  The norm |P| =
sum |coefficients| satisfies |P + Q| <= |P| + |Q| and |PQ| <= |P| |Q|, and
a division by q leaves it unchanged.  On each primitive it equals the
bound-ring value: the linear factors q - a have a >= 0, so the product's
coefficients alternate in sign and |P| = |P(-1)| = prod (1 + a).  So the
bound carried with every value is at least that value's norm.  If q^s
divides P, then B^s divides P(B) for every integer B, so every division
checks its remainder, at any radix, and raises on a nonzero one.  With
B = 2^K > 2N, where N bounds the coefficients of P, the converse holds
too, and the coefficients are read back from P(B) as balanced base-B
digits: P(B) is congruent mod B^s to sum_{i<s} c_i B^i, whose absolute
value is below B^s / 2.  Every sub-expression enters a result through
``+`` and through ``*`` by nonzero integer polynomials (bound >= 1), and
all bounds are nonnegative, so bounds only grow on the way up: a final
N < 2^(K-1) certifies every zero remainder of the pass and the decoding.
The bounds come from the bound ring alone, so N does not depend on K.
The pass starts at K = 64; when its final N is too large, it runs once
more at the smallest multiple K of 64 with 2^(K-1) > N, which certifies
it.  No input within the command-line size guards needs more than the
first pass.

Why the dimension-marker ring counts strata.  Expand every sum of the
recursion to its terms: one choice at every level of a partition (of marks
into groups, screens, clusters and sub-screens, of lines into parts), a
count-vector partition of multiplicity m standing for m labelled choices.
Read from the root screen down, a stratum (a seam tree with a screen tree,
see :mod:`~linestrata.tree_pairs`) makes exactly one such choice at every
level, and every choice is made by exactly one stratum; the single-line
case of ``_fiber`` is an isomorphism of stratified spaces.
The terms of a screen distribution's p_k = ``_fiber(k, ())`` are exactly
the hierarchies above its k screens, so the bijection still holds there.
:func:`~linestrata.tree_pairs.enumerate_tree_pairs` lists the same terms:
its ``_enum_fiber`` makes the same choices level by level, and takes the
hierarchies above a factor's k screens from
:func:`~linestrata.trees.hierarchies`, so each stratum it builds is one term
here.  A term's weight is its stratum's polynomial (``stratum_vpp``), a
product of open configuration spaces: monic of degree the stratum's
dimension, since ``config(l, k)`` is monic of degree l, ``qconfig(m)`` of
degree m - 2, and each screen division lowers the degree by one.  Sending
each primitive to t^degree therefore sends each term to t^dimension, and the
whole sum to the generating function of the f-vector.  Each term weighs at
least 1 in the bound ring, so N also bounds every stratum count, and with
t = 2^K the counts are the digits of the result.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations_with_replacement, groupby
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ._combi import Vector, line_count, type_vector, vector_partitions
# bound but never called: benchmarks/tracer.py counts the set partitions
# taken by each module that binds this name, and the benchmark reports this
# module's count, which is 0 since line partitions are summed by column type
from ._combi import set_partitions as set_partitions

if TYPE_CHECKING:
    from .exact_poly import UniPoly

__all__ = [
    "vpp",
    "vpp_seam",
    "vpp_fiber_product",
    "vpp_table",
    "stratum_counts",
    "vpp_by_strata",
    "stratum_vpp",
]


class IntRing:
    """Integer weights: a linear factor q - a becomes ``radix - slope * a``.

    ``radix`` is ``2**bits``; dividing out s screens divides by
    ``radix**s`` and raises on a nonzero remainder.  Slope 1 is the Kronecker
    ring, bits 0 with slope -1 the bound ring, slope 0 the dimension-marker
    ring.  Rings are interned by :func:`_int_ring`, so that cache keys hash
    and compare them by identity.
    """

    __slots__ = ("bits", "radix", "slope")

    def __init__(self, bits: int, slope: int):
        self.bits = bits
        self.radix = 1 << bits
        self.slope = slope

    def constant(self, c: int) -> int:
        return c

    @lru_cache(maxsize=None)
    def config(self, ell: int, k: int) -> int:
        """``config_poly(ell, k)``: prod_{i<ell} (q - k - i)."""
        out = 1
        for a in range(k, k + ell):
            out *= self.radix - self.slope * a
        return out

    @lru_cache(maxsize=None)
    def qconfig(self, m: int) -> int:
        """``quotient_config_poly(m)``: prod_{j=2}^{m-1} (q - j)."""
        return self.config(max(m - 2, 0), 2)

    def divide(self, value: int, screens: int) -> int:
        """value / q**screens, which must be exact."""
        shift = self.bits * screens
        if value & ((1 << shift) - 1):
            raise ValueError(f"weight {value} is not divisible by q^{screens}")
        return value >> shift

    @staticmethod
    def sum_of_products(terms: Sequence[tuple[Sequence[int], int]], values: Sequence[int]) -> int:
        """The sum over the terms (indices, mult) of mult times the product
        of values[i] for i in indices, in native int arithmetic."""
        get = values.__getitem__
        return sum(prod(map(get, indices), start=mult) for indices, mult in terms)


@lru_cache(maxsize=None)
def _int_ring(bits: int, slope: int) -> IntRing:
    return IntRing(bits, slope)


class Bounded:
    """A weight with its bound: ``bound`` in the bound ring, ``value`` in an
    :class:`IntRing`."""

    __slots__ = ("bound", "value")

    def __init__(self, bound: int, value: int):
        self.bound = bound
        self.value = value

    def __add__(self, other: Bounded) -> Bounded:
        return Bounded(self.bound + other.bound, self.value + other.value)

    def __mul__(self, other: Bounded) -> Bounded:
        return Bounded(self.bound * other.bound, self.value * other.value)


class BoundedRing:
    """An :class:`IntRing` run together with the bound ring.

    Every division checks its remainder; a zero remainder certifies an
    exact division only while the carried bound is below half the radix.
    Rings are interned by :func:`_bounded_ring`.
    """

    __slots__ = ("ring", "bound_ring")

    def __init__(self, ring: IntRing):
        self.ring = ring
        self.bound_ring = _int_ring(0, -1)

    def constant(self, c: int) -> Bounded:
        return Bounded(c, c)

    @lru_cache(maxsize=None)
    def config(self, ell: int, k: int) -> Bounded:
        return Bounded(self.bound_ring.config(ell, k), self.ring.config(ell, k))

    @lru_cache(maxsize=None)
    def qconfig(self, m: int) -> Bounded:
        return Bounded(self.bound_ring.qconfig(m), self.ring.qconfig(m))

    def divide(self, value: Bounded, screens: int) -> Bounded:
        """value / q**screens, which must be exact; the bound is kept."""
        return Bounded(value.bound, self.ring.divide(value.value, screens))

    def sum_of_products(
        self, terms: Sequence[tuple[Sequence[int], int]], values: Sequence[Bounded]
    ) -> Bounded:
        """:meth:`IntRing.sum_of_products` once on the bounds and once on
        the values, as one :class:`Bounded`.  The multiplicities are
        positive, so the sum taken on the bounds is the bound of the sum."""
        return Bounded(
            self.bound_ring.sum_of_products(terms, [v.bound for v in values]),
            self.ring.sum_of_products(terms, [v.value for v in values]),
        )


@lru_cache(maxsize=None)
def _bounded_ring(bits: int, slope: int) -> BoundedRing:
    return BoundedRing(_int_ring(bits, slope))


def _radix_bits(bound: int) -> int:
    """The smallest multiple K of 64 with 2**(K - 1) > bound."""
    return 64 * ((bound.bit_length() + 64) // 64)


def _digits(value: int, bits: int) -> list[int]:
    """Balanced base-2**bits digits of value, lowest first."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        value = (value - digit) >> bits
    return digits


def _evaluate(fibers: Sequence[tuple[int, tuple[Vector, ...]]], slope: int) -> list[list[int]]:
    """The q-coefficients, lowest first, of the fiber products
    ``_fiber(r, factors)`` named by fibers, computed in the integer ring of the
    given slope (1: polynomials, 0: stratum counts by dimension) at one radix
    wide enough for all of them, certified by the bounds carried along."""
    bits = _radix_bits(0)
    for rerun in (False, True):
        ring = _bounded_ring(bits, slope)
        values = [_fiber(ring, r, factors) for r, factors in fibers]
        # the bounds do not depend on the radix: N is exact in every pass
        bound = max(v.bound for v in values)
        if not bound >> (bits - 1):
            return [_digits(v.value, bits) for v in values]
        if rerun:
            break
        bits = _radix_bits(bound)
    raise ValueError(f"radix 2^{bits} is too small for coefficients up to {bound}")


def _poly(coeffs: list[int]) -> UniPoly:
    """The polynomial in x with the given coefficients in q = x^2."""
    from .exact_poly import UniPoly

    return UniPoly([c for q_coeff in coeffs for c in (q_coeff, 0)])


@lru_cache(maxsize=None, typed=True)  # typed: True is refused, not read as 1
def vpp_seam(r: int) -> UniPoly:
    """Polynomial of the compactified moduli of r collapsing lines.

    p_1 = p_2 = 1; for larger r, sum over partitions of the lines into at
    least two groups at distinct positions, each group recursively carrying
    its own collapsed moduli.
    """
    return _poly(_evaluate([(line_count(r), ())], 1)[0])


@lru_cache(maxsize=None)
def _screen_distribution(ring, v: Vector) -> tuple[tuple[tuple[Vector, ...], object], ...]:
    """Weighted multisets of screens a single factor can present to the root:
    a partition of v into k screens, of multiplicity m, weighs m * p_k."""
    if not any(v):
        raise ValueError(f"count vector {v} carries no marks")
    out = [
        (tuple(sorted(blocks)), ring.constant(mult) * _fiber(ring, len(blocks), ()))
        for blocks, mult in vector_partitions(v)
    ]
    return tuple(sorted(out, key=lambda kv: kv[0]))


@lru_cache(maxsize=None)
def _point_factor(ring, c: int):
    """Height moduli of c marks on one line of a screen: the fat part of
    that one line.  Its sub-screens are the point clusters, at distinct
    heights (config(#clusters, 0)), and the fiber over one line multiplies
    their collapsed moduli p_m."""
    return _fat_part(ring, 1, ((c,),))


@lru_cache(maxsize=None)
def _fat_part(ring, m: int, subs: tuple[Vector, ...]):
    """Contribution of a part of m lines across all screens, given each
    screen's marks over the part, sorted.  A screen without marks over the
    part has one split, into no sub-screens, of weight config(0, 0) = 1,
    so it may be left out.

    Each screen distributes its marks over the part into sub-screens at
    distinct heights (config(#sub-screens, 0)); the pooled sub-screens form
    a fiber product over the part's own collision moduli.
    """
    options = [_sub_screens(ring, sub) for sub in subs]
    # relabelling the part's lines leaves the fiber product unchanged
    return _pool(ring, options, lambda pooled: _fiber(ring, m, _relabelled(pooled)))


@lru_cache(maxsize=None)
def _sub_screens(ring, sub: Vector) -> tuple[tuple[tuple[Vector, ...], object], ...]:
    """Weighted ways for one screen to split its marks into sub-screens."""
    return tuple(
        (blocks, ring.constant(mult) * ring.config(len(blocks), 0))
        for blocks, mult in vector_partitions(sub)
    )


def _pool(
    ring,
    options: Sequence[Sequence[tuple[tuple[Vector, ...], object]]],
    weigh: Callable[[tuple[Vector, ...]], object],
):
    """Sum over one weighted choice of vectors per entry of options.

    A choice weighs the product of its entries' weights and of
    ``weigh(pooled)``, where pooled is the sorted multiset of its vectors;
    weigh is called once per multiset, and the whole sum is one ring call.
    With no options, the one empty choice gives ``weigh(())``.
    """
    values = []
    combos = [((), ())]
    for choices in options:
        start = len(values)
        values.extend(w for _, w in choices)
        # extend the partial choices one option at a time, so that each
        # prefix is built once
        combos = [
            (vectors + vs, indices + (i,))
            for vectors, indices in combos
            for i, (vs, _) in enumerate(choices, start)
        ]
    slots: dict = {}
    terms = []
    for vectors, indices in combos:
        key = tuple(sorted(vectors))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(values)
            values.append(weigh(key))
        terms.append((indices + (slot,), 1))
    return ring.sum_of_products(terms, values)


def _part_factor(ring, columns: Sequence[Vector]):
    """Contribution of one part of the shared line partition, given the
    columns of its lines: each line's marks on every screen."""
    if len(columns) > 1:
        # the factor sees only the marked screens' marks over the part, as a
        # multiset, and not the order of the part's lines: sort the columns,
        # then the rows, and drop the rows of unmarked screens, so that
        # relabelled parts share a cache entry
        subs = tuple(sorted(filter(any, zip(*sorted(columns)))))
        return _fat_part(ring, len(columns), subs)
    # a screen without marks on the line contributes config(0, 0) = 1
    factors = [_point_factor(ring, c) for c in columns[0] if c]
    return reduce(mul, factors) if factors else ring.constant(1)


@lru_cache(maxsize=None)
def _line_partitions(counts: Vector) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Partitions into at least two parts of lines of which counts[j] share
    the j-th column type: one labelled representative of each partition of
    counts, with its multiplicity.

    Lines are numbered type by type from 0, and a representative hands each
    type's lines to its parts in order.  With every count 1, these are the
    set partitions of the lines, each of multiplicity 1.  Returns the
    distinct parts, and the representatives as terms (indices, mult) of a
    sum of products: the indices of its k parts into those parts, then the
    slot len(parts) + k - 2, which holds the level's qconfig(k).
    """
    starts = [sum(counts[:j]) for j in range(len(counts))]
    index: dict[tuple[int, ...], int] = {}
    terms = []
    for blocks, mult in vector_partitions(counts):
        if len(blocks) < 2:
            continue
        taken = list(starts)
        parts = []
        for block in blocks:
            part: list[int] = []
            for j, c in enumerate(block):
                if c:
                    start = taken[j]
                    part += range(start, start + c)
                    taken[j] = start + c
            parts.append(index.setdefault(tuple(part), len(index)))
        terms.append((parts, len(blocks), mult))
    return tuple(index), tuple(
        ((*parts, len(index) + k - 2), mult) for parts, k, mult in terms
    )


@lru_cache(maxsize=None)
def _all_root(ring, r: int, screens: tuple[Vector, ...]):
    """Sum over shared line partitions for a fixed pooled screen multiset.

    Lines with equal columns are interchangeable, so the sum runs over the
    partitions of the column-type counts, on representative lines.
    """
    # with no screens, the r lines are r empty columns of one type
    columns = sorted(zip(*screens)) if screens else [()] * r
    parts, terms = _line_partitions(tuple(len(list(run)) for _, run in groupby(columns)))
    # a screen's q of reparametrizations divides the factor of the part that
    # holds its first marked line: the screen puts a config(l >= 1, 0) there
    heads = [0] * r
    for row in zip(*columns):
        # the first nonzero entry's value first occurs at its own index
        heads[row.index(next(filter(None, row)))] += 1
    # a part's factor does not depend on the rest of the partition
    values = []
    for part in parts:
        factor = _part_factor(ring, [columns[i] for i in part])
        screens_here = sum(map(heads.__getitem__, part))
        values.append(ring.divide(factor, screens_here) if screens_here else factor)
    values.extend(ring.qconfig(k) for k in range(2, r + 1))
    return ring.sum_of_products(terms, values)


@lru_cache(maxsize=None)
def _fiber(ring, r: int, factors: tuple[Vector, ...]):
    """The fiber product of the factors over r lines; p_r with none."""
    if r == 1:
        out = ring.constant(1)
        for f in factors:
            out = out * _fiber(ring, sum(f), ())
        return out
    return _fiber_sum(ring, r, factors)


def _fiber_sum(ring, r: int, factors: tuple[Vector, ...]):
    """The fiber product over r >= 2 lines, summed over the pooled screen
    multisets the factors present to the root; with no factors, the one
    empty multiset."""
    # relabelling the lines leaves _all_root unchanged: sort the columns,
    # then the screens, so that relabelled multisets share a cache entry
    return _pool(
        ring,
        [_screen_distribution(ring, f) for f in factors],
        lambda screens: _all_root(ring, r, _relabelled(screens)),
    )


@lru_cache(maxsize=None)
def _relabelled(vectors: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """vectors with their columns sorted, then the vectors themselves: a
    key that relabelling the lines does not change.  Cached, since the
    pools of different fibers meet the same multisets again."""
    return tuple(sorted(zip(*sorted(zip(*vectors)))))


def vpp_fiber_product(r: int, factors: Iterable[Sequence[int]]) -> UniPoly:
    """Polynomial of the fiber product of marked-line spaces over r lines.

    Each factor is a count vector of length r saying how many marks it
    carries on each line; factors must carry at least one mark.  An empty
    factor list gives the bare collision moduli (vpp_seam(r)).
    """
    r = line_count(r)
    fs = tuple(sorted(map(type_vector, factors)))
    for f in fs:
        if len(f) != r:
            raise ValueError(f"count vector {f} does not have length {r}")
    return _poly(_evaluate([(r, fs)], 1)[0])


def _job(n: Sequence[int]) -> tuple[int, tuple[Vector, ...]]:
    """The fiber product (r, factors) of the space of type n, which may
    carry no marks."""
    nt = type_vector(n, markless=True)
    # relabeling the lines is an isomorphism, so sort for the cache
    return len(nt), (tuple(sorted(nt)),) if any(nt) else ()


def vpp(n: Sequence[int]) -> UniPoly:
    """Polynomial of the space of r marked lines with n_i marks on line i."""
    return _poly(_evaluate([_job(n)], 1)[0])


def stratum_counts(n: Sequence[int]) -> list[int]:
    """Stratum counts by dimension, starting at dimension 0, for the type n.

    The recursion in the dimension-marker ring; it equals
    :func:`~linestrata.tree_pairs.f_vector`, which enumerates the strata.
    """
    return _evaluate([_job(type_vector(n))], 0)[0]


def _ascending_vectors(r: int, total: int) -> list[Vector]:
    """Weakly increasing r-tuples of nonnegative ints with the given sum."""
    return [
        v for v in combinations_with_replacement(range(total + 1), r) if sum(v) == total
    ]


def vpp_table(d: int) -> list[tuple[Vector, UniPoly]]:
    """All rows of dimension d: weakly increasing n with |n| + r = d + 3.

    Rows are grouped by increasing r and ordered lexicographically within
    each group, matching the published table layout.  All rows share one
    radix, and with it the cached parts of their recursions.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    types = [n for r in range(1, d + 3) for n in _ascending_vectors(r, d + 3 - r)]
    rows = _evaluate([_job(n) for n in types], 1)
    return [(n, _poly(coeffs)) for n, coeffs in zip(types, rows)]


# ---------------------------------------------------------------------------
# stratum-sum oracle
# ---------------------------------------------------------------------------


def stratum_vpp(tp) -> UniPoly:
    """Product formula for the open stratum of a single tree pair.

    Interior seam-tree vertices contribute the height moduli of their
    children; multi-line screens contribute the height configurations of
    their seam contents divided by the screen reparametrizations; single-line
    screens contribute their children's heights modulo affine maps.
    """
    from .exact_poly import UniPoly, config_poly, quotient_config_poly

    out = UniPoly.one()
    for rho in tp.seam_tree.interior_vertices():
        out = out * quotient_config_poly(tp.seam_tree.in_degree(rho))
    for comp in tp.components():
        if comp.is_multi:
            factor = UniPoly.one()
            for seam in comp.seams:
                factor = factor * config_poly(len(seam.children), 0)
            out = out * factor.shift_down(2)
        else:
            out = out * quotient_config_poly(len(comp.seams[0].children))
    return out


def vpp_by_strata(n: Sequence[int]) -> UniPoly:
    """Sum of stratum polynomials over all tree pairs; equals vpp(n)."""
    from .exact_poly import UniPoly
    from .tree_pairs import enumerate_tree_pairs

    total = UniPoly.zero()
    for tp in enumerate_tree_pairs(n):
        total = total + stratum_vpp(tp)
    return total
