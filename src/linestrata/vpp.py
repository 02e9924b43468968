"""Virtual Poincare polynomials of compactified marked-line moduli.

All values are exact integer polynomials (:class:`~linestrata.exact_poly.UniPoly`).
The central routine computes the polynomial of a fiber product of marked-line
spaces over the common line-collision moduli; the polynomial of a single space
W_n is the one-factor case, and the line-collision moduli itself ("seam"
polynomial) is the zero-factor case.

The recursion stratifies by how the configuration degenerates seen from the
root screen:

* each factor independently carries a hierarchy of fully-fused screens (every
  fused level splits its content into at least two sub-screens at distinct
  heights, weight ``quotient_config_poly(#children)``);
* the leaves of those hierarchies are screens on which the lines separate into
  a shared partition P with at least two parts (weight
  ``quotient_config_poly(#P)`` once, since line positions are common to all
  factors);
* on each screen, marks over a single line form height configurations with
  point clusters (cluster of size m contributing the seam polynomial p_m),
  marks over a fat part are distributed into sub-screens whose pooled
  collection forms a smaller fiber product over that part;
* every screen is taken modulo its two-dimensional reparametrization group,
  dividing out one factor of x^2 (the division is checked to be exact);
* a fat part carrying no marks at all still degenerates the shared base and
  contributes the bare seam polynomial of the part.

Marks are labelled, but every weight above depends only on how many marks of
each line a group holds.  So the sums over set partitions of marks run over
partitions of count vectors instead
(:func:`~linestrata._combi.vector_partitions`), each weighted by the number
of labelled set partitions it stands for: the exponential formula for
labelled structures.  Only the sum over shared line partitions stays
labelled, since the lines of a screen are not interchangeable there.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul
from typing import Iterable, Sequence

from ._combi import Vector, set_partitions, vector_partitions
from .exact_poly import UniPoly, config_poly, quotient_config_poly

__all__ = [
    "vpp",
    "vpp_seam",
    "vpp_fiber_product",
    "vpp_table",
    "vpp_by_strata",
    "stratum_vpp",
]

@lru_cache(maxsize=None)
def vpp_seam(r: int) -> UniPoly:
    """Polynomial of the compactified moduli of r collapsing lines.

    p_1 = p_2 = 1; for larger r, sum over partitions of the lines into at
    least two groups at distinct positions, each group recursively carrying
    its own collapsed moduli.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if r <= 2:
        return UniPoly.one()
    total = UniPoly.zero()
    for blocks, mult in vector_partitions((r,)):
        if len(blocks) < 2:
            continue
        term = UniPoly.constant(mult) * quotient_config_poly(len(blocks))
        for (size,) in blocks:
            term = term * vpp_seam(size)
        total = total + term
    return total


def _validate_vector(v: Sequence[int], r: int) -> Vector:
    out = tuple(int(c) for c in v)
    if len(out) != r:
        raise ValueError(f"count vector {out} does not have length {r}")
    if any(c < 0 for c in out):
        raise ValueError(f"count vector {out} has a negative entry")
    return out


@lru_cache(maxsize=None)
def _screen_distribution(v: Vector) -> tuple[tuple[tuple[Vector, ...], UniPoly], ...]:
    """Weighted multisets of screens a single factor can present to the root.

    A factor either opens directly as one screen carrying all its marks, or
    fuses at the top: the fused level splits the marks into at least two
    groups at distinct heights (weight quotient_config_poly(#groups)), each
    group recursively presenting its own screens.
    """
    out: dict[tuple[Vector, ...], UniPoly] = {(v,): UniPoly.one()}
    for blocks, mult in vector_partitions(v):
        if len(blocks) < 2:
            continue
        weight = UniPoly.constant(mult) * quotient_config_poly(len(blocks))
        for screens, w in _pool([_screen_distribution(b) for b in blocks]).items():
            out[screens] = out.get(screens, UniPoly.zero()) + weight * w
    return tuple(sorted(out.items(), key=lambda kv: kv[0]))


@lru_cache(maxsize=None)
def _point_factor(c: int) -> UniPoly:
    """Height moduli of c marks on one line of a screen.

    Sum over clusterings: the clusters sit at distinct heights avoiding
    nothing (config_poly(#clusters, 0)); a cluster of size m carries the
    collapsed moduli p_m of its bubble.
    """
    total = UniPoly.zero()
    for blocks, mult in vector_partitions((c,)):
        term = UniPoly.constant(mult) * config_poly(len(blocks), 0)
        for (size,) in blocks:
            term = term * vpp_seam(size)
        total = total + term
    return total


def _fat_part_factor(part: tuple[int, ...], screens: tuple[Vector, ...]) -> UniPoly:
    """Contribution of a part with >= 2 lines across all screens.

    Each screen distributes its marks over the part into sub-screens at
    distinct heights (config_poly(#sub-screens, 0)); the pooled sub-screens
    form a fiber product over the part's own collision moduli.
    """
    m = len(part)
    options = [_sub_screens(tuple(s[line - 1] for line in part)) for s in screens]
    total = UniPoly.zero()
    for pooled, weight in _pool(options).items():
        total = total + weight * _fiber(m, pooled)
    return total


@lru_cache(maxsize=None)
def _sub_screens(sub: Vector) -> tuple[tuple[tuple[Vector, ...], UniPoly], ...]:
    """Weighted ways for one screen to split its marks into sub-screens."""
    return tuple(
        (blocks, UniPoly.constant(mult) * config_poly(len(blocks), 0))
        for blocks, mult in vector_partitions(sub)
    )


def _pool(
    options: Sequence[Sequence[tuple[tuple[Vector, ...], UniPoly]]]
) -> dict[tuple[Vector, ...], UniPoly]:
    """Sum over one weighted choice of vectors per entry of nonempty options.

    A choice weighs the product of its entries' weights.  Choices that pool
    to the same sorted multiset of vectors are added up, so the caller
    multiplies each multiset's weight only once.
    """
    first, *rest = options
    combos = list(first)
    for choices in rest:
        # extend each partial choice in turn, so partial products are shared
        combos = [
            (vectors + vs, weight * w)
            for vectors, weight in combos
            for vs, w in choices
        ]
    pooled: dict[tuple[Vector, ...], UniPoly] = {}
    for vectors, weight in combos:
        key = tuple(sorted(vectors))
        pooled[key] = pooled.get(key, UniPoly.zero()) + weight
    return pooled


def _part_factor(part: tuple[int, ...], screens: tuple[Vector, ...]) -> UniPoly:
    """Contribution of one part of the shared line partition."""
    if len(part) > 1:
        return _fat_part_factor(part, screens)
    out = UniPoly.one()
    for s in screens:
        out = out * _point_factor(s[part[0] - 1])
    return out


@lru_cache(maxsize=None)
def _all_root(r: int, screens: tuple[Vector, ...]) -> UniPoly:
    """Sum over shared line partitions for a fixed pooled screen multiset."""
    # a part's factor does not depend on the rest of the partition
    factors: dict[tuple[int, ...], UniPoly] = {}
    total = UniPoly.zero()
    for parts in set_partitions(list(range(1, r + 1))):
        if len(parts) < 2:
            continue
        keys = [tuple(part) for part in parts]
        for key in keys:
            if key not in factors:
                factors[key] = _part_factor(key, screens)
        prod = reduce(mul, (factors[key] for key in keys))
        # one x^2 of screen reparametrizations divided out per screen; the
        # division must be exact
        total = total + quotient_config_poly(len(parts)) * prod.shift_down(
            2 * len(screens)
        )
    return total


@lru_cache(maxsize=None)
def _fiber(r: int, factors: tuple[Vector, ...]) -> UniPoly:
    if r == 1:
        out = UniPoly.one()
        for f in factors:
            out = out * vpp_seam(sum(f) if sum(f) >= 1 else 1)
        return out
    if all(sum(f) == 1 for f in factors):
        # a single-mark factor is isomorphic to the base, so the fiber
        # product of none or only such factors is the base itself
        return vpp_seam(r)
    return _fiber_sum(r, factors)


def _fiber_sum(r: int, factors: tuple[Vector, ...]) -> UniPoly:
    """The fiber product of nonempty factors over r >= 2 lines, summed over
    the pooled screen multisets the factors present to the root."""
    pooled = _pool([_screen_distribution(f) for f in factors])
    total = UniPoly.zero()
    for screens, weight in sorted(pooled.items(), key=lambda kv: kv[0]):
        total = total + weight * _all_root(r, screens)
    return total


def vpp_fiber_product(r: int, factors: Iterable[Sequence[int]]) -> UniPoly:
    """Polynomial of the fiber product of marked-line spaces over r lines.

    Each factor is a count vector of length r saying how many marks it
    carries on each line; factors must carry at least one mark.  An empty
    factor list gives the bare collision moduli (vpp_seam(r)).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    fs = tuple(_validate_vector(f, r) for f in factors)
    for f in fs:
        if sum(f) == 0:
            raise ValueError(f"factor {f} carries no marks")
    return _fiber(r, tuple(sorted(fs)))


def vpp(n: Sequence[int]) -> UniPoly:
    """Polynomial of the space of r marked lines with n_i marks on line i."""
    nt = tuple(int(c) for c in n)
    if not nt:
        raise ValueError("n must have at least one entry")
    if any(c < 0 for c in nt):
        raise ValueError(f"{nt} has a negative entry")
    r = len(nt)
    if sum(nt) == 0:
        return vpp_seam(r)
    # relabeling the lines is an isomorphism, so sort for the cache
    return _fiber(r, (tuple(sorted(nt)),))


def _ascending_vectors(r: int, total: int) -> list[Vector]:
    """Weakly increasing r-tuples of nonnegative ints with the given sum."""
    out: list[Vector] = []

    def rec(prefix: tuple[int, ...], minimum: int, left: int) -> None:
        if len(prefix) == r:
            if left == 0:
                out.append(prefix)
            return
        slots = r - len(prefix)
        for c in range(minimum, left + 1):
            if c * slots <= left:
                rec(prefix + (c,), c, left - c)

    rec((), 0, total)
    return out


def vpp_table(d: int) -> list[tuple[Vector, UniPoly]]:
    """All rows of dimension d: weakly increasing n with |n| + r = d + 3.

    Rows are grouped by increasing r and ordered lexicographically within
    each group, matching the published table layout.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    rows: list[tuple[Vector, UniPoly]] = []
    for r in range(1, d + 3):
        total = d + 3 - r
        if total < 1:
            break
        for n in _ascending_vectors(r, total):
            rows.append((n, vpp(n)))
    return rows


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
    from .tree_pairs import enumerate_tree_pairs

    total = UniPoly.zero()
    for tp in enumerate_tree_pairs(n):
        total = total + stratum_vpp(tp)
    return total
