"""Tests for the virtual Poincare polynomial computations.

The d=2 and d=3 tables below were frozen from the reference values before
the recursion was implemented; they are the oracle for everything else.
"""

import hashlib
import importlib
import random
from functools import cache, reduce
from itertools import combinations_with_replacement, product
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linestrata._combi import set_partitions, vector_partitions
from linestrata.cli import run
from linestrata.exact_poly import UniPoly, config_poly, quotient_config_poly
from linestrata.tree_pairs import enumerate_tree_pairs, f_vector
from linestrata.trees import enumerate_stable_trees, tree_dimension
from linestrata.vpp import (
    IntRing,
    stratum_counts,
    stratum_vpp,
    vpp,
    vpp_by_strata,
    vpp_fiber_product,
    vpp_seam,
    vpp_table,
)

# the package attribute linestrata.vpp is the function, so fetch the module
vpp_module = importlib.import_module("linestrata.vpp")


class PolyRing:
    """The reference backend: the recursion over UniPoly, with schoolbook
    arithmetic and polynomial division."""

    def constant(self, c):
        return UniPoly.constant(c)

    def config(self, ell, k):
        return config_poly(ell, k)

    def qconfig(self, m):
        return quotient_config_poly(m)

    def divide(self, value, screens):
        return value.shift_down(2 * screens)


POLY = PolyRing()
# the reference, bound, Kronecker and dimension-marker rings
RINGS = [
    POLY,
    vpp_module._int_ring(0, -1),
    vpp_module._int_ring(64, 1),
    vpp_module._int_ring(64, 0),
]

# dimension-2 types (coeffs ascending)
TABLE_D2 = {
    (4,): [1, 0, 5, 0, 1],
    (0, 3): [1, 0, 5, 0, 1],
    (1, 2): [1, 0, 4, 0, 1],
    (0, 0, 2): [1, 0, 4, 0, 1],
    (0, 1, 1): [1, 0, 3, 0, 1],
    (0, 0, 0, 1): [1, 0, 5, 0, 1],
}

# dimension-3 types
TABLE_D3 = {
    (5,): [1, 0, 16, 0, 16, 0, 1],
    (0, 4): [1, 0, 16, 0, 19, 0, 1],
    (1, 3): [1, 0, 12, 0, 15, 0, 1],
    (2, 2): [1, 0, 11, 0, 14, 0, 1],
    (0, 0, 3): [1, 0, 14, 0, 14, 0, 1],
    (0, 1, 2): [1, 0, 10, 0, 10, 0, 1],
    (1, 1, 1): [1, 0, 8, 0, 8, 0, 1],
    (0, 0, 0, 2): [1, 0, 12, 0, 12, 0, 1],
    (0, 0, 1, 1): [1, 0, 9, 0, 9, 0, 1],
    (0, 0, 0, 0, 1): [1, 0, 16, 0, 16, 0, 1],
}


def test_table_d2():
    for n, coeffs in TABLE_D2.items():
        assert vpp(n) == UniPoly(coeffs), n


def test_table_d3():
    for n, coeffs in TABLE_D3.items():
        assert vpp(n) == UniPoly(coeffs), n


def test_vpp_table_rows():
    rows2 = vpp_table(2)
    assert len(rows2) == 6
    assert dict(rows2) == {n: UniPoly(c) for n, c in TABLE_D2.items()}
    rows3 = vpp_table(3)
    assert len(rows3) == 10
    assert dict(rows3) == {n: UniPoly(c) for n, c in TABLE_D3.items()}


def test_low_dimensional_values():
    x = UniPoly.x()
    one = UniPoly.one()
    assert vpp((1,)) == one
    assert vpp((2, 0)) == x ** 2 + one
    assert vpp((1, 1)) == x ** 2 + one
    assert vpp((3, 0)) == UniPoly([1, 0, 5, 0, 1])
    assert vpp((2, 1)) == UniPoly([1, 0, 4, 0, 1])
    assert vpp((2, 0, 0)) == UniPoly([1, 0, 4, 0, 1])
    assert vpp((1, 1, 0)) == UniPoly([1, 0, 3, 0, 1])


def test_vpp_is_order_free():
    rng = random.Random(2)
    for n in [(1, 2), (0, 0, 2), (0, 1, 1), (1, 1, 3), (0, 2, 1, 0)]:
        shuffled = list(n)
        rng.shuffle(shuffled)
        assert vpp(tuple(shuffled)) == vpp(n)


def test_vpp_seam_matches_pure_line_types():
    for r in range(2, 9):
        assert vpp_seam(r) == vpp((r,)), r
    assert vpp_seam(4) == UniPoly([1, 0, 5, 0, 1])
    assert vpp_seam(5) == UniPoly([1, 0, 16, 0, 16, 0, 1])


def test_shape_invariants():
    """Degree 2d, monic, constant term 1, nonnegative coefficients."""
    cases = [(2, 0), (1, 1, 1), (0, 4), (3, 2), (2, 2, 0)]
    for n in cases:
        d = sum(n) + len(n) - 3
        p = vpp(n)
        assert p.degree == 2 * d
        assert p[2 * d] == 1 and p[0] == 1
        assert all(p[k] >= 0 for k in range(p.degree + 1))
        assert all(p[k] == 0 for k in range(1, p.degree, 2))


def test_stratum_vpp_sums_to_vpp():
    for n in [(2, 0), (1, 1), (3, 0), (2, 1), (1, 1, 0), (2, 0, 0), (4,)]:
        total = UniPoly.zero()
        for tp in enumerate_tree_pairs(n):
            total = total + stratum_vpp(tp)
        assert total == vpp(n), n


def test_vpp_by_strata_agrees():
    for n in [(2, 0), (1, 1), (2, 1), (3, 0), (1, 1, 1), (0, 4), (2, 2)]:
        assert vpp_by_strata(n) == vpp(n), n


def test_open_stratum_contribution():
    """The open stratum alone has degree 2d and is monic."""
    for n in [(2, 0), (2, 1), (1, 1, 1)]:
        d = sum(n) + len(n) - 3
        tops = [
            tp
            for tp in enumerate_tree_pairs(n)
            if len(tp.components()) == 1
            and tp.seam_tree.interior_vertices() == [tp.seam_tree.root]
        ]
        assert len(tops) == 1
        p = stratum_vpp(tops[0])
        assert p.degree == 2 * d
        assert p[2 * d] == 1


def _keel_polys(n_max: int) -> dict[int, UniPoly]:
    """P(M_{0,n}) for 3 <= n <= n_max by Keel's recursion, in x with q = x^2.

    P_3 = 1, P_4 = 1 + q and
    P_{n+1} = (1 + q) P_n + (q / 2) sum_{j=2}^{n-2} C(n, j) P_{j+1} P_{n-j+1}.
    """
    q = UniPoly.monomial(1, 2)
    one = UniPoly.one()
    p = {3: one, 4: one + q}
    for n in range(4, n_max):
        twice = UniPoly.zero()
        for j in range(2, n - 1):
            twice = twice + UniPoly.constant(comb(n, j)) * p[j + 1] * p[n - j + 1]
        assert all(c % 2 == 0 for c in twice.coeffs)
        half = UniPoly([c // 2 for c in twice.coeffs])
        p[n + 1] = (one + q) * p[n] + q * half
    return p


def test_vpp_seam_matches_keel_recursion():
    keel = _keel_polys(11)
    for r in range(2, 11):
        assert vpp_seam(r) == keel[r + 1], r


# SHA-256 of the pretty `vpp-table d` output, frozen from the labelled
# set-partition recursion that the count-vector one replaced
TABLE_DIGESTS = {
    4: "e517bc1cc3e1b5f71dd58df393b919e60d223aaa678f82c22fb6d0c5711df429",
    5: "c46401ade9f54a031deda017923f6f4fa794eea3478738d0b3afe653e5136895",
    6: "dfd50cd9c3869aff9f3c0d7f7f304253b94a1fe168419a6d9502a4a0e5bc0f71",
    7: "cf9d23e8d9f95e82427f48c51a07c670a2004eadb1b20ab7c8c554d382e204e9",
    8: "ec8fae996aa5750897e501d2391be97e7581470a5021d671933dc79b8da4a609",
    # within the default guard since line partitions are summed by column
    # type; the labelled sum took 15 to 24 s
    9: "3ae8d3079f2085f38ff014756c791be9d040e6cfb5c99da797179644e7d779e5",
}


@pytest.mark.parametrize("d", sorted(TABLE_DIGESTS))
def test_vpp_table_digest(capsys, d):
    assert run(["vpp-table", str(d)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[d]


def test_vpp_fiber_product():
    for n in [(3,), (2, 1), (0, 2), (1, 1, 2)]:
        assert vpp_fiber_product(len(n), [n]) == vpp(n), n
    for r in range(1, 6):
        assert vpp_fiber_product(r, []) == vpp_seam(r)
    # the factors' order does not matter
    assert vpp_fiber_product(2, [(2, 0), (1, 1)]) == vpp_fiber_product(
        2, [(1, 1), (2, 0)]
    )
    with pytest.raises(ValueError, match="carries no marks"):
        vpp_fiber_product(2, [(1, 1), (0, 0)])
    with pytest.raises(ValueError, match="negative"):
        vpp_fiber_product(2, [(2, -1)])
    with pytest.raises(ValueError, match="length"):
        vpp_fiber_product(2, [(1, 1, 1)])
    with pytest.raises(ValueError):
        vpp_fiber_product(0, [])


def test_basis_shortcut_matches_full_recursion():
    # _fiber answers the seam for single-mark factors without summing; the
    # full sum must agree on every multiset of unit vectors, in every ring,
    # so the shortcut also counts strata right.  Its recursive calls on fewer
    # lines take the shortcut, so by induction on r this covers the shortcut
    # at every depth the sum reaches.
    for ring in RINGS:
        for r in range(2, 6):
            units = [tuple(int(line == k) for line in range(r)) for k in range(r)]
            for k in range(1, 5):
                for factors in combinations_with_replacement(units, k):
                    full = vpp_module._fiber_sum(ring, r, tuple(sorted(factors)))
                    assert full == vpp_module._seam(ring, r), (ring, r, factors)


def _labelled_part_factor(ring, part, screens):
    """The factor of one part of labelled lines (numbered from 1)."""
    if len(part) > 1:
        subs = tuple(sorted(tuple(s[line - 1] for line in part) for s in screens))
        return vpp_module._fat_part(ring, len(part), subs)
    out = ring.constant(1)
    for s in screens:
        out = out * vpp_module._point_factor(ring, s[part[0] - 1])
    return out


def _labelled_all_root(ring, r, screens):
    """The sum over labelled set partitions of the lines, every term divided
    by q once per screen: the oracle for _all_root, which sums over column
    types and divides each part's factor."""
    factors = {}
    total = ring.constant(0)
    for parts in set_partitions(list(range(1, r + 1))):
        if len(parts) < 2:
            continue
        keys = [tuple(part) for part in parts]
        for key in keys:
            if key not in factors:
                factors[key] = _labelled_part_factor(ring, key, screens)
        prod = reduce(mul, (factors[key] for key in keys))
        total = total + ring.qconfig(len(parts)) * ring.divide(prod, len(screens))
    return total


def _weight(w):
    """A bounded weight as its bound and value, since Bounded has no
    equality."""
    return (w.bound, w.value) if isinstance(w, vpp_module.Bounded) else w


@st.composite
def screen_multisets(draw):
    """r lines and a sorted multiset of 1 to 4 screens, each with 0 to 2
    marks on every line and at least one in all, and a permutation of the
    lines.  At most 6 marks in all: the cost grows steeply with the marks,
    and three screens of 5 or 6 marks each take seconds in every ring."""
    r = draw(st.integers(2, 5))
    screen = st.tuples(*[st.integers(0, 2)] * r).filter(any)
    screens = draw(
        st.lists(screen, min_size=1, max_size=4).filter(lambda ss: sum(map(sum, ss)) <= 6)
    )
    return r, tuple(sorted(screens)), draw(st.permutations(range(r)))


@settings(max_examples=40, deadline=None)
@given(screen_multisets())
def test_all_root_matches_labelled_sum(case):
    r, screens, order = case
    relabelled = tuple(sorted(tuple(s[line] for line in order) for s in screens))
    for ring in RINGS + [vpp_module._bounded_ring(64, 1), vpp_module._bounded_ring(64, 0)]:
        typed = _weight(vpp_module._all_root(ring, r, screens))
        assert typed == _weight(_labelled_all_root(ring, r, screens)), (ring, screens)
        assert _weight(vpp_module._all_root(ring, r, relabelled)) == typed, (ring, order)


def _compositions(total):
    """Tuples of positive ints with the given sum."""
    if total == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, total + 1)
        for rest in _compositions(total - first)
    ]


def test_line_partitions_cover_the_set_partitions():
    # every partition of the lines into at least two parts is counted once:
    # the multiplicities add up to Bell(r) - 1, leaving out the single part
    for r in range(1, 7):
        bell = sum(1 for _ in set_partitions(range(r)))
        for counts in _compositions(r):
            parts, levels = vpp_module._line_partitions(counts)
            total = 0
            for k, terms in levels:
                assert k >= 2
                for indices, mult in terms:
                    assert len(indices) == k
                    lines = sorted(line for i in indices for line in parts[i])
                    assert lines == list(range(r)), (counts, indices)
                    total += mult
            assert total == bell - 1, counts
        # with every column distinct, the representatives are the labelled
        # set partitions themselves
        parts, levels = vpp_module._line_partitions((1,) * r)
        typed = sorted(
            (sorted(parts[i] for i in indices), mult)
            for _, terms in levels
            for indices, mult in terms
        )
        labelled = sorted(
            (sorted(map(tuple, blocks)), 1)
            for blocks in set_partitions(range(r))
            if len(blocks) >= 2
        )
        assert typed == labelled, r


@cache
def _hierarchy_distribution(ring, v):
    """The screen distribution summed hierarchy by hierarchy: the single
    screen (v,), or a fused level splitting v into at least two groups at
    distinct heights (weight qconfig(#groups)), each group presenting its
    own screens recursively."""
    out = {(v,): ring.constant(1)}
    for blocks, mult in vector_partitions(v):
        if len(blocks) < 2:
            continue
        weight = ring.constant(mult) * ring.qconfig(len(blocks))
        options = [_hierarchy_distribution(ring, b) for b in blocks]
        for screens, w in vpp_module._pool(options).items():
            term = weight * w
            out[screens] = out[screens] + term if screens in out else term
    return tuple(sorted(out.items(), key=lambda kv: kv[0]))


def _comparable(distribution):
    """The keys in order with their weights."""
    return [(key, _weight(w)) for key, w in distribution]


@pytest.mark.parametrize(
    "ring",
    RINGS + [vpp_module._bounded_ring(64, 1), vpp_module._bounded_ring(64, 0)],
    ids=[
        "poly", "bound", "kronecker", "dimension", "bounded-kronecker", "bounded-dimension"
    ],
)
def test_screen_distribution_closed_form(ring):
    # the hierarchies over k labelled screens are the trees _seam(k) sums, so
    # the closed form regroups the same products in every ring
    for length in range(1, 5):
        for v in product(range(3), repeat=length):
            if any(v):
                closed = vpp_module._screen_distribution(ring, v)
                oracle = _hierarchy_distribution(ring, v)
                assert _comparable(closed) == _comparable(oracle), v
    with pytest.raises(ValueError, match="carries no marks"):
        vpp_module._screen_distribution(ring, (0, 0))


def test_seam_polynomial_sums_the_stable_trees():
    # p_k sums the stable trees on k leaves, a vertex with c children
    # weighing qconfig(c); the enumerator takes the fusion trees above a
    # factor's k screens from the same list, so it lists the terms that the
    # dimension-marker ring counts
    for k in range(1, 7):
        trees = enumerate_stable_trees(k)
        total = UniPoly.zero()
        for tree in trees:
            term = UniPoly.one()
            for vertex in tree.interior_vertices():
                term = term * quotient_config_poly(tree.in_degree(vertex))
            total = total + term
        assert total == vpp_seam(k), k
        counts = [0] * (max(map(tree_dimension, trees)) + 1)
        for tree in trees:
            counts[tree_dimension(tree)] += 1
        assert counts == vpp_module._evaluate([(k, ())], 0)[0], k


def _types(max_size):
    """Every marked type with weakly increasing n and |n| + r <= max_size."""
    return [
        n
        for size in range(2, max_size + 1)
        for r in range(1, size)
        for n in vpp_module._ascending_vectors(r, size - r)
        if any(n)
    ]


def test_reference_backend_agrees():
    # the polynomial ring decoded from one big integer equals the schoolbook
    # recursion
    for n in _types(8):
        assert vpp_module._fiber(POLY, *vpp_module._job(n)) == vpp(n), n
    for r in range(1, 9):
        assert vpp_module._fiber(POLY, r, ()) == vpp_seam(r), r
    factors = ((0, 1, 1), (1, 1, 0), (2, 0, 1))
    assert vpp_module._fiber(POLY, 3, factors) == vpp_fiber_product(3, factors)


def test_stratum_counts_match_enumeration():
    cases = _types(7)
    assert len(cases) == 37
    for n in cases:
        assert stratum_counts(n) == f_vector(n), n
    with pytest.raises(ValueError, match="at least one mark"):
        stratum_counts((0, 0))


class _Skewed(IntRing):
    """config(1, 0) is q + 1 instead of q, so a screen over a single mark
    no longer divides out."""

    def config(self, ell, k):
        return super().config(ell, k) + (ell == 1 and k == 0)


@pytest.mark.parametrize(
    "make_ring",
    [
        lambda: _Skewed(64, 1),
        lambda: _Skewed(64, 0),
        lambda: vpp_module.BoundedRing(_Skewed(64, 1)),
    ],
    ids=["kronecker", "dimension", "bounded"],
)
def test_inexact_screen_division_raises(make_ring):
    # in the bounded ring the bound is far below the radix, so the remainder
    # is checked and a genuine one raises
    with pytest.raises(ValueError, match="not divisible by q\\^"):
        vpp_module._fiber(make_ring(), 2, ((1, 1),))


def test_too_small_radix_is_refused(monkeypatch):
    monkeypatch.setattr(vpp_module, "_radix_bits", lambda bound: 8)
    with pytest.raises(ValueError, match="radix 2\\^8 is too small"):
        vpp((2, 2))
    with pytest.raises(ValueError, match="radix 2\\^8 is too small"):
        stratum_counts((2, 2))


def _clear_caches():
    for value in vars(vpp_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_undersized_first_radix_retries(monkeypatch):
    # a first radix of 2^8 is too small for all three: the polynomial passes
    # abort at a division, the count pass ends with too large a bound, and
    # each runs again at the radix its bound asks for
    expected = (vpp((2, 2, 2, 2)), vpp_table(5), stratum_counts((2, 2)))
    radix_bits = vpp_module._radix_bits
    monkeypatch.setattr(
        vpp_module, "_radix_bits", lambda bound: 8 if bound == 0 else radix_bits(bound)
    )
    aborted_slopes = []
    divide = vpp_module.BoundedRing.divide

    def recording_divide(ring, value, screens):
        try:
            return divide(ring, value, screens)
        except vpp_module._RadixTooSmall:
            aborted_slopes.append(ring.ring.slope)
            raise

    monkeypatch.setattr(vpp_module.BoundedRing, "divide", recording_divide)
    _clear_caches()
    assert (vpp((2, 2, 2, 2)), vpp_table(5), stratum_counts((2, 2))) == expected
    assert set(aborted_slopes) == {1}
    # rings of 2^8 and 2^64 for both slopes
    assert vpp_module._bounded_ring.cache_info().currsize == 4


def test_aborted_passes_double_the_radix(monkeypatch):
    # with the tightest radix for each bound, starting at 2^1, every aborted
    # pass at least doubles K: at most 2 + log2(K_last / K_first) passes
    expected = vpp((2, 2, 2, 2))
    monkeypatch.setattr(vpp_module, "_radix_bits", lambda bound: bound.bit_length() + 1)
    passes = []
    bounded_ring = vpp_module._bounded_ring

    def recording(bits, slope):
        passes.append(bits)
        return bounded_ring(bits, slope)

    monkeypatch.setattr(vpp_module, "_bounded_ring", recording)
    _clear_caches()
    assert vpp((2, 2, 2, 2)) == expected
    assert passes[0] == 1
    assert all(b >= 2 * a for a, b in zip(passes, passes[1:-1]))
    assert len(passes) <= 2 + passes[-1].bit_length() - 1


@pytest.mark.parametrize("n", [(2, 2), (1, 2, 3)])
def test_one_recursion_pass(n):
    _clear_caches()
    vpp_module._fiber(vpp_module._int_ring(64, 1), *vpp_module._job(n))
    one_pass = vpp_module._fiber.cache_info().misses
    _clear_caches()
    vpp(n)
    assert vpp_module._fiber.cache_info().misses == one_pass


def test_schoolbook_arithmetic_stays_off_the_hot_path(monkeypatch, capsys):
    _clear_caches()

    def refuse(self, other):
        raise AssertionError("schoolbook UniPoly arithmetic in the recursion")

    monkeypatch.setattr(UniPoly, "__mul__", refuse)
    monkeypatch.setattr(UniPoly, "__add__", refuse)
    assert vpp((2, 2, 1)).degree == 10
    assert run(["vpp-table", "4"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[4]
    assert run(["fvector", "2,2"]) == 0
    assert capsys.readouterr().out == "[22, 37, 16, 1]\n"
