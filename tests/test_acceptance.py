"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
the captured output otherwise) and asserts the criterion at its stated
tolerance.  Runtime-sensitive criteria time themselves.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from linestrata.charts import (
    default_slices,
    evaluate_chart,
    invert_chart,
    normalize_to_slice,
    pinned_curve,
)
from linestrata.exact_poly import UniPoly
from linestrata.local_models import (
    NEG_INF,
    POS_INF,
    DiffConstraintSystem,
    _incidence,
    build_witness_system,
    canonical_generators,
    coherence_generators,
    glue_tree_pair,
    lattice_is_saturated,
    lattice_span_equal,
    local_poset_elements,
    monoid_saturation_witness,
    solve_difference_constraints,
)
from linestrata.tree_pairs import (
    enumerate_tree_pairs,
    f_vector,
    poset_leq_tree_pair,
    tree_pair_to_two_bracketing,
)
from linestrata.trees import (
    StableTree,
    enumerate_stable_trees,
    glue_tree,
    poset_leq_tree,
    top_tree,
)
from linestrata.vpp import vpp, vpp_by_strata, vpp_seam

from test_local_models import fixture_chain, paper_model

fz = frozenset
F = Fraction

TABLE = {
    # dimension 2
    (4,): [1, 0, 5, 0, 1],
    (0, 3): [1, 0, 5, 0, 1],
    (1, 2): [1, 0, 4, 0, 1],
    (0, 0, 2): [1, 0, 4, 0, 1],
    (0, 1, 1): [1, 0, 3, 0, 1],
    (0, 0, 0, 1): [1, 0, 5, 0, 1],
    # dimension 3
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


def _report(number: int, description: str, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} PASS: {description}{tail}")


def _report_fail(number: int, description: str) -> None:
    print(f"criterion {number:2d} FAIL: {description}")


def _types_up_to(total_budget: int):
    """All sorted type vectors with at least one mark and |n|+r within
    budget, one representative per permutation class."""
    out = []
    for r in range(1, total_budget):
        for n in combinations_with_replacement(range(0, total_budget), r):
            if 0 < sum(n) and sum(n) + r <= total_budget:
                out.append(n)
    return out


def _compositions_up_to(total_budget: int):
    """All type vectors (order matters) with at least one mark."""
    out = []

    def rec(prefix, remaining_parts):
        if remaining_parts == 0:
            if sum(prefix) > 0:
                out.append(tuple(prefix))
            return
        for value in range(0, total_budget):
            if sum(prefix) + value + len(prefix) + remaining_parts <= total_budget:
                rec(prefix + [value], remaining_parts - 1)

    for r in range(1, total_budget):
        rec([], r)
    return out


def test_criterion_01_table_reproduction():
    desc = "the sixteen dimension-2 and dimension-3 polynomials, bit-exact"
    try:
        start = time.perf_counter()
        for n, coeffs in TABLE.items():
            assert vpp(n) == UniPoly(coeffs), n
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"table took {elapsed:.1f}s"
    except BaseException:
        _report_fail(1, desc)
        raise
    _report(1, desc, f"{elapsed:.2f}s")


def test_criterion_02_low_dimensional_identifications():
    desc = "low-dimensional spaces match their classical models"
    try:
        x = UniPoly.x()
        one = UniPoly.one()
        assert vpp((2, 0)) == x ** 2 + one
        assert vpp((1, 1)) == x ** 2 + one
        # blowups of the quadric: 1 + (2+k) x^2 + x^4
        assert vpp((3, 0)) == UniPoly([1, 0, 5, 0, 1])
        assert vpp((2, 1)) == UniPoly([1, 0, 4, 0, 1])
        assert vpp((2, 0, 0)) == UniPoly([1, 0, 4, 0, 1])
        assert vpp((1, 1, 0)) == UniPoly([1, 0, 3, 0, 1])
    except BaseException:
        _report_fail(2, desc)
        raise
    _report(2, desc)


def test_criterion_03_codimension_one_counts():
    desc = "codimension-one stratum counts, including the corrected (2,1)"
    try:
        expected = {
            (2, 0): 2,
            (1, 1): 1,
            (3, 0): 8,
            (2, 0, 0): 7,
            (1, 1, 0): 5,
        }
        for n, count in expected.items():
            assert f_vector(n)[-2] == count, n
        # erratum: one reference figure quotes eight one-step degenerations
        # for (2,1); the enumeration gives five, consistent with the
        # f-vector sum and the polynomial identities
        assert f_vector((2, 1))[-2] == 5
        assert f_vector((2, 1))[-2] != 8
    except BaseException:
        _report_fail(3, desc)
        raise
    _report(3, desc)


def test_criterion_04_stratification_identity():
    desc = "stratum-sum polynomial equals the fiber recursion through d=3"
    try:
        cases = [n for n in _types_up_to(6) if sum(n) + len(n) >= 3]
        assert len(cases) >= 20
        for n in cases:
            assert vpp_by_strata(n) == vpp(n), n
    except BaseException:
        _report_fail(4, desc)
        raise
    _report(4, desc, f"{len(cases)} types")


def test_criterion_05_seam_consistency():
    desc = "seam-tree polynomial equals the pure-line types for r=2..8"
    try:
        for r in range(2, 9):
            assert vpp_seam(r) == vpp((r,)), r
        assert vpp_seam(4) == UniPoly([1, 0, 5, 0, 1])
        assert vpp_seam(5) == UniPoly([1, 0, 16, 0, 16, 0, 1])
    except BaseException:
        _report_fail(5, desc)
        raise
    _report(5, desc)


def test_criterion_06_seven_dimensional_performance():
    desc = "a 7-dimensional type computes quickly with the right shape"
    try:
        start = time.perf_counter()
        p = vpp((4, 4))
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"vpp((4,4)) took {elapsed:.1f}s"
        assert p.degree == 14
        assert p[14] == 1 and p[0] == 1
        assert all(p[k] >= 0 for k in range(15))
    except BaseException:
        _report_fail(6, desc)
        raise
    _report(6, desc, f"{elapsed:.2f}s")


def test_criterion_07_local_models_sweep():
    desc = "all small 0-dimensional lattice models: span, saturation, " \
           "incidence, witnesses; worked example reproduced"
    try:
        # the worked 1-dimensional example: frozen generator matrix and
        # difference system
        tp, coords, names = fixture_chain()
        model = paper_model(canonical_generators, tp, coords, names)
        assert model.generators == (
            (0, 0, -1, 1, 0, 0, 0),
            (-1, 1, 0, -1, 1, 0, 0),
            (0, 0, 0, 0, -1, 1, 0),
            (0, -1, 0, 0, 0, -1, 1),
        )
        system, signs, violations = build_witness_system(
            model, (10, 20, 30, 40, 50, 60, 70)
        )
        assert violations == ()
        assert signs == (1, 1, 1, 1)
        assert system.diffs == (
            (1, 3, -20), (0, 1, -40), (1, 2, -50), (2, 3, -60)
        )
        assert system.lower == (NEG_INF, NEG_INF, NEG_INF, -70)
        assert system.upper == (30, 10, POS_INF, POS_INF)

        rng = random.Random(2024)
        models = 0
        for n in _compositions_up_to(6):
            for tp in enumerate_tree_pairs(n, dimension=0):
                lattice = canonical_generators(tp)
                _incidence(lattice)  # raises on any pattern violation
                assert lattice_span_equal(lattice, coherence_generators(tp))
                assert lattice_is_saturated(lattice)
                for _ in range(200):
                    base = [
                        rng.randint(0, 4) for _ in range(lattice.n_coords)
                    ]
                    for row in lattice.generators:
                        c = rng.randint(-3, 3)
                        base = [b - c * g for b, g in zip(base, row)]
                    coeffs = monoid_saturation_witness(
                        lattice, tuple(base), rng.randint(2, 4)
                    )
                    shifted = list(base)
                    for coeff, gen in zip(coeffs, lattice.generators):
                        for col, entry in enumerate(gen):
                            shifted[col] += coeff * entry
                    assert all(v >= 0 for v in shifted)
                models += 1
        assert models >= 500
        assert models == 1593
    except BaseException:
        _report_fail(7, desc)
        raise
    _report(7, desc, f"{models} models x 200 witnesses")


def test_criterion_08_solver_against_brute_force():
    desc = "difference solver agrees with exhaustive box search on 500 systems"
    try:
        rng = random.Random(71)
        agreements = 0
        for _ in range(500):
            size = rng.randint(1, 5)
            diffs = []
            for _ in range(rng.randint(0, 2 * size)):
                if size < 2:
                    break
                i = rng.randint(0, size - 2)
                j = rng.randint(i + 1, size - 1)
                diffs.append((i, j, rng.randint(-4, 4)))
            lower = tuple(rng.randint(-4, 0) for _ in range(size))
            upper = tuple(rng.randint(0, 4) for _ in range(size))
            system = DiffConstraintSystem(
                n=size, diffs=tuple(diffs), lower=lower, upper=upper
            )
            result = solve_difference_constraints(system)

            def box_search():
                def rec(index, point):
                    if index == size:
                        return system.satisfied_by(point)
                    for v in range(int(lower[index]), int(upper[index]) + 1):
                        if rec(index + 1, point + [v]):
                            return True
                    return False

                return rec(0, [])

            assert result.feasible == box_search(), system
            if result.feasible:
                assert system.satisfied_by(result.solution)
                assert all(
                    lower[i] <= result.solution[i] <= upper[i]
                    for i in range(size)
                )
            agreements += 1
        assert agreements == 500
    except BaseException:
        _report_fail(8, desc)
        raise
    _report(8, desc)


def test_criterion_09_chart_transitions_and_inversion():
    desc = "worked transition closed form plus exact inversion round trips"
    try:
        # the two comb charts of the 4-line space
        tree1 = StableTree(4, [fz({1, 3, 4}), fz({3, 4})])
        slices1 = {
            fz({1, 2, 3, 4}): (fz({1, 3, 4}), fz({2})),
            fz({1, 3, 4}): (fz({1}), fz({3, 4})),
            fz({3, 4}): (fz({3}), fz({4})),
        }
        tree2 = StableTree(4, [fz({2, 3, 4}), fz({3, 4})])
        slices2 = {
            fz({1, 2, 3, 4}): (fz({1}), fz({2, 3, 4})),
            fz({2, 3, 4}): (fz({3, 4}), fz({2})),
            fz({3, 4}): (fz({3}), fz({4})),
        }
        curve1 = pinned_curve(tree1, slices1)
        curve2 = pinned_curve(tree2, slices2)
        rng = random.Random(97)
        checked = 0
        while checked < 100:
            r = F(rng.randint(-12, 12), rng.randint(1, 6))
            s = F(rng.randint(-12, 12), rng.randint(1, 6))
            if r in (0, 1) or s == 0:
                continue
            try:
                glued = evaluate_chart(
                    curve1, {fz({1, 3, 4}): r, fz({3, 4}): s}
                )
            except ValueError:
                continue
            if glued.tree != top_tree(4):
                continue
            y = glued.positions[glued.tree.root]
            target = normalize_to_slice(y, (0, 2))
            b2 = invert_chart(tree2, slices2, target)
            assert b2[fz({2, 3, 4})] == (1 - r) / r
            assert b2[fz({3, 4})] == r * s / (1 - r)
            checked += 1
        # the s = 0 boundary extension, exactly
        boundary = 0
        while boundary < 20:
            r = F(rng.randint(-12, 12), rng.randint(1, 6))
            if r in (0, 1):
                continue
            g1 = evaluate_chart(curve1, {fz({1, 3, 4}): r, fz({3, 4}): 0})
            g2 = evaluate_chart(
                curve2, {fz({2, 3, 4}): (1 - r) / r, fz({3, 4}): 0}
            )
            assert g1.tree == g2.tree
            root = g1.tree.root
            assert normalize_to_slice(g1.positions[root], (0, 2)) == tuple(
                g2.positions[root]
            )
            assert g1.positions[fz({3, 4})] == g2.positions[fz({3, 4})]
            boundary += 1

        # inversion round trips on every binary tree with up to five leaves
        trees_checked = 0
        for r_leaves in (3, 4, 5):
            for tree in enumerate_stable_trees(r_leaves):
                if any(
                    tree.in_degree(v) != 2 for v in tree.interior_vertices()
                ):
                    continue
                slices = default_slices(tree)
                curve = pinned_curve(tree, slices)
                free = [
                    v for v in tree.interior_vertices() if v != tree.root
                ]
                successes = 0
                attempts = 0
                while successes < 50 and attempts < 400:
                    attempts += 1
                    b = {
                        v: F(rng.randint(-9, 9), rng.randint(1, 5))
                        for v in free
                    }
                    if any(x == 0 for x in b.values()):
                        continue
                    try:
                        glued = evaluate_chart(curve, b)
                    except ValueError:
                        continue
                    if glued.tree != top_tree(r_leaves):
                        continue
                    y = glued.positions[glued.tree.root]
                    assert invert_chart(tree, slices, y) == b
                    successes += 1
                assert successes == 50, (tree, successes)
                trees_checked += 1
        assert trees_checked == 3 + 15 + 105
    except BaseException:
        _report_fail(9, desc)
        raise
    _report(9, desc, f"{trees_checked} binary trees x 50 samples")


def test_criterion_10_glue_maps_are_interval_embeddings():
    desc = "gluing is an order embedding onto the upward interval"
    try:
        # trees, exhaustively through five leaves
        for r in range(2, 6):
            trees = enumerate_stable_trees(r)
            for tree in trees:
                free = [
                    v for v in tree.interior_vertices() if v != tree.root
                ]
                images = {}
                for bits in range(1 << len(free)):
                    assignment = {
                        v: (bits >> k) & 1 for k, v in enumerate(free)
                    }
                    images[bits] = glue_tree(tree, assignment)
                assert len(set(images.values())) == len(images)
                for x in images:
                    for y in images:
                        assert ((x & y) == x) == poset_leq_tree(
                            images[x], images[y]
                        )
                interval = {
                    other for other in trees if poset_leq_tree(tree, other)
                }
                assert set(images.values()) == interval

        # tree pairs, exhaustively for every small type; intervals use the
        # same double-containment comparison as poset_leq_tree_pair, with
        # the bracketings computed once per stratum
        pairs_checked = 0
        for n in _compositions_up_to(6):
            strata = enumerate_tree_pairs(n)
            keys = {tp: tree_pair_to_two_bracketing(tp) for tp in strata}
            for tp in strata:
                elements = local_poset_elements(tp)
                images = {}
                for q, rv in elements:
                    images[(q, rv)] = glue_tree_pair(tp, q, rv)
                assert len(set(images.values())) == len(images)
                for x in elements:
                    for y in elements:
                        bitwise = all(
                            a <= b for a, b in zip(x[0], y[0])
                        ) and all(a <= b for a, b in zip(x[1], y[1]))
                        assert bitwise == poset_leq_tree_pair(
                            images[x], images[y]
                        ), (n, x, y)
                one, two = keys[tp]
                interval = {
                    other
                    for other in strata
                    if one >= keys[other][0] and two >= keys[other][1]
                }
                assert set(images.values()) == interval, n
                pairs_checked += 1
    except BaseException:
        _report_fail(10, desc)
        raise
    _report(10, desc, f"{pairs_checked} strata")
