"""Tests for gluing polynomials, chart evaluation, inversion, transitions."""

import random
from fractions import Fraction

import pytest

from linestrata.charts import (
    StableCurve,
    default_slices,
    evaluate_chart,
    extract_q_factor,
    gluing_polynomial,
    invert_chart,
    normalize_to_slice,
    pinned_curve,
    transition_check,
)
from linestrata.trees import StableTree, enumerate_stable_trees, top_tree

fz = frozenset
F = Fraction


def left_comb():
    """((1 (3 4)) 2) with every screen pinned at (0, 1)."""
    tree = StableTree(4, [fz({1, 3, 4}), fz({3, 4})])
    slices = {
        fz({1, 2, 3, 4}): (fz({1, 3, 4}), fz({2})),
        fz({1, 3, 4}): (fz({1}), fz({3, 4})),
        fz({3, 4}): (fz({3}), fz({4})),
    }
    return tree, slices


def right_comb():
    """(1 (2 (3 4))) pinned to match the other chart of the same space."""
    tree = StableTree(4, [fz({2, 3, 4}), fz({3, 4})])
    slices = {
        fz({1, 2, 3, 4}): (fz({1}), fz({2, 3, 4})),
        fz({2, 3, 4}): (fz({3, 4}), fz({2})),
        fz({3, 4}): (fz({3}), fz({4})),
    }
    return tree, slices


# ---------------------------------------------------------------------------
# curves and gluing polynomials
# ---------------------------------------------------------------------------


def test_stable_curve_validation():
    tree = top_tree(3)
    StableCurve(tree, {tree.root: (0, 1, 2)})
    with pytest.raises(ValueError, match="coincident"):
        StableCurve(tree, {tree.root: (0, 1, 1)})
    with pytest.raises(ValueError, match="missing screens"):
        StableCurve(tree, {})
    with pytest.raises(ValueError, match="needs 3 positions"):
        StableCurve(tree, {tree.root: (0, 1)})


def test_gluing_polynomial_shapes():
    tree, slices = left_comb()
    curve = pinned_curve(tree, slices)
    root = tree.root
    # a direct child: constant
    assert str(gluing_polynomial(curve, root, 2)) == "1"
    assert str(gluing_polynomial(curve, root, 1)) == "0"
    # one level down: one melting variable
    assert str(gluing_polynomial(curve, root, 3)) == "b[1-3-4]"
    # two levels down: the product of the variables crossed
    assert str(gluing_polynomial(curve, root, 4)) == "b[1-3-4]*b[3-4] + b[1-3-4]"
    with pytest.raises(ValueError, match="at infinity"):
        gluing_polynomial(curve, fz({3, 4}), 1)


def test_json_round_trip():
    tree, slices = left_comb()
    curve = pinned_curve(tree, slices)
    assert StableCurve.from_json(curve.to_json()) == curve


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda data: [1], "curve must be a JSON object, got list"),
        (lambda data: {**data, "positions": [1]}, "positions must be a JSON object"),
        (
            lambda data: {**data, "positions": {"3-4": None}},
            "positions of 3-4 must be a list, got None",
        ),
        (
            lambda data: {**data, "positions": {"3-4": ["0", None]}},
            "expected a number or a fraction string, got None",
        ),
    ],
)
def test_from_json_refuses_malformed_shapes(edit, error):
    tree, slices = left_comb()
    data = pinned_curve(tree, slices).to_json()
    with pytest.raises(ValueError, match=error):
        StableCurve.from_json(edit(data))


def test_extract_q_factor():
    # root positions 0, 1, 3 with a nested pair: the pair separation factor
    # keeps a nonzero constant term
    tree = StableTree(4, [fz({2, 3})])
    curve = StableCurve(
        tree, {tree.root: (0, 1, 3), fz({2, 3}): (0, 1)}
    )
    q = extract_q_factor(curve, 3, 4)
    assert str(q) == "b[2-3] - 2"
    assert q.constant_term() != 0
    # leaves separated on the root screen: a constant
    assert str(extract_q_factor(curve, 1, 4)) == "-3"
    # nested pair: the shared prefix is stripped with the monomial content
    q23 = extract_q_factor(curve, 2, 3)
    assert q23.constant_term() != 0
    with pytest.raises(ValueError):
        extract_q_factor(curve, 2, 2)


def test_evaluate_chart_interior_point():
    tree, slices = left_comb()
    curve = pinned_curve(tree, slices)
    glued = evaluate_chart(
        curve, {fz({1, 3, 4}): F(1, 2), fz({3, 4}): F(1, 3)}, slices=slices
    )
    assert glued.tree == top_tree(4)
    assert glued.positions[glued.tree.root] == (F(0), F(1), F(1, 2), F(2, 3))


def test_evaluate_chart_boundary_keeps_vertex():
    tree, slices = left_comb()
    curve = pinned_curve(tree, slices)
    glued = evaluate_chart(
        curve, {fz({1, 3, 4}): F(1, 2), fz({3, 4}): 0}, slices=slices
    )
    assert fz({3, 4}) in glued.tree.brackets
    assert glued.positions[glued.tree.root] == (F(0), F(1), F(1, 2))
    assert glued.positions[fz({3, 4})] == (F(0), F(1))
    # zero everywhere is the identity
    same = evaluate_chart(curve, {fz({1, 3, 4}): 0, fz({3, 4}): 0})
    assert same == curve


def test_evaluate_chart_domain_exit():
    tree = StableTree(4, [fz({2, 3})])
    curve = StableCurve(tree, {tree.root: (0, 1, 3), fz({2, 3}): (0, 1)})
    # at b = 2 the third and fourth leaves collide
    with pytest.raises(ValueError, match="separating factor"):
        evaluate_chart(curve, {fz({2, 3}): 2})
    glued = evaluate_chart(curve, {fz({2, 3}): F(1, 2)})
    assert glued.positions[glued.tree.root] == (F(0), F(1), F(3, 2), F(3))


def test_evaluate_chart_validates_keys():
    tree, slices = left_comb()
    curve = pinned_curve(tree, slices)
    with pytest.raises(ValueError, match="exactly the non-root"):
        evaluate_chart(curve, {fz({3, 4}): 1})


# ---------------------------------------------------------------------------
# normalization and inversion
# ---------------------------------------------------------------------------


def test_normalize_to_slice():
    assert normalize_to_slice((2, 4, 6), (0, 1)) == (F(0), F(1), F(2))
    out = normalize_to_slice((2, 4, 6), (0, 1))
    assert normalize_to_slice(out, (0, 1)) == out
    with pytest.raises(ValueError, match="coincide"):
        normalize_to_slice((3, 3, 5), (0, 1))


def test_positions_refuse_bools():
    # a bool is not a number, as in every other chart input
    tree, slices = left_comb()
    for bad in (True, False):
        with pytest.raises(ValueError, match="expected a number"):
            normalize_to_slice((bad, 0, 2), (1, 2))
        with pytest.raises(ValueError, match="expected a number"):
            invert_chart(tree, slices, (0, bad, 2, 3))


def test_float_positions_read_as_their_decimal_text():
    assert normalize_to_slice((0.1, 0, 1), (1, 2)) == (F(1, 10), F(0), F(1))
    tree, slices = left_comb()
    decimal = invert_chart(tree, slices, ("0", "1", "1/10", "3/10"))
    assert invert_chart(tree, slices, (0, 1, 0.1, 0.3)) == decimal


def test_invert_chart_checks_its_slices():
    tree = StableTree(4, [fz({1, 2}), fz({3, 4})])
    slices = default_slices(tree)
    assert invert_chart(tree, slices, (0, 1, 2, 3))
    # the root pins two leaves, neither of them one of its children
    slices[fz({1, 2, 3, 4})] = (fz({1}), fz({3}))
    stray = r"pins \[1\], which is not one of its children"
    with pytest.raises(ValueError, match=stray):
        invert_chart(tree, slices, (0, 1, 2, 3))
    del slices[fz({1, 2, 3, 4})]
    with pytest.raises(ValueError, match=r"vertex \[1, 2, 3, 4\] has no slice"):
        invert_chart(tree, slices, (0, 1, 2, 3))


def test_invert_chart_requires_binary_tree():
    slices = default_slices(top_tree(4))
    with pytest.raises(ValueError, match="binary"):
        invert_chart(top_tree(4), slices, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="binary"):
        pinned_curve(top_tree(4), slices)


def test_invert_chart_round_trip_all_binary_trees():
    rng = random.Random(11)
    checked = 0
    for r in (3, 4, 5):
        for tree in enumerate_stable_trees(r):
            if any(tree.in_degree(v) != 2 for v in tree.interior_vertices()):
                continue
            slices = default_slices(tree)
            curve = pinned_curve(tree, slices)
            free = [v for v in tree.interior_vertices() if v != tree.root]
            trials = 0
            while trials < 5:
                b = {
                    v: F(rng.randint(-9, 9), rng.randint(1, 5)) for v in free
                }
                if any(x == 0 for x in b.values()):
                    continue
                try:
                    glued = evaluate_chart(curve, b)
                except ValueError:
                    trials += 1
                    continue
                if glued.tree != top_tree(r):
                    trials += 1
                    continue
                y = glued.positions[glued.tree.root]
                assert invert_chart(tree, slices, y) == b
                trials += 1
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# the worked transition between the two combs
# ---------------------------------------------------------------------------


def test_transition_closed_form():
    """Bridging the two charts: (r, s) -> ((1-r)/r, r s/(1-r))."""
    tree1, slices1 = left_comb()
    tree2, slices2 = right_comb()
    curve1 = pinned_curve(tree1, slices1)
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        r = F(rng.randint(-9, 9), rng.randint(1, 5))
        s = F(rng.randint(-9, 9), rng.randint(1, 5))
        if r in (0, 1) or s == 0:
            continue
        try:
            glued = evaluate_chart(
                curve1, {fz({1, 3, 4}): r, fz({3, 4}): s}, slices=slices1
            )
        except ValueError:
            # a genuine collision such as r + r s = 1; outside the domain
            continue
        if glued.tree != top_tree(4):
            continue
        y = glued.positions[glued.tree.root]
        assert y == (F(0), F(1), r, r + r * s)
        target = normalize_to_slice(y, (0, 2))
        b2 = invert_chart(tree2, slices2, target)
        assert b2[fz({2, 3, 4})] == (1 - r) / r
        assert b2[fz({3, 4})] == r * s / (1 - r)
        checked += 1


def test_transition_specific_point():
    tree1, slices1 = left_comb()
    tree2, slices2 = right_comb()
    curve1 = pinned_curve(tree1, slices1)
    glued = evaluate_chart(
        curve1, {fz({1, 3, 4}): F(1, 2), fz({3, 4}): F(1, 3)}, slices=slices1
    )
    y = glued.positions[glued.tree.root]
    target = normalize_to_slice(y, (0, 2))
    assert target == (F(0), F(2), F(1), F(4, 3))
    b2 = invert_chart(tree2, slices2, target)
    assert b2 == {fz({2, 3, 4}): F(1), fz({3, 4}): F(1, 3)}
    reglued = evaluate_chart(pinned_curve(tree2, slices2), b2, slices=slices2)
    assert tuple(reglued.positions[reglued.tree.root]) == target


def test_transition_boundary_extension():
    """At s = 0 both charts glue to the same partially-collapsed curve."""
    tree1, slices1 = left_comb()
    tree2, slices2 = right_comb()
    curve1 = pinned_curve(tree1, slices1)
    curve2 = pinned_curve(tree2, slices2)
    rng = random.Random(43)
    checked = 0
    while checked < 15:
        r = F(rng.randint(-9, 9), rng.randint(1, 5))
        if r in (0, 1):
            continue
        g1 = evaluate_chart(curve1, {fz({1, 3, 4}): r, fz({3, 4}): 0})
        g2 = evaluate_chart(
            curve2, {fz({2, 3, 4}): (1 - r) / r, fz({3, 4}): 0}
        )
        assert g1.tree == g2.tree
        assert fz({3, 4}) in g1.tree.brackets
        root = g1.tree.root
        assert normalize_to_slice(g1.positions[root], (0, 2)) == tuple(
            g2.positions[root]
        )
        assert g1.positions[fz({3, 4})] == g2.positions[fz({3, 4})]
        checked += 1


def test_transition_check_report():
    tree1, slices1 = left_comb()
    tree2, slices2 = right_comb()
    report = transition_check(tree1, slices1, tree2, slices2, samples=120, seed=7)
    assert report.samples == 120
    assert report.verified + report.skipped == 120
    assert report.verified >= 60
    # identity transition
    same = transition_check(tree1, slices1, tree1, slices1, samples=40, seed=3)
    assert same.verified + same.skipped == 40
    assert same.verified >= 20


@pytest.mark.parametrize(
    "vertex, pins, message",
    [
        (fz({1, 3, 4}), None, r"vertex \[1, 3, 4\] has no slice"),
        (
            fz({1, 3, 4}),
            (fz({3, 4}), fz({3, 4})),
            r"vertex \[1, 3, 4\] pins \[3, 4\] twice",
        ),
        (
            fz({1, 3, 4}),
            (fz({1}), fz({2})),
            r"vertex \[1, 3, 4\] pins \[2\], which is not",
        ),
        (
            fz({3, 4}),
            (fz({3, 4}), fz({4})),
            r"vertex \[3, 4\] pins \[3, 4\], which is not",
        ),
    ],
)
def test_bad_slices_are_rejected(vertex, pins, message):
    tree1, slices1 = left_comb()
    tree2, slices2 = right_comb()
    if pins is None:
        del slices1[vertex]
    else:
        slices1[vertex] = pins
    with pytest.raises(ValueError, match=message):
        pinned_curve(tree1, slices1)
    with pytest.raises(ValueError, match=message):
        transition_check(tree1, slices1, tree2, slices2, samples=5)


def _benchmark_transition_spec():
    import json
    from pathlib import Path

    from linestrata.cli import _parse_slices

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "transition_8.json"
    spec = json.loads(path.read_text())
    return (
        StableTree.from_nested(spec["tree1"]),
        _parse_slices(spec["slices1"]),
        StableTree.from_nested(spec["tree2"]),
        _parse_slices(spec["slices2"]),
    )


def test_transition_check_work_per_tree_does_not_grow_with_samples(monkeypatch):
    # the leaf-pair meets and the glued trees depend on the trees alone
    from linestrata import charts

    spec = _benchmark_transition_spec()
    calls = {"_meet": 0, "glue_tree": 0}

    def counted(name):
        original = getattr(charts, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(charts, name, counted(name))
    seen = []
    for samples in (50, 200):
        for name in calls:
            calls[name] = 0
        report = transition_check(*spec, samples=samples, seed=0)
        assert report.verified > 0
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    # one all-ones pattern per chart
    assert seen[0] == {"_meet": 0, "glue_tree": 2}


def test_evaluate_chart_glues_each_pattern_of_a_curve_once(monkeypatch):
    from linestrata import charts

    tree = StableTree(5, [fz({2, 3, 4}), fz({3, 4})])
    curve = StableCurve(
        tree,
        {fz({1, 2, 3, 4, 5}): (0, 1, 10), fz({2, 3, 4}): (0, 1), fz({3, 4}): (0, 1)},
    )
    glued = []
    original = charts.glue_tree

    def counting(t, assignment):
        glued.append(dict(assignment))
        return original(t, assignment)

    monkeypatch.setattr(charts, "glue_tree", counting)
    for _ in range(2):
        for x, y in [(1, 1), (0, 1), (1, 0), (0, 0), (F(1, 2), 3)]:
            b = {fz({2, 3, 4}): x, fz({3, 4}): y}
            result = evaluate_chart(curve, b)
            assert result.tree == original(tree, {v: int(c != 0) for v, c in b.items()})
    assert len(glued) == 4  # one per 0/1 pattern


def test_normalize_to_slice_matches_fraction_arithmetic():
    rng = random.Random(5)
    for _ in range(300):
        values = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)]
        if values[1] == values[3]:
            with pytest.raises(ValueError, match="pinned positions coincide"):
                normalize_to_slice(values, (1, 3))
            continue
        v0, v1 = values[1], values[3]
        expected = tuple((v - v0) / (v1 - v0) for v in values)
        out = normalize_to_slice(values, (1, 3))
        assert out == expected
        assert all(type(v) is F for v in out)
        # integers and strings are read as the same rationals
        assert normalize_to_slice([str(v) for v in values], (1, 3)) == expected


def _invert_with_fractions(tree, slices, y):
    """invert_chart written with Fraction arithmetic throughout."""

    def anchor(vertex):
        while len(vertex) > 1:
            vertex = slices[vertex][0]
        return next(iter(vertex)) - 1

    root = tree.root
    v0, v1 = F(y[anchor(slices[root][0])]), F(y[anchor(slices[root][1])])
    normalized = [(F(v) - v0) / (v1 - v0) for v in y]
    scale = {root: F(1)}
    out = {}
    for rho in tree.interior_vertices():
        if rho == root:
            continue
        s0, s1 = slices[rho]
        scale[rho] = normalized[anchor(s1)] - normalized[anchor(s0)]
        if scale[tree.parent(rho)] == 0:
            return None
        out[rho] = scale[rho] / scale[tree.parent(rho)]
    return out


def test_invert_chart_matches_fraction_arithmetic():
    rng = random.Random(7)
    collapsed = 0
    for tree in enumerate_stable_trees(5):
        if any(tree.in_degree(v) != 2 for v in tree.interior_vertices()):
            continue
        slices = {
            rho: tuple(rng.sample(tree.children(rho), 2))
            for rho in tree.interior_vertices()
        }
        for _ in range(10):
            # few values, so that screens often collapse
            y = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(5)]
            try:
                expected = _invert_with_fractions(tree, slices, y)
            except ZeroDivisionError:
                with pytest.raises(ValueError, match="pinned positions coincide"):
                    invert_chart(tree, slices, y)
                continue
            if expected is None:
                collapsed += 1
                with pytest.raises(ValueError, match="outside the invertible locus"):
                    invert_chart(tree, slices, y)
                continue
            out = invert_chart(tree, slices, y)
            assert out == expected
            assert all(type(v) is F for v in out.values())
    assert collapsed > 0
