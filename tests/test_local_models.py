"""Tests for the integer lattice models and the difference-constraint solver.

Three hand-built strata serve as fixtures.  The first is the worked
1-dimensional stratum with seven screens whose 4x7 generator matrix and
difference system are frozen below; the other two are 0-dimensional strata,
one of which exercises the seam coordinate and the negated-row sign
pattern.  Each fixture also gives the paper's column order and names, which
``paper_model`` lays over the default model.
"""

import math
import random
import re

import pytest

from linestrata.local_models import (
    NEG_INF,
    POS_INF,
    DiffConstraintSystem,
    IncidencePatternError,
    LatticeModel,
    _incidence,
    _lattice_model,
    _path,
    _screen_walk,
    build_witness_system,
    canonical_generators,
    coherence_generators,
    lattice_coordinates,
    lattice_is_saturated,
    lattice_span_equal,
    local_poset_elements,
    model_defining_relations,
    monoid_saturation_witness,
    solve_difference_constraints,
)
from linestrata.tree_pairs import (
    Component,
    Mark,
    Seam,
    TreePair,
    enumerate_tree_pairs,
    stratum_dimension,
)
from linestrata.trees import StableTree, top_tree

fz = frozenset


def single(lines, children):
    return Component(
        lines=fz(lines),
        seams=(Seam(lines=fz(lines), children=tuple(children)),),
    )


def multi_two(mark_line, mark_index):
    """A screen splitting lines 1 and 2, carrying one mark."""
    return Component(
        lines=fz({1, 2}),
        seams=(
            Seam(
                lines=fz({1}),
                children=(Mark(mark_line, mark_index),) if mark_line == 1 else (),
            ),
            Seam(
                lines=fz({2}),
                children=(Mark(mark_line, mark_index),) if mark_line == 2 else (),
            ),
        ),
    )


def fixture_chain():
    """Seven screens in a chain of splittings: the worked 1-dimensional
    stratum of the (5,0) space."""
    mA = multi_two(1, 1)
    mf = multi_two(1, 2)
    me = multi_two(1, 3)
    md = multi_two(1, 4)
    mc = multi_two(1, 5)
    sb = single({1, 2}, (mf, me))
    sa = single({1, 2}, (md, mc))
    root = single({1, 2}, (mA, sb, sa))
    tp = TreePair(n=(5, 0), seam_tree=top_tree(2), root=root)
    coords = [
        ("comp", sa), ("comp", sb), ("comp", mc), ("comp", md),
        ("comp", me), ("comp", mf), ("comp", mA),
    ]
    names = ("a", "b", "c", "d", "e", "f", "A")
    return tp, coords, names


def fixture_balanced():
    """Two singles under the root, two splitting screens each: the
    0-dimensional stratum of the (4,0) space with a balanced shape."""
    mc = multi_two(1, 1)
    md = multi_two(1, 2)
    me = multi_two(1, 3)
    mf = multi_two(1, 4)
    sa = single({1, 2}, (mc, md))
    sb = single({1, 2}, (me, mf))
    root = single({1, 2}, (sa, sb))
    tp = TreePair(n=(4, 0), seam_tree=top_tree(2), root=root)
    coords = [
        ("comp", sa), ("comp", sb), ("comp", mc), ("comp", md),
        ("comp", me), ("comp", mf),
    ]
    names = ("a", "b", "c", "d", "e", "f")
    return tp, coords, names


def fixture_seam():
    """A 0-dimensional stratum of the (1,1,0) space whose seam tree has a
    non-root interior vertex: exercises the seam coordinate and the
    negated-row sign."""
    ts = StableTree(3, [fz({1, 2, 3}), fz({1, 2}),
                       fz({1}), fz({2}), fz({3})])
    md = Component(
        lines=fz({1, 2}),
        seams=(Seam(fz({1}), (Mark(1, 1),)), Seam(fz({2}), ())),
    )
    me = Component(
        lines=fz({1, 2}),
        seams=(Seam(fz({1}), ()), Seam(fz({2}), (Mark(2, 1),))),
    )
    qa = Component(
        lines=fz({1, 2, 3}),
        seams=(Seam(fz({1, 2}), (md,)), Seam(fz({3}), ())),
    )
    qb = Component(
        lines=fz({1, 2, 3}),
        seams=(Seam(fz({1, 2}), (me,)), Seam(fz({3}), ())),
    )
    root = single({1, 2, 3}, (qa, qb))
    tp = TreePair(n=(1, 1, 0), seam_tree=ts, root=root)
    coords = [
        ("comp", qa), ("comp", md), ("comp", qb), ("comp", me),
        ("seam", fz({1, 2})),
    ]
    names = ("a", "d", "b", "e", "c")
    return tp, coords, names


def paper_model(family, tp, coords, names):
    """family(tp) with its columns in the paper's order: coords, a
    permutation of lattice_coordinates(tp), named by names."""
    model = family(tp)
    position = {key: c for c, key in enumerate(lattice_coordinates(tp))}
    source = [position[key] for key in coords]
    assert sorted(source) == list(range(model.n_coords))
    return LatticeModel(
        names=tuple(names),
        generators=tuple(tuple(row[c] for c in source) for row in model.generators),
        seam_columns=frozenset(
            j for j, c in enumerate(source) if c in model.seam_columns
        ),
    )


# ---------------------------------------------------------------------------
# canonical generators
# ---------------------------------------------------------------------------


def test_chain_fixture_matrix():
    tp, coords, names = fixture_chain()
    model = paper_model(canonical_generators, tp, coords, names)
    assert model.names == names
    assert model.generators == (
        (0, 0, -1, 1, 0, 0, 0),
        (-1, 1, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, -1, 1, 0),
        (0, -1, 0, 0, 0, -1, 1),
    )
    assert model_defining_relations(model) == [
        "c = d", "a*d = b*e", "e = f", "b*f = A",
    ]
    assert model.seam_columns == frozenset()


def test_chain_fixture_witness_system():
    tp, coords, names = fixture_chain()
    model = paper_model(canonical_generators, tp, coords, names)
    system, signs, violations = build_witness_system(
        model, (10, 20, 30, 40, 50, 60, 70)
    )
    assert violations == ()
    assert signs == (1, 1, 1, 1)
    assert system.diffs == ((1, 3, -20), (0, 1, -40), (1, 2, -50), (2, 3, -60))
    assert system.lower == (NEG_INF, NEG_INF, NEG_INF, -70)
    assert system.upper == (30, 10, POS_INF, POS_INF)
    result = solve_difference_constraints(system)
    assert result.feasible
    assert system.satisfied_by(result.solution)


def test_chain_zero_vector_gives_zero_solution():
    tp, coords, names = fixture_chain()
    model = paper_model(canonical_generators, tp, coords, names)
    system, _, violations = build_witness_system(model, (0,) * 7)
    assert violations == ()
    result = solve_difference_constraints(system)
    assert result.solution == (0, 0, 0, 0)


def test_chain_span_and_saturation():
    tp, coords, names = fixture_chain()
    model = paper_model(canonical_generators, tp, coords, names)
    coherence = paper_model(coherence_generators, tp, coords, names)
    assert len(coherence.generators) == 10
    assert lattice_span_equal(model, coherence)
    assert lattice_is_saturated(model)


def test_balanced_fixture_relations():
    tp, coords, names = fixture_balanced()
    model = paper_model(canonical_generators, tp, coords, names)
    assert model_defining_relations(model) == ["f = e", "b*e = a*d", "d = c"]
    coherence = paper_model(coherence_generators, tp, coords, names)
    assert set(model_defining_relations(coherence)) == {
        "d = c", "b*e = a*c", "b*f = a*c", "b*e = a*d", "b*f = a*d", "f = e",
    }
    assert lattice_span_equal(model, coherence)
    assert lattice_is_saturated(model)


def test_seam_fixture_matrix_and_signs():
    tp, coords, names = fixture_seam()
    model = paper_model(canonical_generators, tp, coords, names)
    assert model.generators == (
        (0, 0, 0, -1, 1),
        (0, 1, 0, -1, 0),
        (1, 0, -1, 0, 0),
    )
    assert model.seam_columns == fz({4})
    assert model_defining_relations(model) == ["e = c", "e = d", "b = a"]
    signs, _ = _incidence(model)
    assert signs == (-1, 1, 1)


def test_seam_fixture_witness_system():
    tp, coords, names = fixture_seam()
    model = paper_model(canonical_generators, tp, coords, names)
    system, signs, violations = build_witness_system(model, (10, 20, 30, 40, 50))
    assert violations == ()
    assert system.diffs == ((0, 1, -40),)
    assert system.lower == (NEG_INF, -20, -10)
    assert system.upper == (50, POS_INF, 30)


def test_seam_fixture_witness_round_trip():
    tp, coords, names = fixture_seam()
    model = paper_model(canonical_generators, tp, coords, names)
    coeffs = monoid_saturation_witness(model, (1, 0, 2, 5, -2), 3)
    assert coeffs == (5, 0, -1)
    shifted = [1, 0, 2, 5, -2]
    for c, row in zip(coeffs, model.generators):
        shifted = [s + c * g for s, g in zip(shifted, row)]
    assert shifted == [0, 0, 3, 0, 3]


def test_witness_precondition_failure():
    tp, coords, names = fixture_seam()
    model = paper_model(canonical_generators, tp, coords, names)
    # not representable: the first two coordinates force more than the
    # budget the last one allows
    with pytest.raises(ValueError, match="precondition failed"):
        monoid_saturation_witness(model, (0, -3, 5, 3, -2), 2)


def test_witness_nonnegative_shortcut():
    tp, coords, names = fixture_seam()
    model = paper_model(canonical_generators, tp, coords, names)
    assert monoid_saturation_witness(model, (0, 1, 2, 0, 3), 4) == (0, 0, 0)


def test_default_order_models_are_pinned():
    # the default column order: non-root screens in walk order, then the
    # seam brackets; paper_model permutes from it, so pin it here
    tp, _, _ = fixture_seam()
    names = ("a1", "a2", "a3", "a4", "b1-2")
    canonical = canonical_generators(tp)
    assert canonical.names == names
    assert canonical.generators == (
        (0, 0, 0, -1, 1),
        (0, 1, 0, -1, 0),
        (1, 0, -1, 0, 0),
    )
    assert canonical.seam_columns == fz({4})
    coherence = coherence_generators(tp)
    assert coherence.names == names
    assert coherence.generators == (
        (1, 0, -1, 0, 0),
        (1, 1, -1, -1, 0),
        (0, -1, 0, 0, 1),
        (0, 0, 0, -1, 1),
    )
    assert coherence.seam_columns == fz({4})

    tp, _, _ = fixture_chain()
    names = ("a1", "a2", "a3", "a4", "a5", "a6", "a7")
    canonical = canonical_generators(tp)
    assert canonical.names == names
    assert canonical.generators == (
        (0, 0, 0, 0, 0, 1, -1),
        (0, 1, 0, 1, -1, -1, 0),
        (0, 0, 1, -1, 0, 0, 0),
        (1, -1, -1, 0, 0, 0, 0),
    )
    assert canonical.seam_columns == fz()
    coherence = coherence_generators(tp)
    assert coherence.names == names
    assert coherence.generators == (
        (1, -1, -1, 0, 0, 0, 0),
        (1, -1, 0, -1, 0, 0, 0),
        (1, 0, 0, 0, -1, -1, 0),
        (1, 0, 0, 0, -1, 0, -1),
        (0, 0, 1, -1, 0, 0, 0),
        (0, 1, 1, 0, -1, -1, 0),
        (0, 1, 1, 0, -1, 0, -1),
        (0, 1, 0, 1, -1, -1, 0),
        (0, 1, 0, 1, -1, 0, -1),
        (0, 0, 0, 0, 0, 1, -1),
    )
    assert coherence.seam_columns == fz()


def test_default_coordinates_cover_everything():
    tp, _, _ = fixture_seam()
    coords = lattice_coordinates(tp)
    kinds = [k for k, _ in coords]
    assert kinds.count("comp") == 4
    assert kinds.count("seam") == 1
    model = canonical_generators(tp)
    assert model.n_coords == 5
    assert len(model.names) == 5


def test_saturation_is_unimodular_invariant():
    tp, coords, names = fixture_chain()
    model = paper_model(canonical_generators, tp, coords, names)
    rows = [list(r) for r in model.generators]
    # add the first row to the second: same lattice
    rows[1] = [a + b for a, b in zip(rows[1], rows[0])]
    assert lattice_span_equal(model, rows)
    assert lattice_is_saturated(rows)


def test_lattice_checks_can_fail():
    assert not lattice_is_saturated([[2, 0]])
    assert not lattice_is_saturated([[1, 1], [1, -1]])  # index 2
    assert lattice_is_saturated([[1, 1], [1, 0]])
    assert lattice_is_saturated([])
    assert not lattice_span_equal([[1, 0]], [[2, 0]])
    assert not lattice_span_equal([[2, 0]], [[1, 0]])
    assert not lattice_span_equal([[1, 0]], [[0, 1]])  # same rank and index
    assert not lattice_span_equal([], [[1, 0]])
    assert not lattice_span_equal([[1, 0]], [[0, 0]])
    assert lattice_span_equal([], [[0, 0, 0]])
    assert lattice_span_equal([[1, 1], [1, -1]], [[2, 0], [1, 1], [0, 2]])


def test_lattice_checks_validate_shapes():
    with pytest.raises(ValueError, match="different ambient ranks"):
        lattice_span_equal([[1, 0]], [[1, 0, 0]])
    with pytest.raises(ValueError, match="inconsistent lengths"):
        lattice_is_saturated([[1, 0], [1]])


@pytest.mark.parametrize("entry", [1.5, True, "1", 1.0])
def test_generator_entries_must_be_integers(entry):
    # a bool, float or string entry is refused, not truncated: by the
    # lattice checks on a plain family, and by a model on construction, so
    # that every reader of a model sees the same integer rows
    message = re.escape(f"generator entry {entry!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        lattice_is_saturated([[entry, 0]])
    with pytest.raises(ValueError, match=message):
        lattice_span_equal([[entry, 0]], [[1, 0]])
    with pytest.raises(ValueError, match=message):
        lattice_span_equal([[1, 0]], [[0, 1], [entry, 0]])
    with pytest.raises(ValueError, match=message):
        LatticeModel(names=("a", "b"), generators=((entry, 0),))


def test_model_keeps_its_rows_as_int_tuples():
    model = LatticeModel(names=("a", "b"), generators=[[1, -1], (0, 0)])
    assert model.generators == ((1, -1), (0, 0))
    assert all(type(row) is tuple for row in model.generators)
    # the lattice checks read a model's rows as they are
    assert lattice_span_equal(model, [[1, -1]])
    assert lattice_is_saturated(model)


# ---------------------------------------------------------------------------
# incidence pattern and sweep over small 0-dimensional strata
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "generators, seam_columns, error",
    [
        (((2, 0),), (), "entry 2 at row 0, column 0 is not in -1..1"),
        (((1, 1, 1),), (1, 2), "row 0 touches several seam columns"),
        (((1, -1),), (1,), "row 0 must carry +1 on seam column 1"),
        (((1, 1), (0, 1)), (1,), "seam column 1 is touched by several rows"),
        (((1,), (1,), (-1,)), (), "column 0 is touched by 3 rows"),
        (
            ((-1,), (1,)),
            (),
            "column 0 has adjusted entries (-1, 1) on rows (0, 1); expected (1, -1)",
        ),
    ],
)
def test_incidence_pattern_violations(generators, seam_columns, error):
    names = tuple("abc"[: len(generators[0])])
    model = LatticeModel(names, generators, frozenset(seam_columns))
    with pytest.raises(IncidencePatternError, match=re.escape(error)):
        model.incidence


def sweep_types(limit):
    out = []
    for r in range(1, limit):
        for total in range(0, limit - r + 1):
            out.extend(_compositions(total, r))
    return [n for n in out if 0 < sum(n) and sum(n) + len(n) <= limit]


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def test_small_sweep_span_saturation_incidence():
    rng = random.Random(17)
    checked = 0
    for n in sweep_types(5):
        for tp in enumerate_tree_pairs(n):
            if stratum_dimension(tp) != 0:
                continue
            model = canonical_generators(tp)
            _incidence(model)  # raises on a pattern violation
            assert lattice_span_equal(model, coherence_generators(tp))
            assert lattice_is_saturated(model)
            for _ in range(10):
                base = [rng.randint(0, 4) for _ in range(model.n_coords)]
                for row in model.generators:
                    c = rng.randint(-3, 3)
                    base = [b - c * g for b, g in zip(base, row)]
                monoid_saturation_witness(model, tuple(base), rng.randint(2, 4))
            checked += 1
    assert checked > 20


def _reference_witness_system(model, x):
    """build_witness_system as one pass over the columns, each column's
    touching rows read off the generators and the row signs: the reference
    for the witness plan that the model's incidence pattern carries."""
    x = tuple(int(v) for v in x)
    signs, _ = model.incidence
    m = len(model.generators)
    lower = [NEG_INF] * m
    upper = [POS_INF] * m
    diffs = []
    violations = []
    for col in range(model.n_coords):
        value = x[col]
        touching = [
            (row, gen[col] * signs[row])
            for row, gen in enumerate(model.generators)
            if gen[col]
        ]
        if not touching:
            if value < 0:
                violations.append(
                    f"coordinate {model.names[col]} = {value} is negative and "
                    "no generator moves it"
                )
        elif len(touching) == 1:
            row, entry = touching[0]
            if entry == 1:
                lower[row] = max(lower[row], -value)
            else:
                upper[row] = min(upper[row], value)
        else:
            (r1, _), (r2, _) = touching
            diffs.append((r1, r2, -value))
    system = DiffConstraintSystem(
        n=m, diffs=tuple(diffs), lower=tuple(lower), upper=tuple(upper)
    )
    return system, signs, tuple(violations)


def test_witness_plan_matches_the_column_loop():
    # every 0-dimensional model with |n| + r <= 6, eight seeded points
    # each (12 776 in all, with the fixtures), entries of both signs so that
    # every branch of the plan is taken; no canonical row is bounded by two
    # columns of one sign, so a hand-built model has each row bounded twice
    models = [
        paper_model(canonical_generators, *fixture())
        for fixture in (fixture_chain, fixture_balanced, fixture_seam)
    ]
    models.append(
        LatticeModel(
            names=("a", "b", "c", "d", "e"),
            generators=((1, 1, -1, -1, 0), (0, 0, 0, 0, 0)),
        )
    )
    for n in sweep_types(6):
        models.extend(map(canonical_generators, enumerate_tree_pairs(n, dimension=0)))
    assert len(models) == 4 + 1593
    rng = random.Random(28)
    for model in models:
        for _ in range(8):
            x = tuple(rng.randint(-6, 6) for _ in range(model.n_coords))
            assert build_witness_system(model, x) == _reference_witness_system(
                model, x
            ), (model, x)
    # every kind of column occurs
    plans = [model.incidence[1] for model in models]
    assert all(any(plan[kind] for plan in plans) for kind in range(3))


def _zero_one_points(model):
    """The 0/1 points of a model's binomials, as bitmasks over its
    coordinates: a monomial is 1 there exactly when all of its support is."""
    supports = [
        (
            sum(1 << i for i, e in enumerate(gen) if e < 0),
            sum(1 << i for i, e in enumerate(gen) if e > 0),
        )
        for gen in model.generators
    ]
    return {
        x
        for x in range(1 << model.n_coords)
        if all((x & neg == neg) == (x & pos == pos) for neg, pos in supports)
    }


def test_generator_families_have_the_same_zero_one_points():
    # equal spans do not imply equal 0/1 points, so both are checked
    checked = 0
    for n in sweep_types(6):
        for tp in enumerate_tree_pairs(n):
            points = _zero_one_points(coherence_generators(tp))
            assert _zero_one_points(canonical_generators(tp)) == points, n
            poset = {
                sum(v << i for i, v in enumerate(q + r))
                for q, r in local_poset_elements(tp)
            }
            assert poset == points, n
            checked += 1
    assert checked == 4076


# ---------------------------------------------------------------------------
# difference-constraint solver
# ---------------------------------------------------------------------------


def test_solver_simple_feasible():
    system = DiffConstraintSystem(
        n=2, diffs=((0, 1, 2),), lower=(0, 0), upper=(5, 5)
    )
    result = solve_difference_constraints(system)
    assert result.feasible
    assert system.satisfied_by(result.solution)


def test_solver_infeasible_with_provenance():
    system = DiffConstraintSystem(
        n=2, diffs=((0, 1, 5),), lower=(0, 0), upper=(3, 3)
    )
    result = solve_difference_constraints(system)
    assert not result.feasible
    assert result.solution is None
    assert "x1 - x2 >= 5" in result.reason


def test_solver_validates_input():
    with pytest.raises(ValueError):
        DiffConstraintSystem(n=2, diffs=((1, 0, 2),), lower=(0, 0), upper=(1, 1))
    with pytest.raises(ValueError):
        DiffConstraintSystem(n=2, diffs=((0, 0, 2),), lower=(0, 0), upper=(1, 1))


def test_solver_bounds_must_be_integers():
    # bounds are integers or, in the box, the infinite sentinels; a bool or
    # float is refused like any other non-integer
    DiffConstraintSystem(n=2, diffs=((0, 1, -3),), lower=(NEG_INF, 0), upper=(1, POS_INF))
    for diffs, lower, upper, error in [
        (((0, 1, True),), (0, 0), (1, 1), "difference bound True"),
        (((0, 1, 2.0),), (0, 0), (1, 1), "difference bound 2.0"),
        ((), (False, 0), (1, 1), "box bound False"),
        ((), (0, 0), (1, 1.5), "box bound 1.5"),
    ]:
        with pytest.raises(ValueError, match=f"{error} is not an integer"):
            DiffConstraintSystem(n=2, diffs=diffs, lower=lower, upper=upper)


def test_witness_points_and_k_must_be_integers():
    # a non-integer point is refused, not truncated: (-0.5,) * 4 was once
    # read as 0 and certified by the zero witness
    tp = enumerate_tree_pairs((2, 1), dimension=0)[0]
    model = canonical_generators(tp)
    assert model.n_coords == 4
    with pytest.raises(ValueError, match=re.escape("x entry -0.5 is not an integer")):
        monoid_saturation_witness(model, (-0.5,) * 4, 2)
    with pytest.raises(ValueError, match=re.escape("x entry 1.7 is not an integer")):
        build_witness_system(model, (1.7, 0, 0, 0))
    with pytest.raises(ValueError, match="x entry True is not an integer"):
        build_witness_system(model, (True, 0, 0, 0))
    for k in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=re.escape(f"k {k!r} is not an integer")):
            monoid_saturation_witness(model, (-1, 0, 0, 0), k)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        monoid_saturation_witness(model, (-1, 0, 0, 0), 0)


def _brute_force_feasible(system, radius=None):
    """Search the integer box for a satisfying point."""
    lows, highs = [], []
    for lo, hi in zip(system.lower, system.upper):
        lows.append(int(lo) if lo != NEG_INF else -(radius or 8))
        highs.append(int(hi) if hi != POS_INF else (radius or 8))

    def rec(index, point):
        if index == system.n:
            return system.satisfied_by(point) and all(
                system.lower[i] <= point[i] <= system.upper[i]
                for i in range(system.n)
            )
        for v in range(lows[index], highs[index] + 1):
            if rec(index + 1, point + [v]):
                return True
        return False

    return rec(0, [])


def test_solver_against_brute_force_bounded():
    rng = random.Random(23)
    for _ in range(120):
        size = rng.randint(1, 5)
        diffs = []
        for _ in range(rng.randint(0, 6)):
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
        expected = _brute_force_feasible(system)
        assert result.feasible == expected, system
        if result.feasible:
            assert system.satisfied_by(result.solution)
            assert all(
                lower[i] <= result.solution[i] <= upper[i]
                for i in range(size)
            )


def test_solver_with_open_bounds():
    rng = random.Random(29)
    for _ in range(80):
        size = rng.randint(1, 4)
        diffs = []
        for _ in range(rng.randint(0, 5)):
            if size < 2:
                break
            i = rng.randint(0, size - 2)
            j = rng.randint(i + 1, size - 1)
            diffs.append((i, j, rng.randint(-4, 4)))
        lower = tuple(
            NEG_INF if rng.random() < 0.4 else rng.randint(-4, 0)
            for _ in range(size)
        )
        upper = tuple(
            POS_INF if rng.random() < 0.4 else rng.randint(0, 4)
            for _ in range(size)
        )
        system = DiffConstraintSystem(
            n=size, diffs=tuple(diffs), lower=lower, upper=upper
        )
        result = solve_difference_constraints(system)
        if result.feasible:
            assert system.satisfied_by(result.solution)
            assert all(
                (lower[i] == NEG_INF or lower[i] <= result.solution[i])
                and (upper[i] == POS_INF or result.solution[i] <= upper[i])
                for i in range(size)
            )
        else:
            # infeasible must also mean no point in a generous box
            assert not _brute_force_feasible(system, radius=8), system


def test_walk_index_guards_fail_loudly():
    # A stop that is not an ancestor ends at the root's -1, not in a loop.
    with pytest.raises(AssertionError, match="not an ancestor"):
        _path([-1, 0, 0], 2, 1)
    # The root screen has no coordinate, so a relation through it is refused.
    tp = next(tp for tp in enumerate_tree_pairs((1, 1)) if tp.dimension == 0)
    with pytest.raises(TypeError):
        _lattice_model(tp, _screen_walk(tp)[0], [((0,), (), None)])
