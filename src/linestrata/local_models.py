"""A stratum's neighbourhood: its integer lattice model, local poset and gluing.

A stratum gets one lattice coordinate per non-root screen and one per
non-root interior seam bracket.  One walk over the screens gives the
sublattice of matching relations two ways (the raw matching vectors and a
triangular canonical set).  Each relation is a binomial, and the local poset
is the set of their 0/1 points, one per nearby stratum: the torus orbits of
an affine toric variety (Fulton, *Introduction to Toric Varieties*, 3.1).
A model's generators are one integer matrix, checked once and read as it
is.  Spans and saturation come from one integer diagonalisation; one pass
over the columns checks the incidence pattern and yields the witness plan,
whose difference-constraint systems certify nonnegative representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from ._combi import as_integer, as_integers
from .tree_pairs import Component, TreePair, two_bracketing_to_tree_pair

NEG_INF = -math.inf
POS_INF = math.inf

class IncidencePatternError(ValueError):
    """A generator matrix does not have the column-incidence shape needed
    to turn nonnegativity constraints into a difference-bound system."""


# ---------------------------------------------------------------------------
# lattice models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeModel:
    """A tuple of named integer coordinates plus relation generators.

    The generators are checked once, on construction, and kept as a tuple
    of int tuples, the one form every reader takes them in.  seam_columns
    marks which coordinates belong to seam brackets; rows with a +1 there
    are seam-contraction relations, which matters for the incidence
    analysis.  The incidence pattern (with the witness plan read off it)
    and the diagonal form depend on the model alone, so each is computed on
    first use and kept.
    """

    names: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]
    seam_columns: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be distinct")
        rows = tuple(as_integers(row, "generator entry") for row in self.generators)
        object.__setattr__(self, "generators", rows)
        for gen in self.generators:
            if len(gen) != len(self.names):
                raise ValueError("generator length does not match coordinate count")
        for col in self.seam_columns:
            if not 0 <= col < len(self.names):
                raise ValueError("seam column index out of range")

    @property
    def n_coords(self) -> int:
        return len(self.names)

    @cached_property
    def incidence(self):
        """:func:`_incidence` of the model; raises on a bad pattern."""
        return _incidence(self)

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        """:func:`_diagonal` of the generators."""
        return tuple(_diagonal(self.generators))


def _screen_walk(tp: TreePair):
    """The screens in walk order, addressed by walk index.

    Returns (screens, parent, split_above, groups): parent[i] is the index
    of the screen holding screen i (-1 at the root), split_above[i] the
    index of the first splitting screen strictly above it (-1 when there is
    none), and groups maps each bracket to the indices of the splitting
    screens over it, in walk order.
    """
    screens: list[Component] = []
    parent: list[int] = []
    split_above: list[int] = []
    groups: dict[frozenset, list[int]] = {}

    def visit(comp: Component, up: int, split: int) -> None:
        index = len(screens)
        screens.append(comp)
        parent.append(up)
        split_above.append(split)
        if comp.is_multi:
            groups.setdefault(comp.lines, []).append(index)
            split = index
        for child in comp.child_components():
            visit(child, index, split)

    visit(tp.root, -1, -1)
    return screens, parent, split_above, groups


def _path(parent: Sequence[int], start: int, stop: int) -> list[int]:
    """Walk indices from start (inclusive) up to its ancestor stop
    (exclusive)."""
    out = []
    while start != stop:
        if start < 0:
            raise AssertionError("stop screen is not an ancestor")
        out.append(start)
        start = parent[start]
    return out


def _merge_point(parent: Sequence[int], i: int, j: int) -> int:
    """First screen lying on both root-ward paths.  An ancestor comes before
    its descendants in walk order, so of two distinct screens the later one
    is no ancestor of the other and may step up."""
    while i != j:
        if i > j:
            i = parent[i]
        else:
            j = parent[j]
    return i


def _seam_relation(
    parent: Sequence[int], split_above: Sequence[int], alpha: int, bracket: frozenset
):
    """The seam coordinate of a splitting screen's bracket against the
    path from the screen up to the first splitting screen above."""
    above = split_above[alpha]
    if above < 0:
        raise AssertionError(
            "a splitting screen over a non-root bracket always sits under "
            "another splitting screen"
        )
    return (), _path(parent, alpha, above), bracket


def _lattice_model(
    tp: TreePair,
    screens: Sequence[Component],
    relations: Iterable[tuple[Sequence[int], Sequence[int], frozenset | None]],
) -> LatticeModel:
    """Write relations given by walk index as rows over the lattice
    coordinates: walk index i >= 1 is column i - 1, and the non-root
    interior seam brackets follow in preorder.

    A relation (plus, minus, seam) counts the screens in plus once each,
    those in minus minus once each, and the seam bracket, when there is
    one, once.
    """
    k = len(screens) - 1
    # The root screen (walk index 0) has no column; None makes a root in a
    # relation fail instead of writing to another coordinate.
    screen_col = [None, *range(k)]
    # the root comes first in preorder
    seam_col = {b: c for c, b in enumerate(tp.seam_tree.interior_vertices()[1:], k)}
    n_coords = k + len(seam_col)
    rows = []
    for plus, minus, seam in relations:
        vec = [0] * n_coords
        for i in plus:
            vec[screen_col[i]] += 1
        for i in minus:
            vec[screen_col[i]] -= 1
        if seam is not None:
            vec[seam_col[seam]] += 1
        rows.append(tuple(vec))
    names = [f"a{i}" for i in range(1, k + 1)]
    names.extend("b" + "-".join(map(str, sorted(b))) for b in seam_col)
    return LatticeModel(
        names=tuple(names),
        generators=tuple(rows),
        seam_columns=frozenset(seam_col.values()),
    )


def canonical_generators(tp: TreePair) -> LatticeModel:
    """Triangular generating set for the relation lattice, one generator per
    splitting screen except the last one over the root bracket.

    For a splitting screen that is not the last of its bracket (in walk
    order), the generator is the path difference between it and the next
    one, each path running up to the first splitting screen above (when
    those differ) or to the first shared screen.  For the last splitting
    screen over a non-root bracket, the generator trades the seam
    coordinate against the path up to the first splitting screen above.
    Rows are emitted in reverse walk order of their owners.
    """
    screens, parent, split_above, groups = _screen_walk(tp)
    root_lines = frozenset(range(1, tp.r + 1))
    owned = []
    for bracket, group in groups.items():
        for alpha, alpha2 in zip(group, group[1:]):
            stop1, stop2 = split_above[alpha], split_above[alpha2]
            if stop1 < 0 or stop2 < 0 or stop1 == stop2:
                stop1 = stop2 = _merge_point(parent, alpha, alpha2)
            owned.append(
                (alpha, (_path(parent, alpha, stop1), _path(parent, alpha2, stop2), None))
            )
        if bracket != root_lines:
            alpha = group[-1]
            owned.append((alpha, _seam_relation(parent, split_above, alpha, bracket)))
    owned.sort(key=lambda item: -item[0])
    return _lattice_model(tp, screens, [rel for _, rel in owned])


def coherence_generators(tp: TreePair) -> LatticeModel:
    """All matching relations: a path difference for every pair of splitting
    screens over the same bracket, and a seam-versus-path relation for every
    splitting screen over a non-root bracket."""
    return _coherence_model(tp, _screen_walk(tp))


def _coherence_model(tp: TreePair, walk) -> LatticeModel:
    """:func:`coherence_generators` from the stratum's :func:`_screen_walk`."""
    screens, parent, split_above, groups = walk
    root_lines = frozenset(range(1, tp.r + 1))
    relations = []
    for group in groups.values():
        for i, alpha in enumerate(group):
            for alpha2 in group[i + 1 :]:
                beta = _merge_point(parent, alpha, alpha2)
                relations.append(
                    (_path(parent, alpha, beta), _path(parent, alpha2, beta), None)
                )
    for alpha, comp in enumerate(screens):
        if comp.is_multi and comp.lines != root_lines:
            relations.append(_seam_relation(parent, split_above, alpha, comp.lines))
    return _lattice_model(tp, screens, relations)


# ---------------------------------------------------------------------------
# span comparison, saturation, relations
# ---------------------------------------------------------------------------


def _generator_rows(obj) -> Sequence[tuple[int, ...]]:
    """A model's checked rows, or a plain family's, checked here like a
    model's: a bool, float or string entry is refused, not truncated."""
    if isinstance(obj, LatticeModel):
        return obj.generators
    rows = tuple(as_integers(row, "generator entry") for row in obj)
    if len({len(r) for r in rows}) > 1:
        raise ValueError("generators have inconsistent lengths")
    return rows


def _pivot(matrix: list[list[int]]) -> tuple[int, int]:
    """Position of the first nonzero entry of least absolute value in
    row-major order.  The entries are almost all +-1, so the scan stops at
    the first row holding a unit."""
    for i, row in enumerate(matrix):
        if units := [row.index(u) for u in (1, -1) if u in row]:
            return i, min(units)
    _, i, j = min(
        (abs(v), i, j) for i, row in enumerate(matrix) for j, v in enumerate(row) if v
    )
    return i, j


def _diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonalise an integer matrix by unimodular row and column operations
    and return the absolute values of its nonzero diagonal entries: their
    number is the rank, their product the index of the row lattice in its
    saturation (Cohen, *A Course in Computational Algebraic Number Theory*,
    section 2.4).

    Each pass takes a nonzero entry of least absolute value as the pivot and
    reduces its column by row operations and its row by column operations.
    If both come out clean the pivot is recorded; otherwise a remainder
    smaller than the pivot is left, so the least entry strictly falls.
    """
    matrix = [list(row) for row in rows]
    diagonal: list[int] = []
    while matrix := [row for row in matrix if any(row)]:
        i, j = _pivot(matrix)
        pivot_row = matrix[i]
        pivot = pivot_row[j]
        clean = True
        for row in matrix:
            if row is not pivot_row and row[j]:
                q = row[j] // pivot
                for c, v in enumerate(pivot_row):
                    row[c] -= q * v
                clean = clean and not row[j]
        for c, v in enumerate(pivot_row):
            if c != j and v:
                q = v // pivot
                for row in matrix:
                    row[c] -= q * row[j]
                clean = clean and not pivot_row[c]
        if clean:
            diagonal.append(abs(pivot))
            pivot_row[j] = 0  # the pivot's row and column are now zero
    return diagonal


def _diagonal_of(obj, rows: Sequence[Sequence[int]]) -> Sequence[int]:
    """:func:`_diagonal` of a generator family read as rows; a model keeps its own."""
    return obj.diagonal if isinstance(obj, LatticeModel) else _diagonal(rows)


def lattice_span_equal(first, second) -> bool:
    """Whether two generator families span the same sublattice of Z^n.

    Accepts LatticeModel instances or plain iterables of integer vectors.
    Both families span sublattices of the lattice L their union spans.  At
    equal rank all three share a saturation, and a sublattice of L with
    the same index in it as L is L itself, so rank and index decide.
    """
    rows_a = [r for r in _generator_rows(first) if any(r)]
    rows_b = [r for r in _generator_rows(second) if any(r)]
    if rows_a and rows_b and len(rows_a[0]) != len(rows_b[0]):
        raise ValueError("generator families live in different ambient ranks")
    union = _diagonal(rows_a + rows_b)
    return all(
        len(d) == len(union) and math.prod(d) == math.prod(union)
        for d in (_diagonal_of(first, rows_a), _diagonal_of(second, rows_b))
    )


def lattice_is_saturated(model_or_generators) -> bool:
    """Whether the generated sublattice is saturated in Z^n (the quotient is
    torsion-free): every nonzero diagonal entry must be 1."""
    rows = _generator_rows(model_or_generators)
    return all(d == 1 for d in _diagonal_of(model_or_generators, rows))


def _monomial_string(factors: list[tuple[str, int]]) -> str:
    if not factors:
        return "1"
    parts = []
    for name, power in factors:
        parts.append(name if power == 1 else f"{name}^{power}")
    return "*".join(parts)


def model_defining_relations(model: LatticeModel) -> list[str]:
    """Render each generator as a binomial relation "negatives = positives".

    The generator (-1, 1, 0, -1, 1) over names (a, b, c, d, e) reads
    "a*d = b*e".  Zero generators contribute nothing.
    """
    relations = []
    for gen in model.generators:
        if not any(gen):
            continue
        neg = [(model.names[i], -e) for i, e in enumerate(gen) if e < 0]
        pos = [(model.names[i], e) for i, e in enumerate(gen) if e > 0]
        relations.append(f"{_monomial_string(neg)} = {_monomial_string(pos)}")
    return relations


# ---------------------------------------------------------------------------
# local poset and gluing
# ---------------------------------------------------------------------------


def _supports(model: LatticeModel) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each nonzero generator as (negative support, positive support), in
    the order of :func:`model_defining_relations`."""
    return [
        (
            tuple(i for i, e in enumerate(gen) if e < 0),
            tuple(i for i, e in enumerate(gen) if e > 0),
        )
        for gen in model.generators
        if any(gen)
    ]


def _first_broken(
    supports: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], x: Sequence[int]
) -> int | None:
    """Index of the first relation the 0/1 point x breaks, or None.  At a
    0/1 point a monomial is 1 exactly when its whole support is 1."""
    for k, (neg, pos) in enumerate(supports):
        if all(x[i] for i in neg) != all(x[i] for i in pos):
            return k
    return None


def local_poset_elements(tp: TreePair) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All coherent (q, r) in {0,1}: q over non-root screens in depth-first
    order, r over non-root interior seam vertices in depth-first order.
    These are the 0/1 points of the relations of
    :func:`coherence_generators`, one for each stratum near tp."""
    model = coherence_generators(tp)
    supports = _supports(model)
    n_r = len(model.seam_columns)
    return [
        (q, rv)
        for q in product((0, 1), repeat=model.n_coords - n_r)
        for rv in product((0, 1), repeat=n_r)
        if _first_broken(supports, q + rv) is None
    ]


def glue_tree_pair(tp: TreePair, q: Sequence[int], r: Sequence[int]) -> TreePair:
    """Glue: screens with q = 1 melt into their parents, seam vertices with
    r = 1 contract; (q, r) must be a 0/1 point of the relations of
    :func:`coherence_generators`.  The glued stratum's bracketing is the
    stratum's less the 2-brackets of the melted screens and the brackets of
    the contracted seam vertices."""
    walk = _screen_walk(tp)
    model = _coherence_model(tp, walk)
    n_r = len(model.seam_columns)
    n_q = model.n_coords - n_r
    qt = as_integers(q, "q entry")
    rt = as_integers(r, "r entry")
    if len(qt) != n_q or any(v not in (0, 1) for v in qt):
        raise ValueError(f"q must be a 0/1 vector of length {n_q}")
    if len(rt) != n_r or any(v not in (0, 1) for v in rt):
        raise ValueError(f"r must be a 0/1 vector of length {n_r}")
    broken = _first_broken(_supports(model), qt + rt)
    if broken is not None:
        relation = model_defining_relations(model)[broken]
        raise ValueError(f"incoherent gluing data: breaks {relation}")
    one, two = tp.two_bracketing
    # q runs over the non-root screens in walk order, r over the non-root
    # interior seam vertices in preorder
    contracted = (b for b, v in zip(tp.seam_tree.interior_vertices()[1:], rt) if v)
    melted = ((c.lines, c.subtree_marks()) for c, v in zip(walk[0][1:], qt) if v)
    return two_bracketing_to_tree_pair(
        tp.n, one.difference(contracted), two.difference(melted)
    )


# ---------------------------------------------------------------------------
# difference-constraint systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffConstraintSystem:
    """x_i - x_j >= c for index pairs i < j, plus box bounds.

    lower/upper entries are integers or the infinite sentinels NEG_INF and
    POS_INF.  Only the i < j direction of each difference may be bounded;
    that shape is what the elimination solver relies on.
    """

    n: int
    diffs: tuple[tuple[int, int, int], ...]
    lower: tuple[int | float, ...]
    upper: tuple[int | float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != self.n or len(self.upper) != self.n:
            raise ValueError("bound vectors must have length n")
        for i, j, _ in self.diffs:
            if not (0 <= i < j < self.n):
                raise ValueError(f"difference indices must satisfy 0 <= i < j < n, got ({i}, {j})")
        as_integers([c for _, _, c in self.diffs], "difference bound")
        bounds = (*self.lower, *self.upper)
        as_integers([v for v in bounds if v not in (NEG_INF, POS_INF)], "box bound")

    def satisfied_by(self, point: Sequence[int]) -> bool:
        if len(point) != self.n:
            return False
        for i, j, c in self.diffs:
            if point[i] - point[j] < c:
                return False
        for value, lo, hi in zip(point, self.lower, self.upper):
            if value < lo or value > hi:
                return False
        return True


@dataclass(frozen=True)
class SolveResult:
    solution: tuple[int, ...] | None
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def solve_difference_constraints(system: DiffConstraintSystem) -> SolveResult:
    """Solve by eliminating the last variable: pin it at its lower bound,
    fold the induced bounds into the earlier variables, and recurse.
    Variables with no finite lower bound are deferred and assigned last,
    as large as their caps allow (or 0 when uncapped).

    Because differences only constrain the i < j direction, infeasibility
    always surfaces as an emptied box, which is reported with the chain of
    folds that produced it.
    """
    n = system.n
    lower = list(system.lower)
    upper = list(system.upper)
    origin = [f"box lower bound {lo}" for lo in lower]
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, c in system.diffs:
        into[j].append((i, c))

    solution: list[int | None] = [None] * n
    deferred: list[int] = []
    for j in range(n - 1, -1, -1):
        if lower[j] > upper[j]:
            return SolveResult(
                None,
                reason=(
                    f"empty box for x{j + 1}: lower {lower[j]} exceeds upper "
                    f"{upper[j]} ({origin[j]})"
                ),
            )
        if lower[j] == NEG_INF:
            deferred.append(j)
            continue
        pinned = int(lower[j])
        solution[j] = pinned
        for i, c in into[j]:
            candidate = pinned + c
            if candidate > lower[i]:
                lower[i] = candidate
                origin[i] = f"x{i + 1} - x{j + 1} >= {c} with x{j + 1} = {pinned}"

    for j in sorted(deferred):
        caps = []
        if upper[j] != POS_INF:
            caps.append(int(upper[j]))
        for i, c in into[j]:
            value = solution[i]
            if value is None:
                raise AssertionError("a deferred variable depends on an unsolved one")
            caps.append(value - c)
        solution[j] = min(caps) if caps else 0

    final = tuple(int(v) for v in solution)  # type: ignore[arg-type]
    if not system.satisfied_by(final):
        raise AssertionError("solver produced an invalid assignment")
    return SolveResult(final)


# ---------------------------------------------------------------------------
# incidence analysis and saturation witnesses
# ---------------------------------------------------------------------------


def _incidence(model: LatticeModel):
    """Row signs and the witness plan of a canonical generator matrix.

    Validates the shape that makes nonnegativity solvable as differences:
    entries in {-1, 0, 1}; each seam column hit at most once, positively;
    each screen column hit at most twice.  Rows with a seam hit count as
    negated (their coefficient variable flips sign), after which every
    twice-hit column must carry +1 on the earlier row and -1 on the later.

    Returns (signs, (untouched, once, twice)), the plan telling how each
    coordinate of x enters a witness system, each list in column order:
    (column, name) for each column no generator touches, (column, row,
    entry) for each column one row touches, with the sign-adjusted entry,
    and (column, r1, r2) for each column two rows touch.
    """
    gens = model.generators
    for row, gen in enumerate(gens):
        for col, entry in enumerate(gen):
            if entry not in (-1, 0, 1):
                raise IncidencePatternError(
                    f"entry {entry} at row {row}, column {col} is not in -1..1"
                )

    signs = []
    for row, gen in enumerate(gens):
        seam_hits = [col for col in model.seam_columns if gen[col] != 0]
        if len(seam_hits) > 1:
            raise IncidencePatternError(f"row {row} touches several seam columns")
        if seam_hits and gen[seam_hits[0]] != 1:
            raise IncidencePatternError(
                f"row {row} must carry +1 on seam column {seam_hits[0]}"
            )
        signs.append(-1 if seam_hits else 1)

    untouched, once, twice = [], [], []
    for col in range(model.n_coords):
        touching = [
            (row, gen[col] * signs[row]) for row, gen in enumerate(gens) if gen[col]
        ]
        if col in model.seam_columns and len(touching) > 1:
            raise IncidencePatternError(f"seam column {col} is touched by several rows")
        if len(touching) > 2:
            raise IncidencePatternError(
                f"column {col} is touched by {len(touching)} rows"
            )
        if not touching:
            untouched.append((col, model.names[col]))
        elif len(touching) == 1:
            once.append((col, *touching[0]))
        else:
            (r1, e1), (r2, e2) = touching
            if (e1, e2) != (1, -1):
                raise IncidencePatternError(
                    f"column {col} has adjusted entries ({e1}, {e2}) on rows "
                    f"({r1}, {r2}); expected (1, -1)"
                )
            twice.append((col, r1, r2))
    return tuple(signs), (tuple(untouched), tuple(once), tuple(twice))


def build_witness_system(model: LatticeModel, x: Sequence[int]):
    """Translate "x plus an integer combination of the generators is
    coordinatewise nonnegative" into a difference-constraint system over the
    (sign-adjusted) combination coefficients.

    Returns (system, signs, violations) where violations lists coordinates
    that are negative yet untouched by every generator; the system is
    feasible together with empty violations exactly when a witness exists.
    A column touched once bounds its row's coefficient, one touched twice
    bounds the difference of its rows' (see :func:`_incidence`).
    """
    x = as_integers(x, "x entry")
    if len(x) != model.n_coords:
        raise ValueError("x must have one entry per coordinate")
    signs, (untouched, once, twice) = model.incidence
    m = len(model.generators)
    lower: list[int | float] = [NEG_INF] * m
    upper: list[int | float] = [POS_INF] * m
    for col, row, entry in once:
        if entry == 1:
            lower[row] = max(lower[row], -x[col])
        else:
            upper[row] = min(upper[row], x[col])
    violations = [
        f"coordinate {name} = {x[col]} is negative and no generator moves it"
        for col, name in untouched
        if x[col] < 0
    ]
    system = DiffConstraintSystem(
        n=m,
        diffs=tuple([(r1, r2, -x[col]) for col, r1, r2 in twice]),
        lower=tuple(lower),
        upper=tuple(upper),
    )
    return system, signs, tuple(violations)


def monoid_saturation_witness(
    model: LatticeModel, x: Sequence[int], k: int
) -> tuple[int, ...]:
    """Certify that x is representable as (nonnegative vector) modulo the
    generator lattice, given that k*x is.

    Returns coefficients b with x + sum(b[r] * generator[r]) >= 0.  Raises
    ValueError when k*x has no such representation (the precondition
    fails), and AssertionError in the impossible case that k*x has one
    while x does not.
    """
    x = as_integers(x, "x entry")
    if len(x) != model.n_coords:
        raise ValueError("x must have one entry per coordinate")
    k = as_integer(k, "k")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if all(v >= 0 for v in x):
        return (0,) * len(model.generators)

    def attempt(vec: tuple[int, ...]):
        system, signs, violations = build_witness_system(model, vec)
        if violations:
            return None, "; ".join(violations)
        result = solve_difference_constraints(system)
        if not result.feasible:
            return None, result.reason
        coeffs = tuple(v * s for v, s in zip(result.solution, signs))
        shifted = list(vec)
        for b, gen in zip(coeffs, model.generators):
            for col, entry in enumerate(gen):
                shifted[col] += b * entry
        if any(v < 0 for v in shifted):
            raise AssertionError("witness fails re-substitution")
        return coeffs, None

    coeffs, reason = attempt(x)
    if coeffs is not None:
        return coeffs
    scaled, scaled_reason = attempt(tuple(k * v for v in x))
    if scaled is None:
        raise ValueError(
            f"precondition failed: {k} * x is not representable: {scaled_reason}"
        )
    raise AssertionError(
        f"saturation violated for x = {x}: the scaled point is representable "
        f"but x is not ({reason})"
    )
