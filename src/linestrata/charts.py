"""Chart evaluation, inversion, transition checks, and gluing polynomials.

A chart takes a boundary stratum (a stable tree with slice-pinned screen
positions) plus one gluing coordinate per non-root interior vertex, and
produces the glued configuration.  Everything here is exact rational
arithmetic.  The commands run the numeric chart maps; the gluing
polynomials leave the coordinates symbolic, as polynomials in the
b-variables, and are the oracle the numeric maps are tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import isfinite
from typing import TYPE_CHECKING, Mapping, Sequence

from .trees import Bracket, StableTree, glue_tree

if TYPE_CHECKING:
    from .exact_poly import MultiPoly


def _fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value  # immutable, so no copy is needed
    if not isinstance(value, bool):  # JSON true and false are not numbers
        if isinstance(value, float) and isfinite(value):
            value = repr(value)  # its decimal text, so that 0.1 reads as 1/10
        try:
            return Fraction(value)
        except (TypeError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"expected a number or a fraction string, got {value!r}")


def vertex_label(vertex: Bracket) -> str:
    return "-".join(str(i) for i in sorted(vertex))


def parse_vertex_label(label: object) -> Bracket:
    """The vertex named by a :func:`vertex_label` string such as "1-3-4"."""
    try:
        return frozenset(int(p) for p in label.split("-"))
    except (AttributeError, ValueError):  # not a string, or not of that form
        raise ValueError(f'expected a vertex label such as "1-3-4", got {label!r}')


def json_object(data: object, what: str) -> Mapping:
    """data, checked to be a JSON object; `what` names it in the error."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def json_entry(data: Mapping, key: str, what: str) -> object:
    if key not in data:
        raise ValueError(f'{what} has no "{key}" entry')
    return data[key]


def _b_variable(vertex: Bracket) -> str:
    return f"b[{vertex_label(vertex)}]"


def _as_vertex(tree: StableTree, v) -> Bracket:
    if isinstance(v, int):
        v = frozenset({v})
    v = frozenset(v)
    if v not in tree.brackets:
        raise KeyError(f"{sorted(v)} is not a vertex of the tree")
    return v


def _meet(tree: StableTree, u: Bracket, v: Bracket) -> Bracket:
    """The deepest vertex holding both u and v: the first vertex on the
    way up from u that contains v."""
    while not v <= u:
        u = tree.parent(u)
    return u


def default_slices(tree: StableTree) -> dict[Bracket, tuple[Bracket, Bracket]]:
    """Per interior vertex, the two children pinned to 0 and 1: by default
    the first two in smallest-leaf order."""
    return {
        rho: (tree.children(rho)[0], tree.children(rho)[1])
        for rho in tree.interior_vertices()
    }


@dataclass
class StableCurve:
    """A stable tree together with one screen of positions per interior
    vertex, aligned with the child order of that vertex.

    The trees :func:`evaluate_chart` glues the curve's tree to are kept
    with the curve, keyed by the set of contracted vertices, so that each
    is built once.
    """

    tree: StableTree
    positions: dict[Bracket, tuple[Fraction, ...]]
    _glued: dict[frozenset[Bracket], StableTree] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        cleaned: dict[Bracket, tuple[Fraction, ...]] = {}
        interior = set(self.tree.interior_vertices())
        for key, values in self.positions.items():
            key = frozenset(key)
            if key not in interior:
                raise ValueError(f"{sorted(key)} is not an interior vertex")
            values = tuple(_fraction(v) for v in values)
            if len(values) != self.tree.in_degree(key):
                raise ValueError(
                    f"screen at {sorted(key)} needs "
                    f"{self.tree.in_degree(key)} positions"
                )
            if len(set(values)) != len(values):
                raise ValueError(f"screen at {sorted(key)} has coincident positions")
            cleaned[key] = values
        missing = interior - set(cleaned)
        if missing:
            raise ValueError(
                f"missing screens: {sorted(sorted(b) for b in missing)}"
            )
        self.positions = cleaned

    @classmethod
    def _checked(
        cls, tree: StableTree, positions: dict[Bracket, tuple[Fraction, ...]]
    ) -> "StableCurve":
        """A curve from positions its caller built in the form __post_init__
        leaves them in, and checked: one screen per interior vertex, keyed by
        the vertex, of distinct Fractions in the vertex's child order."""
        curve = cls.__new__(cls)
        curve.tree, curve.positions, curve._glued = tree, positions, {}
        return curve

    def to_json(self) -> dict:
        return {
            "tree": self.tree.to_nested(),
            "positions": {
                vertex_label(v): [str(x) for x in xs]
                for v, xs in sorted(self.positions.items(), key=lambda kv: sorted(kv[0]))
            },
        }

    @classmethod
    def from_json(cls, data: object) -> "StableCurve":
        """Parse :meth:`to_json` output; a malformed shape is a ValueError."""
        data = json_object(data, "curve")
        nested = json_entry(data, "tree", "curve")
        entries = json_entry(data, "positions", "curve")
        tree = StableTree.from_nested(nested)
        positions = {}
        for label, values in json_object(entries, "positions").items():
            if not isinstance(values, list):
                raise ValueError(f"positions of {label} must be a list, got {values!r}")
            positions[parse_vertex_label(label)] = values
        return cls(tree, positions)


def validate_slices(
    tree: StableTree, slices: Mapping
) -> dict[Bracket, tuple[Bracket, Bracket]]:
    """The slices as vertices of the tree, each checked to pin two distinct
    children of an interior vertex.  A vertex not in the tree is a KeyError."""
    out = {}
    for rho, (s0, s1) in slices.items():
        rho, s0, s1 = (_as_vertex(tree, v) for v in (rho, s0, s1))
        children = tree.children(rho)
        if not children:
            raise ValueError(f"slice of vertex {sorted(rho)}: a leaf has no slice")
        for pin in (s0, s1):
            if pin not in children:
                raise ValueError(
                    f"slice of vertex {sorted(rho)} pins {sorted(pin)}, "
                    "which is not one of its children"
                )
        if s0 == s1:
            raise ValueError(f"slice of vertex {sorted(rho)} pins {sorted(s0)} twice")
        out[rho] = (s0, s1)
    return out


def _complete_slices(
    tree: StableTree, slices: Mapping
) -> dict[Bracket, tuple[Bracket, Bracket]]:
    """:func:`validate_slices`, with a slice for every interior vertex."""
    slices = validate_slices(tree, slices)
    for rho in tree.interior_vertices():
        if rho not in slices:
            raise ValueError(f"vertex {sorted(rho)} has no slice")
    return slices


def pinned_curve(
    tree: StableTree, slices: Mapping[Bracket, tuple[Bracket, Bracket]]
) -> StableCurve:
    """The fully-pinned curve of a 0-dimensional (binary) tree: every screen
    holds exactly the two slice children, at 0 and 1."""
    slices = _complete_slices(tree, slices)
    positions = {}
    for rho in tree.interior_vertices():
        children = tree.children(rho)
        if len(children) != 2:
            raise ValueError(
                f"vertex {sorted(rho)} has {len(children)} children; "
                "a fully pinned curve needs a binary tree"
            )
        s0, s1 = slices[rho]
        values = [None, None]
        values[children.index(s0)] = Fraction(0)
        values[children.index(s1)] = Fraction(1)
        positions[rho] = tuple(values)
    return StableCurve(tree, positions)


def check_slices(curve: StableCurve, slices: Mapping[Bracket, tuple[Bracket, Bracket]]) -> None:
    for rho, (s0, s1) in validate_slices(curve.tree, slices).items():
        children = curve.tree.children(rho)
        screen = curve.positions[rho]
        if screen[children.index(s0)] != 0:
            raise ValueError(f"slice child {sorted(s0)} of {sorted(rho)} is not at 0")
        if screen[children.index(s1)] != 1:
            raise ValueError(f"slice child {sorted(s1)} of {sorted(rho)} is not at 1")


# ---------------------------------------------------------------------------
# gluing polynomials
# ---------------------------------------------------------------------------


def gluing_polynomial(curve: StableCurve, rho, sigma) -> MultiPoly:
    """Position of sigma as seen from screen rho, as a polynomial in the
    gluing variables of the vertices strictly between them.

    Walking down from rho toward sigma, each step contributes the local
    position scaled by the product of the b-variables crossed so far.
    """
    # the symbolic ring is the oracle's alone, so the chart commands,
    # which evaluate numerically, never load it
    from .exact_poly import MultiPoly

    tree = curve.tree
    rho = _as_vertex(tree, rho)
    sigma = _as_vertex(tree, sigma)
    if not sigma < rho:
        raise ValueError(
            f"{sorted(sigma)} is not strictly below {sorted(rho)}; "
            "its position is at infinity"
        )
    poly = MultiPoly.zero()
    b_path: list[str] = []
    current = rho
    while current != sigma:
        for index, step in enumerate(tree.children(current)):
            if sigma <= step:
                break
        else:
            raise AssertionError("child lookup failed")
        coeff = curve.positions[current][index]
        poly = poly + MultiPoly.from_monomial({name: 1 for name in b_path}, coeff)
        b_path.append(_b_variable(step))
        current = step
    return poly


def extract_q_factor(curve: StableCurve, i: int, j: int) -> MultiPoly:
    """The factor whose nonvanishing keeps leaves i and j apart after gluing:
    their difference seen from the deepest screen holding both.  Seen from
    the root, it is scaled by the b-variables down to that screen; its
    constant term is a difference of two distinct positions, hence nonzero.
    """
    if i == j:
        raise ValueError("leaves must be distinct")
    tree = curve.tree
    meet = _meet(tree, _as_vertex(tree, i), _as_vertex(tree, j))
    return gluing_polynomial(curve, meet, i) - gluing_polynomial(curve, meet, j)


# ---------------------------------------------------------------------------
# chart evaluation
# ---------------------------------------------------------------------------


def evaluate_chart(
    curve: StableCurve,
    b: Mapping,
    slices: Mapping[Bracket, tuple[Bracket, Bracket]] | None = None,
) -> StableCurve:
    """Glue the curve along b: vertices with a nonzero coordinate melt into
    their parent, and every surviving screen's positions are the gluing
    polynomials evaluated at b.

    Raises ValueError when two leaves coincide on the deepest screen holding
    both (the point is outside the chart domain) or when the slices fail.
    """
    tree = curve.tree
    if slices is not None:
        check_slices(curve, slices)
    values = {frozenset(k): _fraction(v) for k, v in b.items()}
    interior = tree.interior_vertices()
    root = tree.root
    if set(values) != {v for v in interior if v != root}:
        raise ValueError(
            "gluing coordinates must cover exactly the non-root interior vertices"
        )

    # seen[rho]: every vertex strictly below rho at its position on rho's
    # screen, as an unreduced pair (numerator, positive denominator).  Seen
    # from rho, a vertex sigma below the child c at position p sits at
    # p + b[c] * x, where x is sigma's position on c's screen.  Two leaves
    # meet at rho exactly when they lie under different children of rho,
    # so each pair is compared once, on its deepest common screen.
    leaf = [None, *(frozenset({i}) for i in range(1, tree.r + 1))]
    seen: dict[Bracket, dict[Bracket, tuple[int, int]]] = {}
    vanishing = []
    for rho in reversed(interior):
        here = {}
        children = tree.children(rho)
        for child, position in zip(children, curve.positions[rho]):
            pn, pd = position.numerator, position.denominator
            here[child] = (pn, pd)
            below = seen.get(child)
            if below is not None:
                bn, bd = values[child].numerator, values[child].denominator
                for sigma, (xn, xd) in below.items():
                    here[sigma] = (pn * bd * xd + pd * bn * xn, pd * bd * xd)
        seen[rho] = here
        for first, second in combinations(children, 2):
            for i in first:
                un, ud = here[leaf[i]]
                for j in second:
                    vn, vd = here[leaf[j]]
                    if un * vd == vn * ud:
                        vanishing.append((min(i, j), max(i, j)))
    if vanishing:
        i, j = min(vanishing)
        raise ValueError(
            f"outside the chart domain: the separating factor for "
            f"leaves {i} and {j} vanishes"
        )

    contracted = frozenset(v for v, x in values.items() if x != 0)
    new_tree = curve._glued.get(contracted)
    if new_tree is None:
        pattern = {v: int(v in contracted) for v in values}
        new_tree = curve._glued[contracted] = glue_tree(tree, pattern)
    # a surviving vertex's children are distinct on its screen: leaves under
    # two of them lie under distinct children of their deepest common
    # vertex, which this vertex reaches through melted vertices only, and
    # were found apart there; melting maps a screen in by x -> p + b x with
    # b != 0, and a surviving child sits where all of its leaves do (b = 0)
    positions = {
        rho: tuple(Fraction(*seen[rho][child]) for child in new_tree.children(rho))
        for rho in new_tree.interior_vertices()
    }
    return StableCurve._checked(new_tree, positions)


def normalize_to_slice(values: Sequence, pins: tuple[int, int]) -> tuple[Fraction, ...]:
    """Affine change of frame sending values[pins[0]] to 0 and
    values[pins[1]] to 1."""
    pairs = [(x.numerator, x.denominator) for x in map(_fraction, values)]
    n0, d0 = pairs[pins[0]]
    n1, d1 = pairs[pins[1]]
    # (v - v0) / (v1 - v0), with v1 - v0 = span_n / (d0 * d1)
    span_n = n1 * d0 - n0 * d1
    if span_n == 0:
        raise ValueError("pinned positions coincide; no affine normalization")
    return tuple(Fraction((n * d0 - n0 * d) * d1, d * span_n) for n, d in pairs)


def _anchor_leaf(
    tree: StableTree,
    slices: Mapping[Bracket, tuple[Bracket, Bracket]],
    vertex: Bracket,
) -> int:
    """The leaf reached from vertex by always descending into the 0-pinned
    slice child."""
    while len(vertex) > 1:
        vertex = slices[vertex][0]
    return next(iter(vertex))


def _root_pins(
    tree: StableTree, slices: Mapping[Bracket, tuple[Bracket, Bracket]]
) -> tuple[int, int]:
    """The 0-based leaves that the root's slice pins at 0 and 1: the
    anchors of its two slice children."""
    s0, s1 = slices[tree.root]
    return _anchor_leaf(tree, slices, s0) - 1, _anchor_leaf(tree, slices, s1) - 1


def invert_chart(
    tree: StableTree,
    slices: Mapping[Bracket, tuple[Bracket, Bracket]],
    leaf_positions: Sequence,
) -> dict[Bracket, Fraction]:
    """Recover the gluing coordinates producing the given fully-glued leaf
    configuration, by the top-down anchor method.

    Each screen's accumulated scale is the difference of its two anchor
    leaves (the all-0-descents of its slice children); the gluing
    coordinate is the ratio of a screen's scale to its parent's.  Only
    0-dimensional (binary) trees have charts of this shape, and the slices
    are checked as :func:`pinned_curve` checks them.
    """
    for rho in tree.interior_vertices():
        if tree.in_degree(rho) != 2:
            raise ValueError(
                "chart inversion needs a 0-dimensional (binary) tree; "
                f"vertex {sorted(rho)} has {tree.in_degree(rho)} children"
            )
    slices = _complete_slices(tree, slices)
    if len(leaf_positions) != tree.r:
        raise ValueError("one position per leaf is required")
    pins = _root_pins(tree, slices)
    return _inverted(tree, slices, normalize_to_slice(leaf_positions, pins))


def _inverted(
    tree: StableTree,
    slices: Mapping[Bracket, tuple[Bracket, Bracket]],
    normalized: Sequence[Fraction],
) -> dict[Bracket, Fraction]:
    """:func:`invert_chart` on a binary tree, with checked slices, from one
    position per leaf already in the root slice's frame (its
    :func:`_root_pins` at 0 and 1)."""

    def anchor_value(vertex: Bracket) -> tuple[int, int]:
        x = normalized[_anchor_leaf(tree, slices, vertex) - 1]
        return x.numerator, x.denominator

    root = tree.root
    # scales as unreduced pairs (numerator, nonzero denominator)
    scale: dict[Bracket, tuple[int, int]] = {root: (1, 1)}
    out: dict[Bracket, Fraction] = {}
    for rho in tree.interior_vertices():
        if rho == root:
            continue
        s0, s1 = slices[rho]
        (an, ad), (bn, bd) = anchor_value(s1), anchor_value(s0)
        scale[rho] = sn, sd = an * bd - bn * ad, ad * bd
        pn, pd = scale[tree.parent(rho)]
        if pn == 0:
            raise ValueError(
                f"outside the invertible locus: the screen above {sorted(rho)} "
                "is collapsed"
            )
        out[rho] = Fraction(sn * pd, sd * pn)
    return out


# ---------------------------------------------------------------------------
# transition verification
# ---------------------------------------------------------------------------


@dataclass
class TransitionReport:
    samples: int
    verified: int
    skipped: int


def transition_check(
    tree1: StableTree,
    slices1: Mapping[Bracket, tuple[Bracket, Bracket]],
    tree2: StableTree,
    slices2: Mapping[Bracket, tuple[Bracket, Bracket]],
    samples: int = 100,
    seed: int = 0,
) -> TransitionReport:
    """Round-trip random interior points through chart 1 and back through
    chart 2: glue via chart 1, renormalize into chart 2's frame, invert,
    re-glue, and demand exact agreement.  Samples falling outside either
    domain (or on a boundary) are skipped and counted.
    """
    if tree1.r != tree2.r:
        raise ValueError("charts live on different moduli (leaf counts differ)")
    curve1 = pinned_curve(tree1, slices1)
    curve2 = pinned_curve(tree2, slices2)
    # checked once here, so that the samples invert without checking again
    slices2 = _complete_slices(tree2, slices2)
    pins = _root_pins(tree2, slices2)
    free1 = [v for v in tree1.interior_vertices() if v != tree1.root]

    rng = random.Random(seed)
    verified = 0
    for _ in range(samples):
        b1 = {
            v: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for v in free1
        }
        # a zero coordinate is a boundary point, and a ValueError a point
        # outside one of the domains: either way the sample is skipped
        if 0 in b1.values():
            continue
        try:
            glued = evaluate_chart(curve1, b1)
            leaf_row = glued.positions[glued.tree.root]
            target = normalize_to_slice(leaf_row, pins)
            b2 = _inverted(tree2, slices2, target)
            if 0 in b2.values():
                continue
            reglued = evaluate_chart(curve2, b2)
        except ValueError:
            continue
        if tuple(reglued.positions[reglued.tree.root]) != tuple(target):
            raise AssertionError("transition round trip failed")
        verified += 1
    return TransitionReport(samples, verified, samples - verified)
