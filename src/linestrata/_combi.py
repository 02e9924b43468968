"""Small combinatorial generators shared across modules."""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import index, sub
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

T = TypeVar("T")

Vector = tuple[int, ...]


def _not_an_integer(value: object) -> bool:
    """Whether value is a bool or has no __index__ (a float or a string)."""
    return isinstance(value, bool) or not hasattr(value, "__index__")


def type_vector(n: Iterable[int], *, markless: bool = False) -> Vector:
    """The type n, r >= 1 lines with n_i >= 0 marks on line i, as a tuple.

    Raises ValueError on an empty vector, a negative entry, an entry that
    is not an integer (a bool, float or string is refused, not truncated),
    and, unless markless is true, a vector without marks.
    """
    entries = tuple(n)
    for c in entries:
        if _not_an_integer(c):
            raise ValueError(f"entry {c!r} of type {entries!r} is not an integer")
    nt = tuple(map(index, entries))
    if not nt:
        raise ValueError("a type needs at least one line")
    if any(c < 0 for c in nt):
        raise ValueError(f"type {nt} has a negative entry")
    if not (markless or any(nt)):
        raise ValueError(f"type {nt} carries no marks; it needs at least one mark")
    return nt


def as_integer(value: object, what: str) -> int:
    """value as an int; raises ValueError, naming it as what, on a bool,
    float or string, which are refused, not truncated."""
    if _not_an_integer(value):
        raise ValueError(f"{what} {value!r} is not an integer")
    return index(value)


def line_count(r: int) -> int:
    """The line count r >= 1 as an int; raises ValueError, like
    :func:`type_vector`, on a bool, float or string."""
    r = as_integer(r, "line count")
    if r < 1:
        raise ValueError("r must be at least 1")
    return r


class Mark(NamedTuple):
    """The index-th marked point on the given line (both 1-based)."""

    line: int
    index: int

    def to_json(self) -> dict:
        return {"mark": [self.line, self.index]}


def marks(n: Iterable[int]) -> tuple[Mark, ...]:
    """The marks of the type n, line by line."""
    return tuple(
        Mark(line, i) for line, c in enumerate(type_vector(n), 1) for i in range(1, c + 1)
    )


def set_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """All set partitions of items, each partition a list of nonempty blocks.

    The order of the partitions, and of the blocks within each, is
    deterministic for a fixed input order.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def set_partitions_at_least(items: Sequence[T], min_blocks: int) -> Iterator[list[list[T]]]:
    for part in set_partitions(items):
        if len(part) >= min_blocks:
            yield part


@lru_cache(maxsize=None)
def vector_partitions(v: Vector) -> tuple[tuple[tuple[Vector, ...], int], ...]:
    """Partitions of a count vector, each with its labelled multiplicity.

    Take v[i] distinguishable marks of colour i.  Every set partition of
    those marks has a multiset of block count vectors; this lists each such
    multiset once, as a non-increasing tuple of nonzero blocks, paired with
    the number of set partitions that have it:

        prod_i v_i! / (prod_blocks prod_i b_i! * prod_distinct blocks mult!)

    The multiplicities sum to the Bell number of sum(v).  The zero vector
    has the single empty partition, with multiplicity 1.  The result is
    memoised, so v must be a tuple.
    """
    numerator = _factorials(v)
    out = []
    for blocks in _blocks_at_most(v, v):
        denominator = run = 1
        for prev, cur in zip((None,) + blocks, blocks):
            run = run + 1 if cur == prev else 1
            denominator *= _factorials(cur) * run
        mult, rem = divmod(numerator, denominator)
        if rem:
            raise ValueError(
                f"multiplicity of {blocks} in {v} is not an integer"
            )
        out.append((blocks, mult))
    return tuple(out)


@lru_cache(maxsize=None)
def _factorials(b: Vector) -> int:
    """prod_i b_i!"""
    return prod(map(factorial, b))


@lru_cache(maxsize=None)
def _blocks_at_most(v: Vector, bound: Vector) -> tuple[tuple[Vector, ...], ...]:
    """Non-increasing tuples of nonzero blocks summing to v, each <= bound.

    The first block runs over every b <= v entrywise, in decreasing
    lexicographic order, that is <= bound and takes a mark of v's first
    nonzero entry j: later blocks are no larger, so they never reach an
    earlier entry than the first block does.  The rest of v, split into
    single marks, completes every such b.  Memoised, so that partitions
    sharing a remainder and a bound share their tails."""
    if not any(v):
        return ((),)
    # the first nonzero entry's value first occurs at its own index
    j = v.index(next(filter(None, v)))
    return tuple(
        (block,) + tail
        for block in product(*(range(c, -1, -1) for c in v))
        if block[j] and block <= bound
        for tail in _blocks_at_most(tuple(map(sub, v, block)), block)
    )
