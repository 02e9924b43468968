"""Command-line front end.

Subcommands: enumerate, fvector, vpp, vpp-table, check-local-model,
chart-eval, transition-check.  Output is deterministic: identical
invocations print identical bytes.  Exit codes: 0 success, 1 domain or
check failure, 2 usage error.  Each subcommand imports what it uses, so
it runs no other module of the package.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .tree_pairs import TreePair

ENUM_GUARD = 12
COUNT_GUARD = 14
VPP_GUARD = 9
STRATA_GUARD = 20_000


def _vector(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not parts or any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected nonnegative mark counts, got {text!r}"
        )
    return parts


def _int_at_least(low: int):
    """An argparse type for integers of at least `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected at least {low}, got {value}")
        return value

    return parse


def _emit_json(payload: object) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_spec(path: str) -> dict:
    import json

    if path == "-":
        spec = json.load(sys.stdin)
    else:
        with open(path) as handle:
            spec = json.load(handle)
    if not isinstance(spec, dict):
        raise ValueError(f"expected a JSON object, got {type(spec).__name__}")
    return spec


def _parse_slices(data: object) -> dict:
    from .charts import json_object, parse_vertex_label

    slices = {}
    for label, pair in json_object(data, "slices").items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(
                f"slice of {label} must be a pair of vertex labels, got {pair!r}"
            )
        slices[parse_vertex_label(label)] = tuple(map(parse_vertex_label, pair))
    return slices


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _reason(exc: Exception) -> str:
    # str() of a KeyError is the repr of its argument, quotes included
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _exceeds_guard(label: str, size: int, max_size: int | None, guard: int) -> bool:
    """Report and return True when size is over --max-size, or over the
    default guard when --max-size is not given."""
    bound = guard if max_size is None else max_size
    if size <= bound:
        return False
    _fail(f"{label} {size} exceeds the size bound {bound}; raise --max-size to proceed")
    return True


def _refuses_type(n: tuple[int, ...], max_size: int | None, guard: int) -> bool:
    """Report and return True when the strata of type n cannot be
    enumerated or counted: the type carries no mark, or |n| + r exceeds the
    size guard (ENUM_GUARD to enumerate, COUNT_GUARD to count)."""
    if not any(n):
        _fail("the mark vector must carry at least one mark")
        return True
    return _exceeds_guard("|n| + r =", sum(n) + len(n), max_size, guard)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_counts(args: argparse.Namespace) -> int:
    """enumerate and fvector: the stratum counts of the type, printed in
    the command's layout."""
    from .vpp import stratum_counts

    n = args.n
    if _refuses_type(n, args.max_size, COUNT_GUARD):
        return 1
    args.layout(n, stratum_counts(n), args.format == "json")
    return 0


def _enumerate_layout(n: tuple[int, ...], counts: list[int], as_json: bool) -> None:
    by_dim = [(d, c) for d, c in enumerate(counts) if c]
    if as_json:
        _emit_json(
            {
                "n": list(n),
                "total": sum(counts),
                "by_dimension": {str(d): c for d, c in by_dim},
            }
        )
    else:
        dims = ", ".join(f"{d}:{c}" for d, c in by_dim)
        print(f"{sum(counts)} strata: dims [{dims}]")


def _fvector_layout(n: tuple[int, ...], counts: list[int], as_json: bool) -> None:
    if as_json:
        _emit_json({"n": list(n), "f_vector": list(counts)})
    else:
        print(list(counts))


def _cmd_vpp(args: argparse.Namespace) -> int:
    from .vpp import vpp

    n = args.n
    dimension = sum(n) + len(n) - 3
    if _exceeds_guard("dimension", dimension, args.max_size, VPP_GUARD):
        return 1
    poly = vpp(n)
    if args.format == "json":
        _emit_json({"n": list(n), "vpp": poly.to_json()})
    else:
        print(poly)
    return 0


def _cmd_vpp_table(args: argparse.Namespace) -> int:
    from .vpp import vpp_table

    d = args.dimension
    if _exceeds_guard("dimension", d, args.max_size, VPP_GUARD):
        return 1
    rows = vpp_table(d)
    if args.format == "json":
        _emit_json(
            {
                "dimension": d,
                "rows": [
                    {"n": list(n), "vpp": poly.to_json()} for n, poly in rows
                ],
            }
        )
    else:
        for n, poly in rows:
            label = "(" + ",".join(str(c) for c in n) + ")"
            print(f"{label}: {poly}")
    return 0


def _check_one_model(
    packed: tuple[TreePair, int, int, int]
) -> tuple[int, str | None, int, int]:
    """Worker: all local-model checks for one 0-dimensional stratum, the
    index-th of its type.  Returns (index, failure message or None, number
    of coordinates, number of generators)."""
    from .local_models import (
        canonical_generators,
        coherence_generators,
        lattice_is_saturated,
        lattice_span_equal,
        monoid_saturation_witness,
    )

    tp, index, trials, seed = packed
    model = canonical_generators(tp)
    shape = (model.n_coords, len(model.generators))
    try:
        model.incidence  # with the witness plan, kept for the witnesses
    except ValueError as exc:
        return index, f"incidence pattern violated: {exc}", *shape
    if not lattice_span_equal(model, coherence_generators(tp)):
        return (
            index,
            "canonical generators do not span the coherence lattice",
            *shape,
        )
    if not lattice_is_saturated(model):
        return index, "lattice is not saturated", *shape
    rng = random.Random(seed * 1_000_003 + index)
    rows = model.generators
    width = model.n_coords
    for _ in range(trials):
        base = [rng.randint(0, 4) for _ in range(width)]
        for row in rows:
            c = rng.randint(-3, 3)
            base = [b - c * g for b, g in zip(base, row)]
        try:
            monoid_saturation_witness(model, tuple(base), rng.randint(2, 4))
        except (ValueError, AssertionError) as exc:
            return index, f"witness failed on {tuple(base)}: {exc}", *shape
    return index, None, *shape


def _worker_count(jobs: int, cpus: int, models: int) -> int:
    """Processes for checking `models` models: the requested --jobs,
    clamped to the CPU count and to the number of models."""
    return min(jobs, cpus, models)


def _cmd_check_local_model(args: argparse.Namespace) -> int:
    from .tree_pairs import enumerate_tree_pairs
    from .vpp import stratum_counts

    n = args.n
    if _refuses_type(n, args.max_size, ENUM_GUARD):
        return 1
    counts = stratum_counts(n)
    if args.max_size is None and sum(counts) > STRATA_GUARD:
        return _fail(
            f"{sum(counts)} strata exceed the bound {STRATA_GUARD} of "
            "check-local-model; pass --max-size to enumerate them anyway"
        )
    models = enumerate_tree_pairs(n, dimension=0)
    # the count recursion is independent of the enumeration: a stratum the
    # enumeration misses would otherwise go unchecked
    if len(models) != counts[0]:
        return _fail(
            f"the enumeration gives {len(models)} 0-dimensional strata, "
            f"but the stratum count is {counts[0]}"
        )
    if not models:
        print("no 0-dimensional strata")
        return 0
    jobs = [(tp, i, args.trials, args.seed) for i, tp in enumerate(models)]
    workers = _worker_count(args.jobs, os.cpu_count() or 1, len(models))
    if workers > 1:
        import multiprocessing  # here, to keep it off the start-up path

        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            outcomes = pool.map(_check_one_model, jobs)
    else:
        outcomes = [_check_one_model(job) for job in jobs]
    failures = 0
    lines = []
    for index, message, n_coords, n_generators in outcomes:
        if message is None:
            lines.append(
                f"model {index}: ok ({n_coords} coords, "
                f"{n_generators} generators)"
            )
        else:
            failures += 1
            lines.append(f"model {index}: FAIL - {message}")
    if args.format == "json":
        _emit_json(
            {
                "n": list(n),
                "models": len(models),
                "failures": failures,
                "results": [
                    {"model": i, "ok": m is None, "message": m}
                    for i, m, _, _ in outcomes
                ],
            }
        )
    else:
        for line in lines:
            print(line)
        verdict = "all ok" if failures == 0 else f"{failures} failure(s)"
        print(f"checked {len(models)} models: {verdict}")
    return 0 if failures == 0 else 1


def _cmd_chart_eval(args: argparse.Namespace) -> int:
    from .charts import (
        StableCurve,
        evaluate_chart,
        json_entry,
        json_object,
        parse_vertex_label,
        vertex_label,
    )

    try:
        spec = _read_spec(args.spec)
    except (OSError, RecursionError, ValueError) as exc:
        return _fail(f"cannot read chart spec: {exc}")
    try:
        curve = StableCurve.from_json(json_entry(spec, "curve", "chart spec"))
        glue_spec = json_object(json_entry(spec, "glue", "chart spec"), "glue")
        glue = {parse_vertex_label(label): value for label, value in glue_spec.items()}
        slices = _parse_slices(spec["slices"]) if "slices" in spec else None
        glued = evaluate_chart(curve, glue, slices=slices)
    except (KeyError, ValueError) as exc:
        return _fail(_reason(exc))
    if args.format == "json":
        _emit_json(glued.to_json())
    else:
        for vertex in glued.tree.interior_vertices():
            row = ", ".join(str(x) for x in glued.positions[vertex])
            print(f"screen {vertex_label(vertex)}: {row}")
    return 0


def _cmd_transition_check(args: argparse.Namespace) -> int:
    from .charts import json_entry, transition_check
    from .trees import StableTree

    try:
        spec = _read_spec(args.spec)
    except (OSError, RecursionError, ValueError) as exc:
        return _fail(f"cannot read transition spec: {exc}")
    try:
        tree1 = StableTree.from_nested(json_entry(spec, "tree1", "transition spec"))
        tree2 = StableTree.from_nested(json_entry(spec, "tree2", "transition spec"))
        slices1 = _parse_slices(json_entry(spec, "slices1", "transition spec"))
        slices2 = _parse_slices(json_entry(spec, "slices2", "transition spec"))
    except (KeyError, ValueError) as exc:
        return _fail(_reason(exc))
    try:
        report = transition_check(
            tree1,
            slices1,
            tree2,
            slices2,
            samples=args.samples,
            seed=args.seed,
        )
    except (AssertionError, KeyError, ValueError) as exc:
        return _fail(f"transition check failed: {_reason(exc)}")
    if args.format == "json":
        _emit_json(
            {
                "samples": report.samples,
                "verified": report.verified,
                "skipped": report.skipped,
            }
        )
    else:
        print(
            f"verified {report.verified}/{report.samples} samples "
            f"({report.skipped} skipped)"
        )
    if report.verified == 0:
        return _fail("no sample verified; the charts do not overlap here")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linestrata",
        description=(
            "Exact stratification combinatorics, lattice models, gluing "
            "charts, and virtual Poincare polynomials for moduli of marked "
            "vertical lines"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "pretty"),
            default="pretty",
            help="output format (default pretty)",
        )

    def guarded(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument(
            "--max-size",
            type=_int_at_least(0),
            default=None,
            help="override the size guard",
        )

    p = sub.add_parser("enumerate", help="count strata by dimension")
    p.add_argument("n", type=_vector, help="mark counts, e.g. 2,0")
    guarded(p)
    p.set_defaults(func=_cmd_counts, layout=_enumerate_layout)

    p = sub.add_parser("fvector", help="strata counts per dimension")
    p.add_argument("n", type=_vector)
    guarded(p)
    p.set_defaults(func=_cmd_counts, layout=_fvector_layout)

    p = sub.add_parser("vpp", help="virtual Poincare polynomial")
    p.add_argument("n", type=_vector)
    guarded(p)
    p.set_defaults(func=_cmd_vpp)

    p = sub.add_parser("vpp-table", help="all types of a given dimension")
    p.add_argument("dimension", type=_int_at_least(0))
    guarded(p)
    p.set_defaults(func=_cmd_vpp_table)

    p = sub.add_parser(
        "check-local-model",
        help="verify lattice models of the 0-dimensional strata",
    )
    p.add_argument("n", type=_vector)
    guarded(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials", type=_int_at_least(0), default=20, help="witness trials per model"
    )
    p.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="parallel workers, at most one per CPU and per model (default 1)",
    )
    p.set_defaults(func=_cmd_check_local_model)

    p = sub.add_parser("chart-eval", help="glue a curve at given coordinates")
    p.add_argument("spec", help="JSON file with curve/glue/slices, or -")
    common(p)
    p.set_defaults(func=_cmd_chart_eval)

    p = sub.add_parser(
        "transition-check", help="round-trip two charts on random points"
    )
    p.add_argument("spec", help="JSON file with tree1/slices1/tree2/slices2, or -")
    common(p)
    p.add_argument("--samples", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_transition_check)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
