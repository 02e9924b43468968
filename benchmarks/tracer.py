"""In-process tracing of one linestrata CLI command.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 benchmarks/tracer.py <linestrata CLI arguments...>

The child imports the package, replaces every alias of each traced function
with a wrapper, runs ``linestrata.cli.run(argv)`` with its stdout captured,
restores the originals and prints one JSON record on stdout: the command's
output and exit code, its spans, the aggregated leaf calls, the counters and
the ``lru_cache`` statistics.  ``run.py`` starts one such child per command,
so every cache starts cold.

Spans are recorded only at coarse boundaries (the command and the functions
in ``SPANS``).  Hot functions (``LEAVES``) are aggregated into a call count,
total time and self time per (function, enclosing span), so memory stays
bounded however many calls run.  Self time is a call's duration minus the
time its traced children cover.
"""
from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

# (module, attribute path, metric name) of functions recorded as spans.
SPANS = (
    ("linestrata.vpp", "vpp", "vpp.vpp"),
    ("linestrata.vpp", "vpp_table", "vpp.vpp_table"),
    ("linestrata.tree_pairs", "enumerate_tree_pairs", "tree_pairs.enumerate_tree_pairs"),
    ("linestrata.tree_pairs", "f_vector", "tree_pairs.f_vector"),
    ("linestrata.charts", "transition_check", "charts.transition_check"),
    ("linestrata.local_models", "canonical_generators", "local_models.canonical_generators"),
    ("linestrata.local_models", "coherence_generators", "local_models.coherence_generators"),
    ("linestrata.local_models", "lattice_span_equal", "local_models.lattice_span_equal"),
    ("linestrata.local_models", "lattice_is_saturated", "local_models.lattice_is_saturated"),
    ("linestrata.local_models", "monoid_saturation_witness", "local_models.monoid_saturation_witness"),
    ("linestrata.local_models", "solve_difference_constraints", "local_models.solve_difference_constraints"),
    ("linestrata.cli", "_check_one_model", "cli._check_one_model"),
)

# Hot functions: aggregated, never recorded one span per call.
LEAVES = (
    ("linestrata.exact_poly", "UniPoly.__mul__", "exact_poly.UniPoly.mul"),
    ("linestrata.exact_poly", "UniPoly.__add__", "exact_poly.UniPoly.add"),
    ("linestrata.exact_poly", "config_poly", "exact_poly.config_poly"),
    ("linestrata.exact_poly", "quotient_config_poly", "exact_poly.quotient_config_poly"),
    ("linestrata.exact_poly", "MultiPoly.__add__", "exact_poly.MultiPoly.add"),
    ("linestrata.exact_poly", "MultiPoly.__mul__", "exact_poly.MultiPoly.mul"),
    ("linestrata.exact_poly", "multi_eval", "exact_poly.multi_eval"),
    ("linestrata.tree_pairs", "stratum_dimension", "tree_pairs.stratum_dimension"),
    ("linestrata.tree_pairs", "TreePair.sort_key", "tree_pairs.TreePair.sort_key"),
    ("linestrata.tree_pairs", "TreePair.canonical_key", "tree_pairs.TreePair.canonical_key"),
    ("linestrata.tree_pairs", "validate_tree_pair", "tree_pairs.validate_tree_pair"),
    ("linestrata.charts", "evaluate_chart", "charts.evaluate_chart"),
    ("linestrata.charts", "invert_chart", "charts.invert_chart"),
)

# Counted without timing, so that they add no child time to their callers.
COUNTED = (("linestrata.trees", "StableTree.__init__", "trees.StableTree.init"),)

# Generators whose yields are counted per calling module.
YIELDS = (
    ("linestrata._combi", "set_partitions"),
    ("linestrata._combi", "set_partitions_at_least"),
)

CACHES = (
    ("linestrata.vpp", "_fiber", "vpp.cache._fiber"),
    ("linestrata.vpp", "_screen_distribution", "vpp.cache._screen_distribution"),
    ("linestrata.vpp", "_all_root", "vpp.cache._all_root"),
    ("linestrata.vpp", "_point_factor", "vpp.cache._point_factor"),
    ("linestrata.vpp", "vpp_seam", "vpp.cache.vpp_seam"),
    ("linestrata.tree_pairs", "_enum_fiber", "tree_pairs.cache._enum_fiber"),
)


def _linestrata_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "linestrata" or name.startswith("linestrata.")
    ]


def _resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


class Tracer:
    """Spans, aggregates and counters of one traced command."""

    def __init__(self, command: str):
        self.command = command
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list[float]] = {}
        # every counter starts at 0, so a record names the same metrics
        # whichever functions the command happens to reach
        self.counts: dict[str, int] = dict.fromkeys(
            [
                "tree_pairs.strata_built",
                "charts.samples",
                "charts.samples_verified",
                "charts.samples_skipped",
                *(f"{name}.calls" for _, _, name in COUNTED),
            ],
            0,
        )
        self._frames: list[list[float]] = []  # [start, time covered by children]
        self._open: list[int] = []  # ids of the enclosing spans
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def _finish(self, name: str, frame: list[float], end: float) -> None:
        duration = end - frame[0]
        if self._frames:
            self._frames[-1][1] += duration
        parent = self._open[-1] if self._open else None
        entry = self.aggregates.setdefault((name, parent), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]

    def leaf(self, name: str, fn):
        frames, clock = self._frames, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                self._finish(name, frame, end)

        return wrapper

    def span(self, name: str, fn):
        frames, clock = self._frames, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "command": self.command,
            }
            self.spans.append(record)
            frame = [clock(), 0.0]
            frames.append(frame)
            self._open.append(span_id)
            try:
                result = fn(*args, **kwargs)
                self._observe(name, result)
                return result
            finally:
                end = clock()
                self._open.pop()
                frames.pop()
                record["start"], record["end"] = frame[0], end
                self._finish(name, frame, end)

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "tree_pairs.enumerate_tree_pairs":
            self.add("tree_pairs.strata_built", len(result))
        elif name == "charts.transition_check":
            self.add("charts.samples", result.samples)
            self.add("charts.samples_verified", result.verified)
            self.add("charts.samples_skipped", result.skipped)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def counted(self, name: str, fn):
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def yields(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------

    def _rebind(self, original, make) -> None:
        """Bind make(owner) in place of every alias of original in every
        linestrata module and class; ``from .x import y`` copies bindings,
        so each copy is replaced.  make returns None to leave an owner alone.
        """
        seen_classes = set()
        for module in _linestrata_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, make(module.__name__), original)
                elif (
                    isinstance(value, type)
                    and value.__module__.startswith("linestrata")
                    and value not in seen_classes
                ):
                    seen_classes.add(value)
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, cattr, make(value.__module__), original)

    def _set(self, owner, attr: str, wrapper, original) -> None:
        if wrapper is not None:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))

    def install(self) -> None:
        for table, make in ((SPANS, self.span), (LEAVES, self.leaf), (COUNTED, self.counted)):
            for module, path, name in table:
                original = _resolve(module, path)
                wrapper = make(name, original)
                self._rebind(original, lambda owner, w=wrapper: w)
        for module, path in YIELDS:
            original = _resolve(module, path)

            def per_caller(owner, fn=original, home=module):
                # recursion inside _combi is not a hand-over to a caller
                if owner == home:
                    return None
                name = f"combi.set_partitions.yields.{owner.rsplit('.', 1)[-1]}"
                self.counts.setdefault(name, 0)
                return self.yields(name, fn)

            self._rebind(original, per_caller)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def record(self) -> dict:
        by_name = {name: [0, 0.0, 0.0] for _, _, name in SPANS + LEAVES}
        for (name, _), (calls, total, self_s) in self.aggregates.items():
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        caches = {}
        for module, attr, name in CACHES:
            info = _resolve(module, attr).cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        span_names = {s["id"]: s["name"] for s in self.spans}
        return {
            "functions": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(by_name.items())
            },
            "per_parent": [
                {
                    "name": name,
                    "parent": span_names.get(parent),
                    "parent_id": parent,
                    "calls": int(c),
                    "total_s": t,
                    "self_s": s,
                }
                for (name, parent), (c, t, s) in self.aggregates.items()
            ],
            "counts": dict(sorted(self.counts.items())),
            "caches": caches,
            "spans": self.spans,
        }


def trace_command(argv: list[str]) -> dict:
    """Run one CLI command in-process under a Tracer; return its record."""
    import linestrata.cli

    tracer = Tracer(argv[0])
    tracer.install()
    out = io.StringIO()
    try:
        command = tracer.span(f"cli.{argv[0]}", linestrata.cli.run)
        with redirect_stdout(out):
            try:
                code = command(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.restore()
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), **tracer.record()}


def main() -> int:
    json.dump(trace_command(sys.argv[1:]), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
