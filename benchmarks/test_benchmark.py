"""Self-checks of the benchmark.  Run from the repository root::

    python3 -m pytest benchmarks/test_benchmark.py -q

They start linestrata children and trace every workload twice, which takes
about two minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _deadline() -> float:
    return time.monotonic() + run.RUN_LIMIT_S


def _traced(workload: str, seed: int = 0) -> list[dict]:
    return run.run_pass(run.WORKLOADS[workload](seed), _deadline(), traced=True)


@pytest.fixture(scope="module")
def first_trace():
    cache: dict[str, list[dict]] = {}

    def get(workload: str) -> list[dict]:
        if workload not in cache:
            cache[workload] = _traced(workload)
        return cache[workload]

    return get


def _layer(records: list[dict]) -> dict[str, float]:
    return run.per_layer(records, records, {"import.total_s": 0.0, "import.sympy_s": 0.0})


def test_install_rebinds_every_alias_and_restore_undoes_it():
    sys.path.insert(0, str(run.SRC))
    try:
        import linestrata.cli  # noqa: F401

        originals = {
            id(tracer._resolve(module, path)): tracer._resolve(module, path)
            for module, path, _ in tracer.SPANS + tracer.LEAVES + tracer.COUNTED
        }

        def bound() -> list[str]:
            found = []
            for module in tracer._linestrata_modules():
                for attr, value in vars(module).items():
                    if id(value) in originals:
                        found.append(f"{module.__name__}.{attr}")
                    if isinstance(value, type):
                        found += [
                            f"{value.__qualname__}.{a}"
                            for a, v in vars(value).items()
                            if id(v) in originals
                        ]
            return found

        before = bound()
        assert "linestrata.cli.enumerate_tree_pairs" in before
        assert "MultiPoly.__rmul__" in before
        t = tracer.Tracer("test")
        t.install()
        try:
            assert bound() == []
        finally:
            t.restore()
        assert bound() == before
    finally:
        sys.path.remove(str(run.SRC))


def test_certify_sees_every_enumeration_and_model(first_trace):
    records = first_trace("certify")
    assert all(r["ok"] for r in records)
    values = _layer(records)
    assert values["tree_pairs.enumerate_tree_pairs.calls"] == 85
    assert values["local_models.models_checked"] == 84


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_names_every_per_layer_metric(first_trace, workload):
    values = _layer(first_trace(workload))
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in values]
    assert missing == []


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_exactly(first_trace, workload):
    def counts(records: list[dict]) -> dict[str, int]:
        out = {}
        for r in records:
            for name, f in r["trace"]["functions"].items():
                out[f"{r['command']}:{name}.calls"] = f["calls"]
            for name, value in r["trace"]["counts"].items():
                out[f"{r['command']}:{name}"] = value
            for name, info in r["trace"]["caches"].items():
                out[f"{r['command']}:{name}.hits"] = info["hits"]
                out[f"{r['command']}:{name}.misses"] = info["misses"]
        return out

    first = counts(first_trace(workload))
    assert any(v > 0 for v in first.values())
    assert counts(_traced(workload)) == first


def test_gate_rejects_a_one_byte_change():
    commands = dict(run.WORKLOADS["strata"](0)) | dict(run.WORKLOADS["certify"](3))
    for command in ("enumerate", "transition_check"):
        argv = commands[command]
        child = run.run_child(
            [sys.executable, "-m", "linestrata.cli", *argv], _deadline()
        )
        assert child.exit_code == 0
        assert gate.check(command, argv, child.stdout) is None
        # "verified 2..." -> "verified 3...": still well formed, but wrong
        position = child.stdout.index(b" ") + 1 if command == "transition_check" else 0
        changed = bytearray(child.stdout)
        changed[position] = ord("0") + (changed[position] - ord("0") + 1) % 10
        assert gate.check(command, argv, bytes(changed)) is not None


def test_structural_checks_catch_wrong_values():
    assert gate.parse_poly("x^4 - 3x^2 + 1") == [1, 0, -3, 0, 1]
    assert gate._check_vpp((4,), "x^4 + 5x^2 + 1") is None
    assert gate._check_vpp((4,), "x^4 + 5x^2 + 2") is not None
    assert gate._check_vpp((4,), "x^4 + 5x^2 + x + 1") is not None
    assert gate._check_vpp((5,), "x^4 + 5x^2 + 1") is not None
    assert gate._fvector(["[3, 2]"], []) is not None
    assert gate._enumerate(["5 strata: dims [0:2, 1:2]"], []) is not None
    assert gate._check_local_model(["model 0: ok (1 coords, 1 generators)",
                                    "checked 1 models: 1 failure(s)"], []) is not None
