"""The benchmark tracer names functions and caches that exist.

``benchmarks/tracer.py`` rebinds package functions by name; a rename that
drops one of them would otherwise surface only when a traced benchmark run
fails.  The tracer file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import linestrata.cli  # noqa: F401  (registers every module the tables name)

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_tables_resolve():
    spec = importlib.util.spec_from_file_location("linestrata_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, path, _ in tracer.SPANS + tracer.LEAVES + tracer.COUNTED:
        assert callable(tracer._resolve(module, path)), (module, path)
    for module, path in tracer.YIELDS:
        assert callable(tracer._resolve(module, path)), (module, path)
    for module, path, _ in tracer.CACHES:
        tracer._resolve(module, path).cache_info()
