"""linestrata benchmark: CLI workloads timed from outside, plus a traced run.

Usage, from the repository root::

    python3 benchmarks/run.py --workload vpp --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 36 --trace 1

Every command runs as a fresh ``python -m linestrata.cli`` child, one at a
time, with ``--jobs`` left at 1 and ``src`` on ``PYTHONPATH``.  Each child's
stdout goes through the output gate (``gate.py``).

``--trace 0`` first times ``import linestrata.cli`` in fresh interpreters
(``setup_s``, the median of several), then repeats the workload's commands
for as many passes as fit in ``--seconds`` (at least one) and reports medians
over those passes.
``--trace 1`` runs the commands once untraced and once more, one
``tracer.py`` child per command, and reports the per-layer metrics.

The metric names and units are those of ``BENCHMARK.json`` at the repository
root.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name with its unit and the machine record.  A full record of the
run, with the trace spans, goes to ``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = "benchmarks/transition_8.json"

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run of one workload, children included, ends within this

# Why each workload exists is set out in benchmarks/README.md.
WORKLOADS = {
    "vpp": lambda seed: [
        ("vpp_table", ["vpp-table", "6"]),
        ("vpp", ["vpp", "2,2,2,2", "--max-size", "9"]),
    ],
    "strata": lambda seed: [
        ("fvector", ["fvector", "3,3"]),
        ("enumerate", ["enumerate", "1,1,1,1"]),
    ],
    "certify": lambda seed: [
        ("check_local_model", ["check-local-model", "2,1,1", "--trials", "5", "--seed", str(seed)]),
        ("transition_check", ["transition-check", SPEC, "--samples", "600", "--seed", str(seed)]),
    ],
}
ALL_COMMANDS = [cid for make in WORKLOADS.values() for cid, _ in make(0)]


@dataclass
class Child:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], deadline: float) -> Child:
    """Run argv from ROOT; time it and read its own peak RSS via wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return Child(proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


def run_pass(commands, deadline: float, traced: bool = False) -> list[dict]:
    """Run each command once, as a CLI child or a tracer.py child; one
    record per command."""
    records = []
    for cid, argv in commands:
        program = [str(HERE / "tracer.py")] if traced else ["-m", "linestrata.cli"]
        child = run_child([sys.executable, *program, *argv], deadline)
        stdout = child.stdout
        trace = None
        if traced and child.exit_code == 0:
            trace = json.loads(child.stdout)
            stdout = trace.pop("stdout").encode()
            child.exit_code = trace["exit_code"]
        problem = (
            f"exit code {child.exit_code}: {child.stderr.decode(errors='replace').strip()}"
            if child.exit_code != 0
            else gate.check(cid, argv, stdout)
        )
        if problem:
            print(f"FAIL {cid}: {problem}", file=sys.stderr)
        records.append({
            "command": cid, "argv": argv, "ok": problem is None, "problem": problem,
            "wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb, "trace": trace,
        })
    return records


def setup_times(deadline: float) -> list[float]:
    """Wall time of fresh interpreters importing the CLI, after a warm-up
    that fills the bytecode cache."""
    argv = [sys.executable, "-c", "import linestrata.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        child = run_child(argv, deadline)
        if child.exit_code != 0:
            raise RuntimeError(f"import failed: {child.stderr.decode(errors='replace')}")
        if i:
            times.append(child.wall_s)
    return times


def import_times(deadline: float) -> dict[str, float]:
    """import.total_s and import.sympy_s from ``-X importtime`` (medians)."""
    totals, sympy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        child = run_child(
            [sys.executable, "-X", "importtime", "-c", "import linestrata.cli"], deadline
        )
        cumulative = {}
        for line in child.stderr.decode().splitlines():
            match = re.fullmatch(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if match:
                cumulative.setdefault((len(match.group(2)), match.group(3)), int(match.group(1)))
        totals.append(cumulative[(1, "linestrata.cli")] / 1e6)
        sympy.append(sum(us for (_, name), us in cumulative.items() if name == "sympy") / 1e6)
    return {"import.total_s": statistics.median(totals), "import.sympy_s": statistics.median(sympy)}


def end_to_end(passes: list[list[dict]], setups: list[float]) -> dict[str, float]:
    records = [r for p in passes for r in p]
    return {
        "wall_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in p) for p in passes),
        "setup_s": statistics.median(setups),
        "ok_frac": sum(r["ok"] for r in records) / len(records),
    }


def per_layer(untraced: list[dict], traced: list[dict], imports: dict) -> dict[str, float]:
    """Sum the traced children's records into the per-layer metrics."""
    out: dict[str, float] = dict(imports)
    for cid in ALL_COMMANDS:
        out[f"cli.{cid}.wall_s"] = sum(r["wall_s"] for r in untraced if r["command"] == cid)
    records = [r["trace"] for r in traced if r["trace"]]
    functions: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for rec in records:
        for name, f in rec["functions"].items():
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += f["calls"]
            entry["self_s"] += f["self_s"]
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, info in rec["caches"].items():
            for key in ("hits", "misses"):
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + info[key]
    for name, f in functions.items():
        out[f"{name}.calls"] = f["calls"]
        out[f"{name}.self_s"] = f["self_s"]
    out.update(counts)
    models = functions.get("cli._check_one_model", {"calls": 0})["calls"]
    out["local_models.models_checked"] = models
    strata = counts.get("tree_pairs.strata_built", 0)
    out["local_models.strata_per_model"] = strata / models if models else 0.0
    samples = counts.get("charts.samples", 0)
    verified = counts.get("charts.samples_verified", 0)
    out["charts.verified_ratio"] = verified / samples if samples else 0.0
    out["trace.overhead_ratio"] = sum(r["wall_s"] for r in traced) / sum(
        r["wall_s"] for r in untraced
    )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    commands = WORKLOADS[name](seed)
    if trace:
        untraced = run_pass(commands, deadline)
        traced = run_pass(commands, deadline, traced=True)
        values = per_layer(untraced, traced, import_times(deadline))
        passes = [untraced, traced]
    else:
        setups = setup_times(deadline)
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(commands, deadline))
            elapsed = time.monotonic() - start
            # stop before a pass that would end after --seconds
            if elapsed + elapsed / len(passes) > seconds:
                break
        values = end_to_end(passes, setups)
    records = [r for p in passes for r in p]
    return {
        "workload": name,
        "values": values,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "passes": passes,
    }


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as handle:
        mem_kb = int(next(l for l in handle if l.startswith("MemTotal")).split()[1])
    sympy = subprocess.run(
        [sys.executable, "-c", "import sympy; print(sympy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "sympy": sympy,
        "commit": commit,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "linestrata" / "cli.py").is_file():
        print(f"error: no linestrata sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    machine = machine_record(args.seed)
    runs = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]

    metrics = {}
    for run in runs:
        prefix = f"{run['workload']}." if args.workload == "all" else ""
        for metric, unit in units.items():
            value = run["values"][metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
            print(f"{run['workload']:8s} {metric:48s} {value:.6g} {unit}")
    result = {
        "correct": all(run["failed"] == 0 for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"machine": machine, "runs": runs, **result}, indent=1))
    print("machine: " + json.dumps(machine))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
