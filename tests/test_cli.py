"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linestrata
import linestrata.cli
from linestrata.cli import _worker_count, run

SRC = str(Path(linestrata.__file__).resolve().parents[1])


def run_python(*args):
    """Run a fresh interpreter with the package importable."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_vpp_pretty(capsys):
    assert run(["vpp", "1,2"]) == 0
    out, _ = out_of(capsys)
    assert out == "x^4 + 4x^2 + 1\n"


def test_vpp_json(capsys):
    assert run(["vpp", "1,2", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload == {"n": [1, 2], "vpp": {"coeffs": [1, 0, 4, 0, 1]}}


def test_enumerate_pretty(capsys):
    assert run(["enumerate", "2,0"]) == 0
    out, _ = out_of(capsys)
    assert out == "3 strata: dims [0:2, 1:1]\n"


def test_enumerate_json(capsys):
    assert run(["enumerate", "3,0", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload == {
        "n": [3, 0],
        "total": 18,
        "by_dimension": {"0": 9, "1": 8, "2": 1},
    }


def test_fvector(capsys):
    assert run(["fvector", "2,1"]) == 0
    out, _ = out_of(capsys)
    assert out == "[4, 5, 1]\n"


def test_fvector_counts_without_enumerating(capsys):
    # enumerating the strata of this type does not fit in 8 GB
    assert run(["fvector", "1,1,1,1,1"]) == 0
    out, _ = out_of(capsys)
    assert out == "[33675, 118050, 159660, 103925, 32985, 4540, 196, 1]\n"
    assert run(["enumerate", "1,1,1,1,1", "--format", "json"]) == 0
    payload = json.loads(out_of(capsys)[0])
    assert payload["total"] == 453032


def test_vpp_table_pretty(capsys):
    assert run(["vpp-table", "2"]) == 0
    out, _ = out_of(capsys)
    assert out.splitlines() == [
        "(4): x^4 + 5x^2 + 1",
        "(0,3): x^4 + 5x^2 + 1",
        "(1,2): x^4 + 4x^2 + 1",
        "(0,0,2): x^4 + 4x^2 + 1",
        "(0,1,1): x^4 + 3x^2 + 1",
        "(0,0,0,1): x^4 + 5x^2 + 1",
    ]


def test_size_guards(capsys):
    assert run(["vpp", "4,4,4"]) == 1
    _, err = out_of(capsys)
    assert "exceeds the size bound 9" in err
    assert run(["enumerate", "9,9"]) == 1
    _, err = out_of(capsys)
    assert "exceeds the size bound 12" in err
    # the guard is an override, not a hard limit
    assert run(["enumerate", "3,0", "--max-size", "4"]) == 1
    assert run(["enumerate", "3,0", "--max-size", "5"]) == 0


def test_usage_errors():
    for argv in (
        ["vpp", "1,x"],
        ["no-such-command"],
        ["check-local-model", "2,1", "--jobs", "0"],
        ["vpp-table", "-1"],
        ["check-local-model", "1", "--trials", "-3"],
        ["transition-check", "-", "--samples", "-5"],
        ["enumerate", "2,1", "--max-size", "-5"],
        ["vpp", "1,1", "--max-size", "-1"],
    ):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2, argv


def test_markless_type_is_a_domain_error(capsys):
    for argv in (["enumerate", "0"], ["fvector", "0,0"], ["check-local-model", "0,0"]):
        assert run(argv) == 1, argv
        out, err = out_of(capsys)
        assert out == ""
        assert err == "error: the mark vector must carry at least one mark\n"
    # the polynomial of a markless type needs no enumeration
    assert run(["vpp", "0,0"]) == 0
    assert out_of(capsys)[0] == "1\n"


def test_check_local_model(capsys):
    assert run(["check-local-model", "2,0", "--trials", "5"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert lines[-1] == "checked 2 models: all ok"
    assert all(": ok" in line for line in lines[:-1])


def test_check_local_model_json(capsys):
    assert run(["check-local-model", "1,1", "--trials", "3", "--format", "json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["models"] == len(payload["results"])
    assert all(entry["ok"] for entry in payload["results"])


def test_check_local_model_enumerates_once(monkeypatch, capsys):
    calls = []
    enumerate_tree_pairs = linestrata.cli.enumerate_tree_pairs

    def counting(n):
        calls.append(n)
        return enumerate_tree_pairs(n)

    monkeypatch.setattr(linestrata.cli, "enumerate_tree_pairs", counting)
    assert run(["check-local-model", "2,1", "--trials", "3"]) == 0
    assert out_of(capsys)[0].endswith("checked 4 models: all ok\n")
    assert calls == [(2, 1)]


@pytest.mark.parametrize("n, strata", [("1,1,1,1,1", 453_032), ("2,2,2,2", 374_415_744)])
def test_check_local_model_refuses_too_many_strata(n, strata, monkeypatch, capsys):
    # both pass the |n| + r guard; counting their strata is what stops them,
    # before a single stratum is built
    def refuse(n):
        raise AssertionError(f"enumerate_tree_pairs({n}) called")

    monkeypatch.setattr(linestrata.cli, "enumerate_tree_pairs", refuse)
    assert run(["check-local-model", n]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith(f"error: {strata} strata exceed the bound")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_check_local_model_jobs_do_not_change_output(fmt, capsys):
    argv = ["check-local-model", "2,1", "--trials", "3", "--format", fmt]
    assert run(argv + ["--jobs", "1"]) == 0
    serial, _ = out_of(capsys)
    assert run(argv + ["--jobs", "2"]) == 0
    parallel, _ = out_of(capsys)
    assert parallel == serial


def test_worker_count_is_clamped():
    assert _worker_count(1, 8, 84) == 1
    assert _worker_count(4, 8, 84) == 4
    assert _worker_count(64, 2, 84) == 2  # no more processes than CPUs
    assert _worker_count(8, 16, 3) == 3  # no more processes than models


def test_check_survives_optimize_flag():
    # python -O strips assert statements; the solver's postcondition must
    # still fail, and the CLI must still report it as a failed model
    script = (
        "import sys\n"
        "from linestrata import cli, local_models\n"
        "if not sys.flags.optimize: sys.exit('not running under -O')\n"
        "local_models.DiffConstraintSystem.satisfied_by = lambda self, p: False\n"
        "sys.exit(cli.run(['check-local-model', '2,1', '--trials', '5']))\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 1, result.stderr
    assert "solver produced an invalid assignment" in result.stdout


def test_import_does_not_load_sympy(capsys):
    result = run_python(
        "-c", "import sys, linestrata.cli; print('sympy' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
    # with sympy made unimportable, the lattice checks still run and print
    # the same bytes: it is no runtime dependency
    argv = ["check-local-model", "2,1", "--trials", "5"]
    blocked = run_python(
        "-c",
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from linestrata.cli import run\n"
        f"sys.exit(run({argv!r}))\n",
    )
    assert blocked.returncode == 0, blocked.stderr
    assert run(argv) == 0
    assert blocked.stdout == out_of(capsys)[0]


CHART_SPEC = {
    "curve": {
        "tree": [[1, [3, 4]], 2],
        "positions": {
            "1-2-3-4": ["0", "1"],
            "1-3-4": ["0", "1"],
            "3-4": ["0", "1"],
        },
    },
    "glue": {"1-3-4": "1/2", "3-4": "1/3"},
    "slices": {
        "1-2-3-4": ["1-3-4", "2"],
        "1-3-4": ["1", "3-4"],
        "3-4": ["3", "4"],
    },
}


def test_chart_eval(tmp_path, capsys):
    spec = tmp_path / "chart.json"
    spec.write_text(json.dumps(CHART_SPEC))
    assert run(["chart-eval", str(spec)]) == 0
    out, _ = out_of(capsys)
    assert out == "screen 1-2-3-4: 0, 1, 1/2, 2/3\n"
    assert run(["chart-eval", str(spec), "--format", "json"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["positions"] == {"1-2-3-4": ["0", "1", "1/2", "2/3"]}
    assert payload["tree"] == [1, 2, 3, 4]


def test_chart_eval_domain_error(tmp_path, capsys):
    bad = dict(CHART_SPEC)
    bad["glue"] = {"1-3-4": "1", "3-4": "1/3"}  # leaf 2 meets leaf 3
    spec = tmp_path / "chart.json"
    spec.write_text(json.dumps(bad))
    assert run(["chart-eval", str(spec)]) == 1
    _, err = out_of(capsys)
    assert "separating factor" in err


TRANSITION_SPEC = {
    "tree1": [[1, [3, 4]], 2],
    "slices1": {
        "1-2-3-4": ["1-3-4", "2"],
        "1-3-4": ["1", "3-4"],
        "3-4": ["3", "4"],
    },
    "tree2": [1, [2, [3, 4]]],
    "slices2": {
        "1-2-3-4": ["1", "2-3-4"],
        "2-3-4": ["3-4", "2"],
        "3-4": ["3", "4"],
    },
}


def test_transition_check(tmp_path, capsys):
    spec = tmp_path / "transition.json"
    spec.write_text(json.dumps(TRANSITION_SPEC))
    assert run(["transition-check", str(spec), "--samples", "60", "--seed", "7"]) == 0
    out, _ = out_of(capsys)
    assert "verified" in out and "skipped" in out


def test_transition_check_json_deterministic(tmp_path, capsys):
    spec = tmp_path / "transition.json"
    spec.write_text(json.dumps(TRANSITION_SPEC))
    assert run(
        ["transition-check", str(spec), "--samples", "40", "--seed", "1",
         "--format", "json"]
    ) == 0
    first, _ = out_of(capsys)
    assert run(
        ["transition-check", str(spec), "--samples", "40", "--seed", "1",
         "--format", "json"]
    ) == 0
    second, _ = out_of(capsys)
    assert first == second
    payload = json.loads(first)
    assert payload["samples"] == 40
    assert payload["verified"] + payload["skipped"] == 40


TRANSITION_8 = Path(__file__).resolve().parents[1] / "benchmarks" / "transition_8.json"
TRANSITION_8_COUNTS = {0: (219, 381), 1: (231, 369), 2: (227, 373)}


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("seed", sorted(TRANSITION_8_COUNTS))
def test_transition_check_bytes_are_frozen(seed, fmt, capsys):
    """The exact output of the benchmark's 8-leaf transition check."""
    verified, skipped = TRANSITION_8_COUNTS[seed]
    argv = ["transition-check", str(TRANSITION_8), "--samples", "600"]
    assert run(argv + ["--seed", str(seed), "--format", fmt]) == 0
    out, err = out_of(capsys)
    if fmt == "json":
        expected = (
            f'{{\n  "samples": 600,\n  "skipped": {skipped},\n'
            f'  "verified": {verified}\n}}\n'
        )
    else:
        expected = f"verified {verified}/600 samples ({skipped} skipped)\n"
    assert (out, err) == (expected, "")


DROP = object()


def _with(spec: dict, key: str, value, entry: str | None = None) -> dict:
    """A copy of spec with spec[key], or spec[key][entry], set to value
    (or deleted, for DROP)."""
    out = json.loads(json.dumps(spec))
    holder, name = (out, key) if entry is None else (out[key], entry)
    if value is DROP:
        del holder[name]
    else:
        holder[name] = value
    return out


@pytest.mark.parametrize(
    "command, spec, error",
    [
        ("chart-eval", [1, 2], "cannot read chart spec: expected a JSON object"),
        (
            "transition-check",
            [1, 2],
            "cannot read transition spec: expected a JSON object",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "slices", 5, "1-2-3-4"),
            "slice of 1-2-3-4 must be a pair",
        ),
        (
            "transition-check",
            _with(TRANSITION_SPEC, "slices1", 5, "1-3-4"),
            "slice of 1-3-4 must be a pair",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "glue", None, "3-4"),
            "expected a number or a fraction string, got None",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "glue", ["1-3-4"]),
            "glue must be a JSON object",
        ),
        (
            "transition-check",
            _with(TRANSITION_SPEC, "slices1", DROP, "1-3-4"),
            "transition check failed: vertex [1, 3, 4] has no slice",
        ),
        (
            "transition-check",
            _with(TRANSITION_SPEC, "slices2", ["3-4", "3-4"], "2-3-4"),
            "transition check failed: slice of vertex [2, 3, 4] pins [3, 4] twice",
        ),
        ("chart-eval", _with(CHART_SPEC, "curve", [1]), "curve must be a JSON object"),
        (
            "chart-eval",
            _with(CHART_SPEC, "curve", [1], "positions"),
            "positions must be a JSON object",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "curve", {"1-2": None}, "positions"),
            "positions of 1-2 must be a list, got None",
        ),
        (
            "chart-eval",
            _with(
                CHART_SPEC,
                "curve",
                {"1-2-3-4": ["0", "1"], "1-3-4": ["0", None], "3-4": ["0", "1"]},
                "positions",
            ),
            "expected a number or a fraction string, got None",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "glue", DROP),
            'chart spec has no "glue" entry',
        ),
        (
            "transition-check",
            _with(TRANSITION_SPEC, "tree2", DROP),
            'transition spec has no "tree2" entry',
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "curve", DROP, "positions"),
            'curve has no "positions" entry',
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "slices", ["1", "9"], "1-3-4"),
            "[9] is not a vertex of the tree",
        ),
    ],
)
def test_malformed_specs_are_errors(command, spec, error, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run([command, str(path)]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_missing_spec_file(capsys):
    assert run(["chart-eval", "/no/such/file.json"]) == 1
    _, err = out_of(capsys)
    assert "cannot read" in err
