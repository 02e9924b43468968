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
    assert "exceeds the size bound 14" in err
    assert run(["check-local-model", "9,9"]) == 1
    _, err = out_of(capsys)
    assert "exceeds the size bound 12" in err
    # the guard is an override, not a hard limit
    assert run(["enumerate", "3,0", "--max-size", "4"]) == 1
    assert run(["enumerate", "3,0", "--max-size", "5"]) == 0


def test_usage_errors(tmp_path):
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(CHART_SPEC))
    for argv in (
        ["vpp", "1,x"],
        ["no-such-command"],
        ["check-local-model", "2,1", "--jobs", "0"],
        ["vpp-table", "-1"],
        ["check-local-model", "1", "--trials", "-3"],
        ["transition-check", "-", "--samples", "-5"],
        ["enumerate", "2,1", "--max-size", "-5"],
        ["vpp", "1,1", "--max-size", "-1"],
        # only the guarded commands take --max-size
        ["chart-eval", str(chart), "--max-size", "3"],
        ["transition-check", str(TRANSITION_8), "--max-size", "3"],
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
    enumerate_tree_pairs = linestrata.tree_pairs.enumerate_tree_pairs

    def counting(n, **kwargs):
        calls.append((n, kwargs))
        return enumerate_tree_pairs(n, **kwargs)

    monkeypatch.setattr(linestrata.tree_pairs, "enumerate_tree_pairs", counting)
    assert run(["check-local-model", "2,1", "--trials", "3"]) == 0
    assert out_of(capsys)[0].endswith("checked 4 models: all ok\n")
    assert calls == [((2, 1), {"dimension": 0})]


@pytest.mark.parametrize("n, strata", [("1,1,1,1,1", 453_032), ("2,2,2,2", 374_415_744)])
def test_check_local_model_refuses_too_many_strata(n, strata, monkeypatch, capsys):
    # both pass the |n| + r guard; counting their strata is what stops them,
    # before a single stratum is built
    def refuse(n):
        raise AssertionError(f"enumerate_tree_pairs({n}) called")

    monkeypatch.setattr(linestrata.tree_pairs, "enumerate_tree_pairs", refuse)
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


SUBMODULES = (
    "_combi", "exact_poly", "trees", "tree_pairs", "local_models", "charts", "vpp"
)


def _modules_run(*argvs, stdlib=("dataclasses",)) -> list[list[str]]:
    """In a fresh interpreter: the submodules that have run, plus the
    modules of `stdlib` that are imported, after ``import linestrata.cli``
    and again after running argvs.  ``type()`` does not load a registered
    module; it is a plain module once its code has run.  The script
    imports json only after taking both states."""
    script = (
        "import contextlib, io, sys, types\n"
        "import linestrata.cli\n"
        "def state():\n"
        f"    ran = [n for n in {SUBMODULES!r}\n"
        "           if type(sys.modules['linestrata.' + n]) is types.ModuleType]\n"
        f"    return ran + [n for n in {stdlib!r} if n in sys.modules]\n"
        "states = [state()]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if linestrata.cli.run(argv):\n"
        "            sys.exit(f'{argv} failed')\n"
        "states.append(state())\n"
        "import json\n"
        "print(json.dumps(states))\n"
    )
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_commands_run_only_the_modules_they_use():
    # counting needs no polynomials, and pretty output no json
    assert _modules_run(
        ["fvector", "3,3"], stdlib=("dataclasses", "decimal", "fractions", "json")
    ) == [[], ["_combi", "vpp"]]
    # counting and the VPP recursion need neither trees nor dataclasses
    assert _modules_run(["fvector", "3,3"], ["vpp", "1,2"]) == [
        [],
        ["_combi", "exact_poly", "vpp"],
    ]
    # the chart commands evaluate numerically, without the symbolic ring
    transition = ["transition-check", str(TRANSITION_8), "--samples", "20"]
    assert _modules_run(transition) == [
        [],
        ["_combi", "trees", "charts", "dataclasses"],
    ]
    assert _modules_run(["check-local-model", "2,1", "--trials", "1"])[1] == [
        *(n for n in SUBMODULES if n not in ("exact_poly", "charts")),
        "dataclasses",
    ]


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
    # a JSON float reads as its decimal text, not as its binary value
    floats = _with(CHART_SPEC, "glue", {"1-3-4": 0.5, "3-4": 0.1})
    spec.write_text(json.dumps(floats))
    assert run(["chart-eval", str(spec)]) == 0
    assert out_of(capsys)[0] == "screen 1-2-3-4: 0, 1, 1/2, 11/20\n"


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

CATERPILLAR = "[" * 1199 + "1" + "".join(f", {leaf}]" for leaf in range(2, 1201))


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
        (
            "chart-eval",
            _with(CHART_SPEC, "glue", "1/0", "3-4"),
            "expected a number or a fraction string, got '1/0'",
        ),
        (
            "chart-eval",
            _with(
                CHART_SPEC,
                "curve",
                {"1-2-3-4": ["0", "1"], "1-3-4": ["0", "1/0"], "3-4": ["0", "1"]},
                "positions",
            ),
            "expected a number or a fraction string, got '1/0'",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "glue", True, "3-4"),
            "expected a number or a fraction string, got True",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "glue", "1/3", "x"),
            'expected a vertex label such as "1-3-4", got \'x\'',
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "curve", {"x": ["0", "1"]}, "positions"),
            'expected a vertex label such as "1-3-4", got \'x\'',
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "slices", ["1", "3-x"], "1-3-4"),
            'expected a vertex label such as "1-3-4", got \'3-x\'',
        ),
        (
            "chart-eval",
            {
                "curve": {
                    "tree": [1, [2, 3]],
                    "positions": {"1-2-3": ["0", "1"], "2-3": ["0", "1"]},
                },
                "glue": {"2-3": "1/2"},
                "slices": {"1-2-3": ["1", "2"]},
            },
            "slice of vertex [1, 2, 3] pins [2], which is not one of its children",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "slices", ["1", "2"], "2"),
            "slice of vertex [2]: a leaf has no slice",
        ),
        (
            "transition-check",
            _with(TRANSITION_SPEC, "slices1", ["1", "2"], "7"),
            "transition check failed: [7] is not a vertex of the tree",
        ),
        (
            "chart-eval",
            _with(CHART_SPEC, "slices", ["2", "1-3-4"], "1-2-3-4"),
            "slice child [2] of [1, 2, 3, 4] is not at 0",
        ),
        (
            "chart-eval",
            _with(
                CHART_SPEC,
                "curve",
                {"1-2-3-4": ["0", "2"], "1-3-4": ["0", "1"], "3-4": ["0", "1"]},
                "positions",
            ),
            "slice child [2] of [1, 2, 3, 4] is not at 1",
        ),
        # a JSON boolean is not a leaf number, though Python counts it an int
        (
            "chart-eval",
            {"curve": {"tree": [True, 2, 3], "positions": {"1-2-3": [0, 1, 2]}}, "glue": {}},
            "bad tree node True",
        ),
        (
            "transition-check",
            _with(
                json.loads(TRANSITION_8.read_text()),
                "tree1",
                [[[[[[[True, 2], 3], 4], 5], 6], 7], 8],
            ),
            "bad tree node True",
        ),
        # a spec nested deeper than json.load recurses, given as its text
        # (json.dumps recurses too): a 1200-leaf caterpillar tree
        pytest.param(
            "chart-eval",
            '{"curve": {"tree": %s, "positions": {}}, "glue": {}}' % CATERPILLAR,
            "cannot read chart spec: maximum recursion depth exceeded",
            id="chart-eval-caterpillar",
        ),
        pytest.param(
            "transition-check",
            '{"tree1": %s, "tree2": %s, "slices1": {}, "slices2": {}}'
            % (CATERPILLAR, CATERPILLAR),
            "cannot read transition spec: maximum recursion depth exceeded",
            id="transition-check-caterpillar",
        ),
    ],
)
def test_malformed_specs_are_errors(command, spec, error, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    assert run([command, str(path)]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_missing_spec_file(capsys):
    assert run(["chart-eval", "/no/such/file.json"]) == 1
    _, err = out_of(capsys)
    assert "cannot read" in err


def test_check_local_model_cross_checks_the_stratum_count(monkeypatch, capsys):
    enumerate_tree_pairs = linestrata.tree_pairs.enumerate_tree_pairs

    def dropping(n, **kwargs):
        return enumerate_tree_pairs(n, **kwargs)[1:]

    monkeypatch.setattr(linestrata.tree_pairs, "enumerate_tree_pairs", dropping)
    assert run(["check-local-model", "2,1", "--trials", "3"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err == (
        "error: the enumeration gives 3 0-dimensional strata, "
        "but the stratum count is 4\n"
    )


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_check_local_model_reports_failures(fmt, monkeypatch, capsys):
    from linestrata import local_models
    from linestrata.tree_pairs import enumerate_tree_pairs

    canonical_generators = local_models.canonical_generators
    broken = enumerate_tree_pairs((2, 1), dimension=0)[1]

    def doubled(tp):
        # the second model's rows doubled: its entries leave -1..1
        model = canonical_generators(tp)
        if tp != broken:
            return model
        rows = tuple(tuple(2 * v for v in row) for row in model.generators)
        return local_models.LatticeModel(model.names, rows, model.seam_columns)

    monkeypatch.setattr(local_models, "canonical_generators", doubled)
    assert run(["check-local-model", "2,1", "--trials", "3", "--format", fmt]) == 1
    out, err = out_of(capsys)
    assert err == ""
    message = "incidence pattern violated: entry 2 at row 0, column 0 is not in -1..1"
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["models"], payload["failures"]) == (4, 1)
        assert payload["results"][1] == {"model": 1, "ok": False, "message": message}
        assert [entry["ok"] for entry in payload["results"]] == [True, False, True, True]
    else:
        lines = out.splitlines()
        assert lines[1] == f"model 1: FAIL - {message}"
        assert [": ok (" in line for line in lines[:4]] == [True, False, True, True]
        assert lines[4:] == ["checked 4 models: 1 failure(s)"]


def test_check_local_model_computes_each_fact_once_per_model(monkeypatch, capsys):
    from linestrata import local_models

    calls = {"_incidence": 0, "_diagonal": 0}

    def counted(name):
        original = getattr(local_models, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(local_models, name, counted(name))
    assert run(["check-local-model", "2,1", "--trials", "3"]) == 0
    assert out_of(capsys)[0].endswith("checked 4 models: all ok\n")
    # per model: its canonical generators, the coherence generators and
    # their union are diagonalised once each
    assert calls == {"_incidence": 4, "_diagonal": 12}


def test_counting_has_its_own_guard(capsys):
    # counting accepts |n| + r = 14 on a cheap type, and refuses 15
    for command in ("fvector", "enumerate"):
        assert run([command, "13"]) == 0, command
        assert out_of(capsys)[1] == ""
        assert run([command, "14"]) == 1, command
        out, err = out_of(capsys)
        assert out == ""
        assert err == (
            "error: |n| + r = 15 exceeds the size bound 14; "
            "raise --max-size to proceed\n"
        )
    # enumerating keeps its own guard: 13 is refused
    assert run(["check-local-model", "12"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err == (
        "error: |n| + r = 13 exceeds the size bound 12; "
        "raise --max-size to proceed\n"
    )
