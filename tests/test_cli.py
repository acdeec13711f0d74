import ast
import glob
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

import nilaut
from nilaut import cli
from nilaut.errors import DomainError, InternalError, SearchExhausted
from nilaut.harness import Report, SUITE_NAMES


def test_list_suites(capsys):
    assert cli.main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in SUITE_NAMES:
        assert name in out


def test_verify_writes_canonical_report(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = cli.main(
        ["verify", "--suite", "ring-Z", "--trials", "4", "--seed", "9", "--report", str(path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    data = json.loads(path.read_text())
    assert data["config"] == {
        "suite": "ring-Z",
        "rank": 2,
        "class": 2,
        "trials": 4,
        "seed": 9,
        "m_range": [-5, 5],
    }
    assert data["wall_clock_seconds"] is None
    # byte determinism through the CLI
    path2 = tmp_path / "r2.json"
    cli.main(["verify", "--suite", "ring-Z", "--trials", "4", "--seed", "9", "--report", str(path2)])
    assert path.read_text() == path2.read_text()


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = cli.main(["verify", "--suite", "unknown-name", "--report", str(path)])
    assert code == 2
    assert not path.exists()
    assert "usage error" in capsys.readouterr().err


def test_out_of_range_parameters_are_usage_errors(capsys):
    assert cli.main(["verify", "--suite", "lemma-2.1", "--class", "2"]) == 2
    assert cli.main(["verify", "--suite", "eq-2", "--rank", "1"]) == 2
    assert cli.main(["verify", "--suite", "eq-2", "--trials", "0"]) == 2


def test_bad_m_range_format():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "eq-2", "--m-range", "nope"])
    assert exc.value.code == 2


def test_negative_m_range_in_equals_form(tmp_path, capsys):
    # "--m-range -10:10" reads -10:10 as an option; the = form does not
    path = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "eq-2", "--m-range=-10:10", "--report", str(path)]) == 0
    assert json.loads(path.read_text())["config"]["m_range"] == [-10, 10]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "ring-Z", "trials": 3, "seed": 4}))
    path = tmp_path / "r.json"
    assert cli.main(["verify", "--config", str(cfg), "--report", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["config"]["trials"] == 3 and data["config"]["seed"] == 4
    assert cli.main(["verify", "--config", str(cfg), "--trials", "5", "--report", str(path)]) == 0
    assert json.loads(path.read_text())["config"]["trials"] == 5
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    # a malformed config is a usage error before anything runs, not a crash
    bad_configs = [
        {"suite": "ring-Z", "rank": "3"},
        {"suite": "ring-Z", "m_range": [1]},
        ["ring-Z"],
        {"suite": "ring-Z", "seed": "4"},
        {"suite": "ring-Z", "trials": 2.5},
        {"suite": ["ring-Z"]},
        {"suite": "ring-Z", "rnak": 3, "trials": 2},
        {"suite": "ring-Z", "nil_class": 3, "trials": 2},
    ]
    for k, bad in enumerate(bad_configs):
        cfg.write_text(json.dumps(bad))
        path = tmp_path / ("bad%d.json" % k)
        assert cli.main(["verify", "--config", str(cfg), "--report", str(path)]) == 2, bad
        assert "usage error" in capsys.readouterr().err
        assert not path.exists()


def test_failure_and_search_exit_codes(monkeypatch, capsys):
    failing = Report(
        config={"suite": "ring-Z", "rank": 2, "class": 2, "trials": 1, "seed": 0, "m_range": [-5, 5]},
        checks=[
            {
                "name": "demo",
                "statement": "s",
                "passed": False,
                "trials": 1,
                "witness": {"m": 1},
                "certificate": None,
            }
        ],
        passed=False,
        version="0",
        wall_clock_seconds=0.0,
    )
    monkeypatch.setattr(cli, "run_suite", lambda cfg: failing)
    assert cli.main(["verify", "--suite", "ring-Z"]) == 1
    assert "FAIL" in capsys.readouterr().out

    def boom(cfg):
        raise SearchExhausted("budget gone")

    monkeypatch.setattr(cli, "run_suite", boom)
    assert cli.main(["verify", "--suite", "ring-Z"]) == 3
    assert "search error" in capsys.readouterr().err

    for exc in (
        DomainError("not an automorphism"),
        AssertionError("broken invariant"),
        InternalError("broken invariant"),
    ):

        def internal(cfg, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "run_suite", internal)
        assert cli.main(["verify", "--suite", "ring-Z"]) == 3
        assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [["list-suites"], ["verify", "--suite", "ring-Z", "--trials", "2"]], ids=["list-suites", "verify"]
)
def test_closed_stdout_is_not_a_failed_property(args):
    # the reader of the pipe is gone before the command writes; the command
    # still returns what it would with stdout open, and prints no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilaut.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilaut", *args], env=env, stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_falsifier_miss_is_a_search_error(capsys):
    # the order-3 falsifier samples; five trials miss on a swap-class
    # matrix, which proves nothing about it
    assert cli.main(["verify", "--suite", "interp-M", "--rank", "3", "--trials", "5", "--seed", "0"]) == 3
    assert "search error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "walk", "--trials", "2"],
        ["--suite", "proposition-sigma", "--rank", "2", "--class", "2", "--trials", "2"],
    ],
    ids=["walk", "proposition-sigma"],
)
def test_walk_that_runs_out_is_a_search_error(tmp_path, capsys, args):
    # at m = 0 alone the walks find no non-central successor, which proves
    # nothing about the walked matrix or the catalogued involution
    path = tmp_path / "r.json"
    assert cli.main(["verify"] + args + ["--m-range=0:0", "--report", str(path)]) == 3
    captured = capsys.readouterr()
    assert "search error" in captured.err and "FAIL" not in captured.out
    assert not path.exists()


@pytest.mark.parametrize(
    "suite,rank,nil_class,trials,seed",
    # interp-M runs the batched structure relations and the falsifier's
    # checks; lemma-2.2 at class 3 inverts members of every proper K_m;
    # one-step-down and lemma-2.1 decide their relations by comparing images
    [
        ("proposition-sigma", 2, 2, 3, 7),
        ("interp-M", 3, 2, 60, 11),
        ("lemma-2.2", 3, 3, 10, 5),
        ("one-step-down", 3, 3, 4, 5),
        ("lemma-2.1", 3, 3, 10, 5),
    ],
    ids=["proposition-sigma", "interp-M", "lemma-2.2", "one-step-down", "lemma-2.1"],
)
def test_optimized_interpreter_gives_the_same_report(tmp_path, suite, rank, nil_class, trials, seed):
    # internal invariants raise InternalError explicitly, so `python -O`,
    # which strips bare asserts, runs the same checks and writes the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilaut.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    args = ["-m", "nilaut", "verify", "--suite", suite, "--rank", str(rank),
            "--class", str(nil_class), "--trials", str(trials), "--seed", str(seed), "--report"]
    texts = []
    for flags, name in (([], "plain.json"), (["-O"], "optimized.json")):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, *flags, *args, str(path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(path.read_text())
    assert texts[0] == texts[1]


def test_readme_quick_tour_runs(capsys):
    # the README's one Python example runs as printed against this package
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilaut.__file__)))
    with open(os.path.join(os.path.dirname(src), "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README quick tour>", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "IntMatrix([[-3, 8], [-8, 21]])"


def test_oversized_context_is_usage_error(capsys):
    # the context size guard and the structure's rank cap refuse before
    # building anything
    for argv in (
        ["verify", "--suite", "group-axioms", "--rank", "1000", "--class", "9"],
        ["verify", "--suite", "interp-M", "--rank", "1000000000"],
    ):
        assert cli.main(argv) == 2
        assert "usage error" in capsys.readouterr().err


def test_package_imports_no_fractions():
    # the package computes in arbitrary-precision integers throughout
    pkg = os.path.dirname(os.path.abspath(nilaut.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert found == []


def test_package_has_no_bare_asserts():
    # `python -O` strips `assert` statements, so every internal invariant
    # raises InternalError instead, also in place of a bare AssertionError
    pkg = os.path.dirname(os.path.abspath(nilaut.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert found == []


def test_unchecked_matrices_are_built_only_in_glz():
    # IntMatrix._trusted skips the entry coercion and the shape checks, so
    # only a module that computes those entries itself may call it: glz,
    # and nilgroup once, for the Lyndon minors of its own basis series
    pkg = os.path.dirname(os.path.abspath(nilaut.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        if os.path.basename(path) == "glz.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_trusted") or (
                isinstance(node, ast.Name) and node.id == "_trusted"
            ):
                found.append(os.path.basename(path))
    assert found == ["nilgroup.py"]


def test_elements_from_coordinates_are_built_only_in_nilgroup():
    # GroupElement(ctx, exps) stores the exponents without the length and
    # integer checks of from_exponents, so only nilgroup may call it
    pkg = os.path.dirname(os.path.abspath(nilaut.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        if os.path.basename(path) == "nilgroup.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Name) and func.id == "GroupElement") or (
                isinstance(func, ast.Attribute) and func.attr == "GroupElement"
            ):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert found == []


def test_coordinates_leave_nilgroup_only_through_its_readers():
    # an element is its series; outside nilgroup its coordinates are read
    # only through .exponents and format_element
    pkg = os.path.dirname(os.path.abspath(nilaut.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        if os.path.basename(path) == "nilgroup.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            names = {getattr(node, field, None) for field in ("attr", "id", "name")}
            if names & {"_exponents", "_magnus"}:
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert found == []


def test_every_definition_has_a_caller_in_the_package():
    # a function or class that only tests call is surface the harness never
    # runs; the package's exports and the functions the benchmark tracer
    # wraps are the only entry points allowed no caller inside the package
    pkg = os.path.dirname(os.path.abspath(nilaut.__file__))
    tracer_path = os.path.join(os.path.dirname(os.path.dirname(pkg)), "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with open(os.path.join(pkg, "__init__.py")) as fh:
        init = ast.parse(fh.read())
    used = {name.rsplit(".", 1)[-1] for name in tracer.TRACED}
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            used.update(a.asname or a.name for a in node.names)
    defs = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, "%s:%d" % (os.path.basename(path), node.lineno)))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = [
        where for name, where in defs
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert found == []
