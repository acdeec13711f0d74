import json
import os
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


def test_optimized_interpreter_gives_the_same_report(tmp_path):
    # internal invariants raise InternalError explicitly, so `python -O`,
    # which strips bare asserts, runs the same checks and writes the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilaut.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    args = ["-m", "nilaut", "verify", "--suite", "proposition-sigma", "--rank", "2",
            "--class", "2", "--trials", "3", "--seed", "7", "--report"]
    texts = []
    for flags, name in (([], "plain.json"), (["-O"], "optimized.json")):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, *flags, *args, str(path)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(path.read_text())
    assert texts[0] == texts[1]
