"""The analyzer against the actual repository: the CI gate, as a test.

If a change introduces a new invariant violation anywhere in
``src/repro``, this fails with the same report CI would print — before
the PR ever reaches CI.

A full-repo analysis takes seconds, so the in-process run and the CLI
``--json`` run are each made once per session and shared; ``--strict``
and ``scripts/run_analysis.py`` keep their own runs, since those entry
points are what they test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import Baseline, analyze, render_json
from repro.analysis.cli import DEFAULT_BASELINE

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="session")
def repo_result():
    """One in-process analysis of the whole package."""
    return analyze([PACKAGE], root=REPO_ROOT)


@pytest.fixture(scope="session")
def cli_json(tmp_path_factory):
    """The ``--json`` report of one CLI analysis of the repository."""
    out = tmp_path_factory.mktemp("analysis") / "report.json"
    proc = _run_cli("--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out.read_text()


def test_repo_is_clean_against_committed_baseline(repo_result):
    result = repo_result
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    comparison = baseline.compare(result.findings)
    assert comparison.new == [], "\n".join(
        f"{f.location()}: [{f.rule}] {f.message}" for f in comparison.new
    )
    assert comparison.stale == [], [e.key() for e in comparison.stale]
    assert result.errors == []


def test_every_rule_ran_over_a_meaningful_corpus(repo_result):
    result = repo_result
    # the package is large enough that an analyzer silently skipping
    # files would be visible here
    assert result.files > 50


def _run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_strict_exits_zero_on_repo():
    proc = _run_cli("--strict")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_exits_nonzero_on_bad_fixture(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "def microkernel(c):\n"
        "    for i in range(4):\n"
        "        t = np.zeros(4)\n"
    )
    proc = _run_cli("--paths", str(bad), "--no-baseline")
    assert proc.returncode == 1
    assert "hot-loop-alloc" in proc.stdout


def test_cli_json_output_is_stable_and_sorted(cli_json, repo_result):
    # two independent full runs (the CLI one and the in-process one)
    # must render byte-identical reports
    assert cli_json == render_json(repo_result)
    payload = json.loads(cli_json)
    findings = payload["findings"]
    assert findings == sorted(
        findings, key=lambda f: (f["file"], f["line"], f["rule"], f["message"])
    )


def test_render_json_matches_cli_output(cli_json, repo_result):
    assert cli_json == render_json(repo_result)


def test_run_analysis_script_strict():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_analysis.py"),
         "--strict"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
