"""Rule-engine mechanics: suppressions, baseline round-trip, reporters.

The rules themselves are covered in test_analysis_rules.py; here the
machinery around them is pinned — because CI gates on the analyzer, a
bug in suppression handling or baseline matching silently turns the gate
off (or strands it red).
"""

import ast
import json

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
    analyze,
    registered_rules,
    render_json,
    render_text,
)
from repro.analysis.baseline import BASELINE_VERSION
from repro.analysis.engine import SUPPRESSION_RULE, walk
from repro.analysis.report import JSON_SCHEMA_VERSION

# a minimal file that trips hot-loop-alloc exactly once
BAD_HOT = """\
import numpy as np

def microkernel(c, a, b):
    for i in range(4):
        t = np.zeros(4)
    return c
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def analyze_source(tmp_path, text, name="mod.py", **kw):
    return analyze([_write(tmp_path, name, text)], root=tmp_path, **kw)


# ------------------------------------------------------------------ registry
def test_registry_has_every_documented_rule():
    rules = registered_rules()
    assert {
        "hot-loop-alloc",
        "barrier-pairing",
        "lock-discipline",
        "lock-blocking",
        "complete-funnel",
        "span-pairing",
        "tracer-guard",
    } <= set(rules)
    for spec in rules.values():
        assert spec.description


def test_unknown_rule_selection_raises(tmp_path):
    with pytest.raises(ValueError, match="no-such-rule"):
        analyze_source(tmp_path, "x = 1\n", rules=["no-such-rule"])


def test_walk_matches_ast_walk_on_every_call():
    tree = ast.parse(BAD_HOT)
    fn = tree.body[1]
    for node in (tree, fn, tree, fn):
        assert list(walk(node)) == list(ast.walk(node))


# -------------------------------------------------------------- suppressions
def test_finding_reported_without_suppression(tmp_path):
    result = analyze_source(tmp_path, BAD_HOT)
    assert [f.rule for f in result.findings] == ["hot-loop-alloc"]
    assert result.suppressions_used == 0


def test_inline_suppression_silences_named_rule(tmp_path):
    text = BAD_HOT.replace(
        "t = np.zeros(4)",
        "t = np.zeros(4)  # analysis: ignore[hot-loop-alloc]",
    )
    result = analyze_source(tmp_path, text)
    assert result.findings == []
    assert result.suppressions_used == 1


def test_bare_suppression_silences_all_rules(tmp_path):
    text = BAD_HOT.replace(
        "t = np.zeros(4)", "t = np.zeros(4)  # analysis: ignore"
    )
    result = analyze_source(tmp_path, text)
    assert result.findings == []


def test_suppression_for_other_rule_does_not_silence(tmp_path):
    text = BAD_HOT.replace(
        "t = np.zeros(4)",
        "t = np.zeros(4)  # analysis: ignore[span-pairing]",
    )
    result = analyze_source(tmp_path, text)
    assert [f.rule for f in result.findings] == ["hot-loop-alloc"]


def test_suppression_naming_unknown_rule_is_itself_a_finding(tmp_path):
    text = "x = 1  # analysis: ignore[definitely-not-a-rule]\n"
    result = analyze_source(tmp_path, text)
    assert [f.rule for f in result.findings] == [SUPPRESSION_RULE]
    assert "definitely-not-a-rule" in result.findings[0].message


def test_suppression_inside_docstring_is_inert(tmp_path):
    text = (
        '"""Docs showing `# analysis: ignore[nope]` as an example."""\n'
        "x = 1\n"
    )
    result = analyze_source(tmp_path, text)
    assert result.findings == []


# -------------------------------------------------------------- determinism
def test_findings_sorted_by_file_line_rule(tmp_path):
    _write(tmp_path, "b.py", BAD_HOT)
    _write(tmp_path, "a.py", BAD_HOT)
    result = analyze([tmp_path], root=tmp_path)
    assert [f.file for f in result.findings] == ["a.py", "b.py"]
    again = analyze([tmp_path], root=tmp_path)
    assert result.findings == again.findings


def test_parse_error_is_reported_not_fatal(tmp_path):
    _write(tmp_path, "broken.py", "def nope(:\n")
    _write(tmp_path, "fine.py", BAD_HOT)
    result = analyze([tmp_path], root=tmp_path)
    assert len(result.errors) == 1
    assert "broken.py" in result.errors[0][0]
    assert [f.file for f in result.findings] == ["fine.py"]


# ------------------------------------------------------------------ baseline
def test_baseline_round_trip(tmp_path):
    entries = [
        BaselineEntry(
            rule="lock-discipline",
            file="src/x.py",
            snippet="self.n += 1",
            count=2,
            justification="helper only called under the lock",
        )
    ]
    path = tmp_path / "baseline.json"
    Baseline(entries).dump(path)
    loaded = Baseline.load(path)
    assert loaded.entries == sorted(entries)
    data = json.loads(path.read_text())
    assert data["version"] == BASELINE_VERSION


def test_baseline_requires_justification():
    with pytest.raises(ValueError, match="justification"):
        Baseline(
            [BaselineEntry(rule="r", file="f", snippet="s", justification="")]
        )


def test_baseline_compare_matches_by_snippet_not_line():
    finding = Finding(
        file="f.py", line=99, rule="hot-loop-alloc",
        message="m", snippet="t = np.zeros(4)",
    )
    baseline = Baseline([
        BaselineEntry(
            rule="hot-loop-alloc", file="f.py",
            snippet="t = np.zeros(4)", justification="perf fix pending",
        )
    ])
    comparison = baseline.compare([finding])
    assert comparison.new == []
    assert comparison.matched == [finding]
    assert comparison.stale == []
    assert comparison.clean and comparison.strict_clean


def test_baseline_compare_counts_and_stale():
    make = lambda line: Finding(
        file="f.py", line=line, rule="r", message="m", snippet="s"
    )
    baseline = Baseline([
        BaselineEntry(rule="r", file="f.py", snippet="s", count=1,
                      justification="one is tolerated"),
        BaselineEntry(rule="q", file="g.py", snippet="gone", count=1,
                      justification="was fixed"),
    ])
    comparison = baseline.compare([make(1), make(2)])
    assert len(comparison.matched) == 1
    assert len(comparison.new) == 1  # second occurrence exceeds count
    assert [e.rule for e in comparison.stale] == ["q"]
    assert not comparison.clean
    assert not comparison.strict_clean


def test_baseline_from_findings_covers_run(tmp_path):
    result = analyze_source(tmp_path, BAD_HOT)
    baseline = Baseline.from_findings(result.findings, justification="wip")
    assert baseline.compare(result.findings).clean


# ----------------------------------------------------------------- reporters
def test_json_report_schema_and_stability(tmp_path):
    result = analyze_source(tmp_path, BAD_HOT)
    rendered = render_json(result)
    payload = json.loads(rendered)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["files_analyzed"] == 1
    assert set(payload["findings"][0]) == {
        "file", "line", "rule", "message", "snippet",
    }
    assert payload["findings"][0]["rule"] == "hot-loop-alloc"
    assert "hot-loop-alloc" in payload["rules"]
    # byte-stable across runs
    assert rendered == render_json(analyze_source(tmp_path, BAD_HOT, name="mod2.py")).replace("mod2.py", "mod.py")


def test_text_report_mentions_location_and_rule(tmp_path):
    result = analyze_source(tmp_path, BAD_HOT)
    text = render_text(result)
    assert "mod.py:5" in text
    assert "[hot-loop-alloc]" in text
    assert "1 finding(s)" in text
