import json

import pytest

from peskine_lab.report import (
    CheckReport,
    emit_report,
    report_from_dict,
    summary_table,
)


def sample_reports():
    return [
        CheckReport("b-check", seed=1, p=7, status="PASS", metrics={"x": 1}, runtime_ms=40),
        CheckReport("a-check", seed=1, p=[7, 11], status="FAIL", metrics={}, runtime_ms=9),
        CheckReport("c-check", seed=2, p=None, status="REPORT_ONLY", runtime_ms=3),
    ]


def test_status_validation():
    with pytest.raises(ValueError):
        CheckReport("x", seed=0, p=7, status="MAYBE")


def test_stable_bytes_exclude_runtime():
    a = CheckReport("x", seed=0, p=7, metrics={"v": 2}, runtime_ms=10)
    b = CheckReport("x", seed=0, p=7, metrics={"v": 2}, runtime_ms=99999)
    assert a.stable_bytes() == b.stable_bytes()
    assert b"runtime" not in a.stable_bytes()


def test_stable_bytes_canonical_key_order():
    a = CheckReport("x", seed=0, p=7, metrics={"b": 1, "a": 2})
    b = CheckReport("x", seed=0, p=7, metrics={"a": 2, "b": 1})
    assert a.stable_bytes() == b.stable_bytes()


def test_roundtrip_through_dict():
    for rep in sample_reports():
        again = report_from_dict(rep.to_dict())
        assert again == rep


def test_summary_table_sorted_with_tallies():
    table = summary_table(sample_reports())
    lines = table.splitlines()
    assert lines[0].startswith("a-check")
    assert lines[1].startswith("b-check")
    assert lines[2].startswith("c-check")
    assert "PASS=1" in lines[-1]
    assert "FAIL=1" in lines[-1]
    assert "REPORT_ONLY=1" in lines[-1]


def test_emit_report_document(tmp_path):
    path = tmp_path / "agg.json"
    table = emit_report(sample_reports(), path)
    assert "a-check" in table
    doc = json.loads(path.read_text())
    assert set(doc) == {"reports", "timings_ms", "summary"}
    ids = [row["check_id"] for row in doc["reports"]]
    assert ids == sorted(ids)
    assert all("runtime_ms" not in row for row in doc["reports"])
    assert doc["summary"]["PASS"] == 1
    assert doc["summary"]["FAIL"] == 1
    assert doc["timings_ms"]["b-check#1"] == 40


def test_emit_report_stable_region(tmp_path):
    reps = sample_reports()
    emit_report(reps, tmp_path / "one.json")
    slow = [
        CheckReport(
            r.check_id, r.seed, r.p, r.params, r.status, r.metrics, r.runtime_ms + 1000
        )
        for r in reps
    ]
    emit_report(slow, tmp_path / "two.json")
    one = json.loads((tmp_path / "one.json").read_text())
    two = json.loads((tmp_path / "two.json").read_text())
    assert one["reports"] == two["reports"]
    assert one["timings_ms"] != two["timings_ms"]
    assert [r.stable_bytes() for r in reps] == [r.stable_bytes() for r in slow]
