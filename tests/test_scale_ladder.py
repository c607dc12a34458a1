"""The scale ladder script (`scale_ladder.py`): its schema, its two
smallest set rungs and its smallest relative rung, and a timeout recorded
as data."""

import json

import pytest

import scale_ladder


def test_two_smallest_rungs_write_a_checked_document(tmp_path):
    out = tmp_path / "ladder.json"
    assert scale_ladder.main(["--out", str(out), "--rungs", "D4", "D6", "--timeout", "120"]) == 0
    doc = json.loads(out.read_text())
    scale_ladder.check(doc)
    recs = doc["records"]
    assert [(r["set"], r["field"]) for r in recs] == [
        ("D4", "q"), ("D6", "q"), ("D4", "fp:1009"), ("D6", "fp:1009")]
    assert all(r["status"] == "ok" and r["peak_rss_mb"] > 0 and r["calib_s"] > 0
               for r in recs)
    assert abs(recs[0]["total_s"] - recs[0]["build_s"] - recs[0]["table_s"]) < 1e-6
    # the same set has the same chains over both fields; D6 has 18,731
    assert recs[1]["chains"] == recs[3]["chains"] == 18731
    assert recs[0]["chains"] == recs[2]["chains"] and recs[0]["components"] == 124


def test_relative_rung_writes_a_checked_document(tmp_path):
    out = tmp_path / "ladder.json"
    assert scale_ladder.main(["--out", str(out), "--rungs", "les_relative(D4,S3)",
                              "--fields", "q", "--timeout", "120"]) == 0
    doc = json.loads(out.read_text())
    scale_ladder.check(doc)
    [rec] = doc["records"]
    assert (rec["set"], rec["field"], rec["status"]) == ("les_relative(D4,S3)", "q", "ok")
    assert rec["total_s"] > 0 and rec["peak_rss_mb"] > 0 and rec["calib_s"] > 0
    # a call rung records no table measurements, and needs its own three
    del rec["total_s"]
    with pytest.raises(ValueError, match="missing"):
        scale_ladder.check(doc)


def test_a_timeout_is_recorded_as_data(tmp_path):
    out = tmp_path / "ladder.json"
    scale_ladder.main(["--out", str(out), "--rungs", "D6", "--fields", "q",
                       "--timeout", "0.01"])
    doc = json.loads(out.read_text())
    scale_ladder.check(doc)
    assert doc["records"][0]["status"] == "timeout"


def test_check_rejects_a_record_without_measurements():
    rec = {"set": "D4", "field": "q", "commit": None, "round": 0, "status": "ok"}
    with pytest.raises(ValueError, match="missing"):
        scale_ladder.check({"schema": scale_ladder.SCHEMA, "host": {}, "python": "3",
                            "records": [rec]})
