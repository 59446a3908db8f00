"""Canonical reports must stay byte-identical to the committed golden files.

The files under ``golden/reports`` were generated by ``golden/gen_reports.py``;
any difference here means the simulation's observable behaviour changed.
``golden/tables`` holds the ``--format table`` text of each golden report.
"""

import pytest

from golden.gen_reports import REPORTS, TABLES, golden_names, report_bytes, table_text


def test_golden_set_is_complete():
    reports = [p.stem for p in REPORTS.glob("*.json") if not p.name.endswith(".config.json")]
    assert len(golden_names()) == 9
    assert sorted(reports) == sorted(golden_names())


@pytest.mark.parametrize("name", golden_names())
def test_report_bytes_match_golden(name):
    assert report_bytes(name) == (REPORTS / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", golden_names())
def test_table_matches_golden(name):
    assert table_text(name) == (TABLES / f"{name}.txt").read_text()
