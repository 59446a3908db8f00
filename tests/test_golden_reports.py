"""Canonical reports must stay byte-identical to the committed golden files.

The files under ``golden/reports`` were generated by ``golden/gen_reports.py``;
any difference here means the simulation's observable behaviour changed.
"""

import pytest

from golden.gen_reports import REPORTS, golden_names, report_bytes


def test_golden_set_is_complete():
    reports = [p.stem for p in REPORTS.glob("*.json") if not p.name.endswith(".config.json")]
    assert len(golden_names()) == 8
    assert sorted(reports) == sorted(golden_names())


@pytest.mark.parametrize("name", golden_names())
def test_report_bytes_match_golden(name):
    assert report_bytes(name) == (REPORTS / f"{name}.json").read_bytes()
