"""Canonical reports must stay byte-identical to the committed golden files.

The files under ``golden/reports`` were generated by ``golden/gen_reports.py``;
any difference here means the simulation's observable behaviour changed.
``golden/tables`` holds the ``--format table`` text of each golden report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.gen_reports import REPORTS, TABLES, golden_names, report_bytes, table_text

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize(
    "name, source",
    [
        ("scenario1", "scenario1"),
        ("crowd_guarded_small", str(REPORTS / "crowd_guarded_small.config.json")),
    ],
)
def test_reports_do_not_depend_on_the_hash_seed(name, source):
    # The package keys dicts and sets by bytes, str and tuples, whose hash
    # order changes with PYTHONHASHSEED: none of it may reach a report.
    # The crowd runs the defense, whose rows are keyed by (pair, cell).
    reports = [
        subprocess.run(
            [sys.executable, "-m", "relaysim.cli", "run", source],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("0", "12345")
    ]
    assert reports == [(REPORTS / f"{name}.json").read_bytes()] * 2
