#!/usr/bin/env python3
"""Rewrite expected.json: SHA-256 of each simulation workload's canonical
report bytes (crowds at the default seed, with their config digests).

    python3 bench/record_expected.py

Re-record only when a change alters the reports on purpose and says so.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))


def main() -> int:
    expected: dict = {}
    for workload in ("bundled", *run.SHAPES):
        configs = run.sim_configs(workload, run.DEFAULT_SEED)
        digests = [hashlib.sha256(b).hexdigest() for b in run.run_pass(configs)]
        if workload == "bundled":
            expected[workload] = {c["name"]: d for c, d in zip(configs, digests)}
        else:
            expected[workload] = {
                "seed": run.DEFAULT_SEED,
                "config_sha256": run.config_sha256(configs[0]),
                "report_sha256": digests[0],
            }
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
