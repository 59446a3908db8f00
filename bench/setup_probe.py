"""Set-up probe for the simulation workloads, run in a fresh interpreter.

Reads a JSON list of scenario configs on stdin, then times
``import relaysim`` plus ``load_config`` and ``World(config)`` for each
config, i.e. everything before the first tick.  With ``--run`` it then runs
one pass over the configs and adds the process's peak resident memory, so
that figure holds the program and not the benchmark harness.  Prints one
JSON object.  Run it with the package on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main() -> int:
    configs = json.load(sys.stdin)
    start = perf_counter()
    import relaysim
    from relaysim.scenario import World

    for config in configs:
        World(relaysim.load_config(config))
    result = {"setup_s": perf_counter() - start}
    if "--run" in sys.argv[1:]:
        for config in configs:
            World(relaysim.load_config(config)).run().to_json_bytes()
        # Linux reports KiB.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
