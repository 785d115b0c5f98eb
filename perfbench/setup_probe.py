"""Time one workload's set-up in a fresh interpreter.

Started by ``run.py``, which notes ``time.monotonic()`` just before the
start: the difference to the ``ready`` stamp printed here is the whole
set-up (interpreter start, ``import repro``, spec construction and, for
cycle workloads, ``build_network``).  ``time.monotonic`` reads the
system-wide monotonic clock, so the two processes' stamps compare.

    python3 perfbench/setup_probe.py <workload> <seed> <src dir>

Prints one JSON line: the ``ready`` stamp and ``build_network_s``, the
part of the set-up after ``import repro``.
"""

import json
import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, sys.argv[3])
    from workloads import WORKLOADS

    t_import = time.monotonic()
    workload = WORKLOADS[name]
    spec = workload.spec(seed)
    if workload.engine == "cycle":
        from repro.scenario import build_network

        build_network(spec)
    ready = time.monotonic()
    print(json.dumps({
        "ready": ready,
        "build_network_s": ready - t_import,
    }))


if __name__ == "__main__":
    main()
