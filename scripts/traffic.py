"""List the statements of the poleplace package the benchmark traffic never
executes.

    python3 scripts/traffic.py

The traffic is what the benchmark declared in BENCHMARK.json runs: every
workload's set-up, ops and checks (perfbench/workloads.py) at seeds 1
and 2, plus ``poleplace bench --corpus corpus`` at the CLI's default of
10 restarts.  Each op runs once, in this process, with `sys.settrace`
recording the lines executed in src/poleplace.  The output has the form
of scripts/uncovered.py's: each statement that never ran as
``module.py:line  source``, then the count.  A statement listed here is
one a change can alter without moving any benchmark figure.  Inputs are
fixed; a run takes a few seconds.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from uncovered import SRC, print_missed, trace_package  # noqa: E402


def traffic():
    """Run the benchmark traffic once; returns the number of ops."""
    import poleplace as pp
    import poleplace.bench  # noqa: F401  (submodules used by name)
    import poleplace.cli
    import workloads

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["workloads"]]
    count = 0
    for name in names:
        for seed in SEEDS:
            for _, run, check in workloads.WORKLOADS[name](pp, seed):
                check(run())
                count += 1
    with contextlib.redirect_stdout(io.StringIO()):
        code = poleplace.cli.main(["bench", "--corpus", str(ROOT / "corpus")])
    if code != 0:
        raise SystemExit(f"poleplace bench exited {code}")
    return count + 1


def main():
    sys.path.insert(0, str(SRC.parent))
    sys.path.insert(0, str(ROOT / "perfbench"))
    ops, executed = trace_package(traffic)
    print(f"{ops} ops traced")
    print_missed(executed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
