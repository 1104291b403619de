"""Run the benchmark harness over the shipped corpus and print the table.

Entries without an embedded structure get the standard defective treatment
(all poles zero, blocks = controllability indices).  Stored published
baselines render side by side.  The same table is available from the
command line:

    poleplace bench --corpus corpus --restarts 6 --max-iters 300 --seed 0
"""

from pathlib import Path

import poleplace as pp
from poleplace.report import render_csv, render_markdown

# the shipped corpus beside demos/, so the demo runs from any directory
entries = pp.load_corpus(Path(__file__).resolve().parent.parent / "corpus")
print(f"{len(entries)} corpus entries:", ", ".join(e.name for e in entries))
print()

rows = pp.run_bench(
    entries,
    pp.ObjectiveSpec("condition", 1.0),
    pp.OptOptions(restarts=4, max_iters=200, seed=0),
)
print(render_markdown(rows))
print("CSV payload (full precision):")
print(render_csv(rows))
