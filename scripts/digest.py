"""Hash the outputs of the benchmark traffic, to show two source trees agree.

    python3 scripts/digest.py [SRC_DIR]

SRC_DIR is the root of a checkout of this repository (default: the one
this script sits in); the package is imported from SRC_DIR/src and the
workloads from SRC_DIR/perfbench, so one copy of the script digests any
tree, a parent commit's included.  It runs every op of every workload
that BENCHMARK.json declares once at seeds 1 and 2, as scripts/traffic.py
does, then the random_normality ops again with the objective at
alpha = 0.5, once for each method, then ``poleplace bench --corpus corpus
--format csv`` at 1 and at 10 restarts, and prints one SHA-256 per
workload, one per blended objective, one for the bench runs and one over
all of them.  Two trees that print the same lines computed the same bits.

The hash covers arrays by dtype, shape and bytes, floats by ``repr``, and
every field of a result: an optimizer result's traces, terminations,
evaluations and metrics, the ``best_K`` vector and blocks, and a
placement's V, W, F, residual, X and cond_V.  A CSV table is hashed
without its ``runtime_s`` column, the one output that is a timing.  A run
takes about a second.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

SEEDS = (1, 2)
BENCH_RESTARTS = (1, 10)
# the objectives the random_normality ops are run with again, as
# (method, alpha): the workload's own is normality at alpha = 1
BLENDED = (("condition", 0.5), ("normality", 0.5))


def _without_runtime(text):
    """A CSV table with its runtime_s column removed."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "runtime_s" not in rows[0]:
        return text
    j = rows[0].index("runtime_s")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:j] + row[j + 1:] for row in rows)
    return out.getvalue()


def feed(h, obj, pp):
    """Add obj to the hash h, tagged with its type, recursively."""
    def tag(text):
        h.update(text.encode() + b"\0")

    if isinstance(obj, np.ndarray):
        tag(f"array {obj.dtype.str} {obj.shape}")
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, str):
        tag("str " + _without_runtime(obj))
    elif obj is None or isinstance(obj, (bool, int, float, complex, np.generic)):
        tag(f"{type(obj).__name__} {obj!r}")
    elif isinstance(obj, (tuple, list)):
        tag(f"{type(obj).__name__} {len(obj)}")
        for item in obj:
            feed(h, item, pp)
    elif isinstance(obj, dict):
        tag(f"dict {len(obj)}")
        for key, value in obj.items():
            feed(h, key, pp)
            feed(h, value, pp)
    elif isinstance(obj, pp.ParameterMatrix):
        tag("ParameterMatrix")
        feed(h, (obj.sigma, obj.to_vector(), obj.blocks), pp)
    elif isinstance(obj, pp.PlacementResult):
        tag("PlacementResult")
        feed(h, (obj.V, obj.W, obj.F, obj.residual, obj.X, obj.cond_V), pp)
    elif dataclasses.is_dataclass(obj):
        tag(type(obj).__name__)
        for f in dataclasses.fields(obj):
            feed(h, (f.name, getattr(obj, f.name)), pp)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def _digest_ops(ops, pp):
    """The hash of each op's name, outputs and check result, in order."""
    h = hashlib.sha256()
    for name, run, check in ops:
        try:
            outputs = run()
        except pp.PolePlaceError as exc:
            feed(h, (name, "raised", type(exc).__name__, str(exc)), pp)
            continue
        feed(h, (name, outputs, check(outputs)), pp)
    return h.hexdigest()


def _with_objective(ops, pp, obj):
    """ops whose runs make every `optimize.minimize` call with the
    objective obj in place of the workload's."""
    minimize = pp.optimize.minimize

    def run_with(run):
        pp.optimize.minimize = lambda _, *args: minimize(obj, *args)
        try:
            return run()
        finally:
            pp.optimize.minimize = minimize

    return [(name, lambda run=run: run_with(run), check) for name, run, check in ops]


def digest(root):
    """(label, SHA-256) per workload, per blended objective and for the
    bench runs."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    import poleplace as pp
    import poleplace.bench  # noqa: F401  (submodules used by name)
    import poleplace.cli
    import workloads

    if Path(pp.__file__).resolve().parent != (root / "src" / "poleplace").resolve():
        raise SystemExit(f"imported poleplace from {pp.__file__}, not from {root}")
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())
             ["workloads"]]
    lines = []
    for name in names:
        ops = [op for seed in SEEDS for op in workloads.WORKLOADS[name](pp, seed)]
        lines.append((name, _digest_ops(ops, pp)))
    normality = [op for seed in SEEDS
                 for op in workloads.WORKLOADS["random_normality"](pp, seed)]
    for method, alpha in BLENDED:
        ops = _with_objective(normality, pp, pp.ObjectiveSpec(method, alpha))
        lines.append((f"alpha{alpha}_{method}", _digest_ops(ops, pp)))

    def bench(restarts):
        out = io.StringIO()
        argv = ["bench", "--corpus", str(root / "corpus"), "--format", "csv",
                "--restarts", str(restarts)]
        with contextlib.redirect_stdout(out):
            code = poleplace.cli.main(argv)
        return code, out.getvalue()

    lines.append(("poleplace_bench", _digest_ops(
        [(f"restarts={r}", lambda r=r: bench(r), lambda outputs: None)
         for r in BENCH_RESTARTS], pp)))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    lines = digest(root.resolve())
    total = hashlib.sha256()
    for label, value in lines:
        print(f"{label:18} {value}")
        total.update(f"{label} {value}\n".encode())
    print(f"{'total':18} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
