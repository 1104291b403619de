"""Time placement and evaluation layers of two source trees in one interpreter.

    python3 scripts/bench_operator.py --parent ../parent --change . \
        --out BENCH.json

Both trees' `src/poleplace` packages are loaded side by side in this one
process, under the distinct names poleplace_parent and poleplace_change,
and their calls are interleaved: every repeat times the parent's call and
the change's call back to back, alternating which goes first.  So both
sides meet the same state of the host, down to the µs, which separate
interpreters per tree cannot give.  BLAS is pinned to one thread.  The
instances are drawn by the change tree's perfbench generators from seed 1,
once per tree from equal generator states, so both sides get the same
inputs.  Three sections are written:

- "operator_build": one `Placer.operator()` build from empty caches (each
  build starts from a copy of the attributes the placer had right after
  `Placer()`, so every cache the operator fills is rebuilt), on the
  random_normality structures of perfbench at n = 4..6, m = 2 and the
  place_ladder structures at (16, 4) and (32, 8).
- "round_trip": one `Placer.build_chains`, one `Placer.place` and one
  `Placer.recover_parameters` call on the same K (recover on its chains),
  per place_ladder cell (each (n, m) of the ladder with each structure
  class), each timed after one untimed call that fills any lazily built
  cache.
- "evaluation": one stacked `_Evaluator.points` call on k in {1, 2, 4, 8}
  probes x + t p, t = 1, 1/2, ..., of one line, from a nonsingular start
  x, the rows the line search hands it.  The instances are the normality
  objective (alpha = 1) on the random_normality structures at n = 4..6,
  m = 2 above, and the condition objective (alpha = 1) on the corpus entry
  bn02_distillation.

Each section runs ROUNDS rounds (EVALUATION_ROUNDS for "evaluation") of
its repeats.  The record holds each side's minimum and median over all
rounds, its median in each round (so that a difference can be judged
against the round-to-round spread of either side) and the change/parent
ratio of the overall medians.  The sections are stored under their keys of
the --out JSON file, which is created when missing and otherwise updated
in place.
"""

import os

# before numpy is imported: one BLAS thread, as perfbench runs
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# (label, n, m, generator, structure class)
INSTANCES = (
    ("n4-m2-simple", 4, 2, "normality", "simple"),
    ("n5-m2-defective", 5, 2, "normality", "defective"),
    ("n6-m2-simple", 6, 2, "normality", "simple"),
    ("n16-m4-defective", 16, 4, "ladder", "defective"),
    ("n32-m8-simple", 32, 8, "ladder", "simple"),
)
PROBES = (1, 2, 4, 8)
REPEATS = 20
ROUND_TRIP_REPEATS = 200
EVALUATION_REPEATS = 300
EVALUATION_ROUNDS = 8
ROUNDS = 4


def load_module(name, path, package_dir=None):
    """Import the file at path as module `name`; with package_dir, as a
    package whose submodules are found there."""
    spec = importlib.util.spec_from_file_location(
        name, path,
        submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree, side):
    """The poleplace package of a source tree, as poleplace_<side>."""
    src = tree / "src" / "poleplace"
    return load_module(f"poleplace_{side}", src / "__init__.py", src)


def interleaved(calls, repeats, rounds):
    """{side: [[seconds of each call] per round]}, timing the calls of
    calls = {side: call} back to back, the first side alternating."""
    times = {side: [[] for _ in range(rounds)] for side in calls}
    sides = list(calls)
    for r in range(rounds):
        for i in range(repeats):
            for side in sides if (r + i) % 2 == 0 else sides[::-1]:
                t0 = time.perf_counter()
                calls[side]()
                times[side][r].append(time.perf_counter() - t0)
    return times


def compare(rounds, label):
    """Both sides' minimum and median over all rounds and their median per
    round, from {side: [call times of one round, ...]}, and the ratio of the
    change's median to the parent's."""
    row = {}
    for side in ("parent", "change"):
        times = [t for run in rounds[side] for t in run]
        row[side] = {"min_s": min(times),
                     "median_s": statistics.median(times),
                     "round_medians_s": [statistics.median(run)
                                         for run in rounds[side]]}
    ratio = row["change"]["median_s"] / row["parent"]["median_s"]
    row["change_over_parent"] = ratio
    spread = [[t * 1e6 for t in row[side]["round_medians_s"]]
              for side in ("parent", "change")]
    print(f"{label}: {row['parent']['median_s'] * 1e6:.1f} -> "
          f"{row['change']['median_s'] * 1e6:.1f} us ({ratio:.4f}); rounds "
          + " -> ".join(f"{min(v):.1f}..{max(v):.1f}" for v in spread),
          flush=True)
    return row


def instance(pp, workloads, n, m, gen, cls, rng):
    """A placer on the perfbench instance of the given generator."""
    if gen == "normality":
        def make(r):
            return workloads.normality_structure(pp, r, n, cls)
    else:
        def make(r):
            return workloads.ladder_structure(pp, r, n, m, cls)
    return pp.Placer(*workloads.admissible_instance(pp, rng, n, m, make))


def operator_builds(pps, workloads):
    rows = {}
    for label, n, m, gen, cls in INSTANCES:
        calls = {}
        for side, pp in pps.items():
            placer = instance(pp, workloads, n, m, gen, cls,
                              np.random.default_rng([1, n, m]))
            fresh = dict(placer.__dict__)

            def build(placer=placer, fresh=fresh):
                # back to the freshly built placer, whatever its caches are called
                placer.__dict__ = dict(fresh)
                placer.operator()

            calls[side] = build
        rows[label] = compare(interleaved(calls, REPEATS, ROUNDS), label)
    return rows


def round_trips(pps, workloads):
    rows = {}
    for n, m in workloads.LADDER_CELLS:
        for cls in workloads.STRUCTURE_CLASSES:
            cell = f"n{n}-m{m}-{cls}"
            calls = {"build_chains": {}, "place": {}, "recover": {}}
            for side, pp in pps.items():
                rng = np.random.default_rng([1, n, m])
                placer = instance(pp, workloads, n, m, "ladder", cls, rng)
                while True:
                    K = pp.ParameterMatrix.random(placer.spec, m, rng)
                    try:
                        placer.place(K)
                        break
                    except pp.SingularMatrixError:
                        continue
                chains = placer.build_chains(K)
                placer.recover_parameters(chains)
                calls["build_chains"][side] = lambda p=placer, K=K: p.build_chains(K)
                calls["place"][side] = lambda p=placer, K=K: p.place(K)
                calls["recover"][side] = (
                    lambda p=placer, c=chains: p.recover_parameters(c))
            rows[cell] = {
                call: compare(interleaved(by_side, ROUND_TRIP_REPEATS, ROUNDS),
                              f"{cell} {call}")
                for call, by_side in calls.items()
            }
    return rows


def evaluations(pps, workloads):
    cases = [(f"normality-{label}", "normality", n, m, cls)
             for label, n, m, gen, cls in INSTANCES if gen == "normality"]
    cases.append(("condition-bn02", "condition", None, None, None))
    rows = {}
    for label, method, n, m, cls in cases:
        evaluators = {}
        for side, pp in pps.items():
            if method == "normality":
                rng = np.random.default_rng([1, n, m])
                sys_, spec = workloads.admissible_instance(
                    pp, rng, n, m,
                    lambda r, pp=pp: workloads.normality_structure(pp, r, n, cls))
            else:
                rng = np.random.default_rng(1)
                sys_ = pp.load_system(workloads.CORPUS / "bn02_distillation.json").system
                spec = pp.defective_zero_structure(sys_)
            evaluators[side] = pp.optimize._Evaluator(
                pp.ObjectiveSpec(method, 1.0), pp.Placer(sys_, spec))
        # one start and one line for both sides, from the change's generator
        while True:
            x = rng.standard_normal(evaluators["change"].L.shape[1])
            if evaluators["change"].point(x) is not None:
                break
        X = x + 0.5 ** np.arange(max(PROBES))[:, None] * rng.standard_normal(x.size)
        rows[label] = {
            k: {"points": compare(
                interleaved({side: lambda e=e, k=k: e.points(X[:k])
                             for side, e in evaluators.items()},
                            EVALUATION_REPEATS, EVALUATION_ROUNDS),
                f"{label} k={k} points")}
            for k in PROBES
        }
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {side: getattr(args, side).resolve() for side in ("parent", "change")}
    pps = {side: load_tree(tree, side) for side, tree in trees.items()}
    workloads = load_module("perfbench_workloads",
                            trees["change"] / "perfbench" / "workloads.py")

    common = {"blas_threads": "1",
              "timing": "both trees in one interpreter, calls interleaved"}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["operator_build"] = dict(
        question="wall time of one Placer.operator() build from empty caches",
        repeats=REPEATS, rounds=ROUNDS, **common,
        instances=operator_builds(pps, workloads))
    doc["round_trip"] = dict(
        question="wall time of one Placer.build_chains, one Placer.place and "
                 "one Placer.recover_parameters call per place_ladder cell",
        repeats=ROUND_TRIP_REPEATS, rounds=ROUNDS, **common,
        cells=round_trips(pps, workloads))
    doc["evaluation"] = dict(
        question="wall time of one stacked _Evaluator.points call on k "
                 "probes of one line",
        repeats=EVALUATION_REPEATS, rounds=EVALUATION_ROUNDS, **common,
        instances=evaluations(pps, workloads))
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
