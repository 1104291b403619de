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
inputs.  Eight sections are written (--sections picks some of them):

- "operator_build": one `Placer.operator()` build from empty caches (each
  build starts from a copy of the attributes the placer had right after
  `Placer()`, so every cache the operator fills is rebuilt), on the
  random_normality structures of perfbench at n = 4..6, m = 2 and the
  place_ladder structures at (16, 4) and (32, 8).
- "first_place": one `Placer.place` from empty caches, reset as for
  "operator_build", on the same instances and the place_ladder structures
  at (8, 2) and (16, 8): the cost of a one-shot placement, which builds
  the placement map.
- "round_trip": one `Placer.build_chains`, one `Placer.place` and one
  `Placer.recover_parameters` call on the same K (recover on its chains),
  per place_ladder cell (each (n, m) of the ladder with each structure
  class), each timed after one untimed call that fills any lazily built
  cache.  Beside the times, each cell's "recover" records whether each
  side accepts the chain set and whether the two recovered coordinate
  vectors are bit-identical, and its "place" records its quality: both
  sides' residual over its acceptance bound, how far the change's F lies
  from the parent's, in units of cond(V) eps (1 + ||F||_F), and how far
  the change's residual lies from the parent's, in units of
  eps residual_scale(F) ||V||_F.
- "evaluation": one stacked `_Evaluator.points` call on k in {1, 2, 4, 8}
  probes x + t p, t = 1, 1/2, ..., of one line, from a nonsingular start
  x, the rows the line search hands it.  The instances are the normality
  objective (alpha = 1) on the random_normality structures at n = 4..6,
  m = 2 above, and the condition objective (alpha = 1) on the corpus entry
  bn02_distillation.
- "gradient": one `_Evaluator.grad` at an accepted point, the start x
  of each "evaluation" instance, with the relative distance of the
  change's gradient from the parent's.
- "certificate": one `linalg.nonsingular_inverses` call, the singularity
  rule of every probe, `Placer.place` and `kappa_fro`, on stacks of k in
  {1, 8} matrices of the n = 5 random_normality instance above: the real
  V and the complex eigenvector matrices X of placements at nonsingular
  draws of K.
- "restart": one BFGS restart, `optimize._bfgs_restart` from an evaluated
  start to its own stop under the default `OptOptions`, in the
  restart's error state, per BFGS iteration (the call's time over its
  accepted steps), on the n = 5 normality and the bn02 condition
  instances of "evaluation".  Each row records the steps and whether both
  sides' restarts are bit-identical (end point, value, trace,
  termination and probe count).
- "placer": one `Placer()` build on each of INSTANCES: the pencils, from
  one stacked SVD per dtype.

Each section runs ROUNDS rounds (EVALUATION_ROUNDS for "evaluation",
"gradient" and "certificate") of its repeats.  The record holds each side's minimum and median over all
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
FIRST_PLACE_INSTANCES = INSTANCES + (
    ("n8-m2-simple", 8, 2, "ladder", "simple"),
    ("n16-m8-repeated", 16, 8, "ladder", "repeated"),
)
PROBES = (1, 2, 4, 8)
CERTIFICATE_STACKS = (1, 8)
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


def nonsingular_parameter(pp, placer, rng):
    """The first draw of K that the placer places without a singular V."""
    while True:
        K = pp.ParameterMatrix.random(placer.spec, placer.sys.m, rng)
        try:
            placer.place(K)
            return K
        except pp.SingularMatrixError:
            continue


def from_fresh(pps, workloads, instances, section, make_call):
    """Time call = make_call(pp, placer, rng) on each instance, the placer
    set back before every call to its attributes right after `Placer()`."""
    rows = {}
    for label, n, m, gen, cls in instances:
        calls = {}
        for side, pp in pps.items():
            rng = np.random.default_rng([1, n, m])
            placer = instance(pp, workloads, n, m, gen, cls, rng)
            fresh = dict(placer.__dict__)
            call = make_call(pp, placer, rng)

            def run(placer=placer, fresh=fresh, call=call):
                # back to the freshly built placer, whatever its caches are called
                placer.__dict__ = dict(fresh)
                call()

            calls[side] = run
        rows[label] = compare(interleaved(calls, REPEATS, ROUNDS),
                              f"{section} {label}")
    return rows


def operator_builds(pps, workloads):
    return from_fresh(pps, workloads, INSTANCES, "operator_build",
                      lambda pp, placer, rng: placer.operator)


def first_places(pps, workloads):
    def make_call(pp, placer, rng):
        K = nonsingular_parameter(pp, placer, rng)
        return lambda: placer.place(K)

    return from_fresh(pps, workloads, FIRST_PLACE_INSTANCES, "first_place",
                      make_call)


def round_trips(pps, workloads):
    rows = {}
    for n, m in workloads.LADDER_CELLS:
        for cls in workloads.STRUCTURE_CLASSES:
            cell = f"n{n}-m{m}-{cls}"
            calls = {"build_chains": {}, "place": {}, "recover": {}}
            placed, recovered = {}, {}
            for side, pp in pps.items():
                rng = np.random.default_rng([1, n, m])
                placer = instance(pp, workloads, n, m, "ladder", cls, rng)
                K = nonsingular_parameter(pp, placer, rng)
                chains = placer.build_chains(K)
                try:
                    recovered[side] = placer.recover_parameters(chains).to_vector()
                except pp.PolePlaceError:
                    recovered[side] = None
                placed[side] = (placer, placer.place(K))
                calls["build_chains"][side] = lambda p=placer, K=K: p.build_chains(K)
                calls["place"][side] = lambda p=placer, K=K: p.place(K)
                calls["recover"][side] = (
                    lambda p=placer, c=chains: p.recover_parameters(c))
            rows[cell] = {
                call: compare(interleaved(by_side, ROUND_TRIP_REPEATS, ROUNDS),
                              f"{cell} {call}")
                for call, by_side in calls.items()
            }
            rows[cell]["place"]["quality"] = place_quality(placed)
            rows[cell]["recover"]["quality"] = recover_quality(recovered)
    return rows


def recover_quality(recovered):
    """Whether each side accepts the chain set, and whether the recovered
    coordinate vectors are bit-identical, from {side: vector or None}."""
    parent, change = recovered["parent"], recovered["change"]
    quality = {
        "accepted": {side: x is not None for side, x in recovered.items()},
        "vector_bit_identical": (parent is not None and change is not None
                                 and parent.tobytes() == change.tobytes()),
    }
    print(f"  recover: accepted {quality['accepted']}, "
          f"bit-identical {quality['vector_bit_identical']}", flush=True)
    return quality


def place_quality(placed):
    """The accuracy of both sides' `place` on one K, from
    {side: (placer, result)}: each side's residual over its acceptance
    bound residual_tol * scale; the largest entry of |F_change -
    F_parent| over cond(V) eps (1 + ||F_parent||_F), the error a
    backward-stable F may show; and |residual_change - residual_parent|
    over eps residual_scale(F_parent) ||V_parent||_F, the size of the
    roundoff either residual carries."""
    placer, res = placed["parent"]
    change = placed["change"][1]
    eps = np.finfo(float).eps
    bound = res.cond_V * eps * (1.0 + np.linalg.norm(res.F))
    unit = eps * placer.residual_scale(res.F) * np.linalg.norm(res.V)
    quality = {
        "residual_over_bound": {
            side: r.residual / (p.tol.residual_tol * p.residual_scale(r.F))
            for side, (p, r) in placed.items()},
        "F_change_over_cond_eps": float(np.abs(change.F - res.F).max() / bound),
        "residual_change_over_eps_scale_V":
            float(abs(change.residual - res.residual) / unit),
    }
    print("  place quality: residual/bound "
          + " -> ".join(f"{v:.3g}" for v in quality["residual_over_bound"].values())
          + f", F change {quality['F_change_over_cond_eps']:.3g}"
          + f", residual change {quality['residual_change_over_eps_scale_V']:.3g}",
          flush=True)
    return quality


def evaluation_cases(pps, workloads):
    """(label, {side: evaluator}, x, rng) for each instance of the
    "evaluation" and "gradient" sections: both sides' evaluators, one
    nonsingular start x drawn by the change's evaluator, and the generator
    that drew it."""
    cases = [(f"normality-{label}", "normality", n, m, cls)
             for label, n, m, gen, cls in INSTANCES if gen == "normality"]
    cases.append(("condition-bn02", "condition", None, None, None))
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
        # one start for both sides, from the change's generator
        while True:
            x = rng.standard_normal(evaluators["change"].L.shape[1])
            if evaluators["change"].point(x) is not None:
                break
        yield label, evaluators, x, rng


def evaluations(pps, workloads):
    rows = {}
    for label, evaluators, x, rng in evaluation_cases(pps, workloads):
        # one line for both sides
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


def gradients(pps, workloads):
    rows = {}
    for label, evaluators, x, _ in evaluation_cases(pps, workloads):
        points = {side: e.point(x) for side, e in evaluators.items()}
        grads = {side: e.grad(points[side]) for side, e in evaluators.items()}
        rows[label] = compare(
            interleaved({side: lambda e=e, pt=points[side]: e.grad(pt)
                         for side, e in evaluators.items()},
                        EVALUATION_REPEATS, EVALUATION_ROUNDS),
            f"{label} grad")
        # how far the change's gradient lies from the parent's
        rows[label]["grad_change_rel"] = float(
            np.linalg.norm(grads["change"] - grads["parent"])
            / np.linalg.norm(grads["parent"]))
    return rows


def certificates(pps, workloads):
    label, n, m, gen, cls = next(i for i in INSTANCES if i[1] == 5)
    stacks = {}
    for side, pp in pps.items():
        rng = np.random.default_rng([1, n, m])
        placer = instance(pp, workloads, n, m, gen, cls, rng)
        placed = [placer.place(nonsingular_parameter(pp, placer, rng))
                  for _ in range(max(CERTIFICATE_STACKS))]
        stacks[side] = {"V": np.array([r.V for r in placed]),
                        "X": np.array([r.X for r in placed])}
    assert np.iscomplexobj(stacks["change"]["X"])
    rows = {}
    for kind in ("V", "X"):
        for k in CERTIFICATE_STACKS:
            calls = {side: lambda pp=pp, M=stacks[side][kind][:k]:
                     pp.linalg.nonsingular_inverses(M)
                     for side, pp in pps.items()}
            rows[f"{label}-{kind}-k{k}"] = compare(
                interleaved(calls, EVALUATION_REPEATS, EVALUATION_ROUNDS),
                f"certificate {label} {kind} k={k}")
    return rows


def restarts(pps, workloads):
    rows = {}
    for label, evaluators, x, _ in evaluation_cases(pps, workloads):
        if label not in ("normality-n5-m2-defective", "condition-bn02"):
            continue
        calls, outs = {}, {}
        for side, e in evaluators.items():
            pp = pps[side]
            start = e.point(x)

            def run(pp=pp, e=e, start=start):
                with np.errstate(all="ignore"):
                    return pp.optimize._bfgs_restart(e, x, start, pp.OptOptions())

            calls[side], outs[side] = run, run()
        parent, change = outs["parent"], outs["change"]
        identical = (parent[0].tobytes() == change[0].tobytes()
                     and parent[1:] == change[1:])
        steps = len(change[2]) - 1
        per_step = {side: [[t / steps for t in run] for run in runs]
                    for side, runs in interleaved(calls, REPEATS,
                                                  ROUNDS).items()}
        rows[label] = compare(per_step, f"restart {label} per step")
        rows[label].update(steps=steps, bit_identical=identical)
        print(f"  {steps} steps, bit-identical {identical}", flush=True)
    return rows


def placers(pps, workloads):
    rows = {}
    for label, n, m, gen, cls in INSTANCES:
        calls = {}
        for side, pp in pps.items():
            placer = instance(pp, workloads, n, m, gen, cls,
                              np.random.default_rng([1, n, m]))
            calls[side] = lambda pp=pp, p=placer: pp.Placer(p.sys, p.spec)
        rows[label] = compare(interleaved(calls, ROUND_TRIP_REPEATS, ROUNDS),
                              f"placer {label}")
    return rows


# section: (question, repeats, rounds, key of the rows, function)
SECTIONS = {
    "operator_build": (
        "wall time of one Placer.operator() build from empty caches",
        REPEATS, ROUNDS, "instances", operator_builds),
    "first_place": (
        "wall time of one Placer.place from empty caches",
        REPEATS, ROUNDS, "instances", first_places),
    "round_trip": (
        "wall time of one Placer.build_chains, one Placer.place and one "
        "Placer.recover_parameters call per place_ladder cell",
        ROUND_TRIP_REPEATS, ROUNDS, "cells", round_trips),
    "evaluation": (
        "wall time of one stacked _Evaluator.points call on k probes of "
        "one line",
        EVALUATION_REPEATS, EVALUATION_ROUNDS, "instances", evaluations),
    "gradient": (
        "wall time of one _Evaluator.grad at an accepted point",
        EVALUATION_REPEATS, EVALUATION_ROUNDS, "instances", gradients),
    "certificate": (
        "wall time of one linalg.nonsingular_inverses call on a stack of k "
        "real V or complex X matrices",
        EVALUATION_REPEATS, EVALUATION_ROUNDS, "stacks", certificates),
    "restart": (
        "wall time per BFGS iteration of one _bfgs_restart run to its stop",
        REPEATS, ROUNDS, "instances", restarts),
    "placer": (
        "wall time of one Placer() build",
        ROUND_TRIP_REPEATS, ROUNDS, "instances", placers),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--sections", nargs="+", choices=list(SECTIONS),
                        default=list(SECTIONS),
                        help="the sections to run (default: all)")
    args = parser.parse_args(argv)
    trees = {side: getattr(args, side).resolve() for side in ("parent", "change")}
    pps = {side: load_tree(tree, side) for side, tree in trees.items()}
    workloads = load_module("perfbench_workloads",
                            trees["change"] / "perfbench" / "workloads.py")

    common = {"blas_threads": "1",
              "timing": "both trees in one interpreter, calls interleaved"}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.sections:
        question, repeats, rounds, key, section = SECTIONS[name]
        doc[name] = dict(question=question, repeats=repeats, rounds=rounds,
                         **common, **{key: section(pps, workloads)})
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
